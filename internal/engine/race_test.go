package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/workload"
)

// scheduleBytes serialises the scheduling-relevant part of a Result so
// parallel and sequential runs can be compared byte for byte (the
// latency fields are wall-clock and legitimately differ).
func scheduleBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Policy                  string
		Segments                interface{}
		Rejected                interface{}
		Energy, LostValue, Cost float64
		RejectedCount           int
	}{r.Policy, r.Schedule.Segments, r.Schedule.Rejected, r.Energy, r.LostValue, r.Cost, r.Rejected})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReplayAllMatchesSequentialByteForByte(t *testing.T) {
	traces := workload.Fleet(workload.Uniform, workload.Config{
		N: 40, M: 2, Alpha: 2, Seed: 1, ValueScale: 2,
	}, 9)

	var sequential [][]byte
	for _, in := range traces {
		res, err := Replay(in, mustNew(t, Spec{Name: "pd", M: 2, Alpha: 2}))
		if err != nil {
			t.Fatal(err)
		}
		sequential = append(sequential, scheduleBytes(t, res))
	}
	for _, workers := range []int{1, 3, 8} {
		results, err := DefaultRegistry().ReplayAll(context.Background(), traces, Spec{Name: "pd", M: 2, Alpha: 2}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			if res == nil {
				t.Fatalf("workers=%d: missing result %d", workers, i)
			}
			if !bytes.Equal(scheduleBytes(t, res), sequential[i]) {
				t.Fatalf("workers=%d: trace %d diverges from sequential replay", workers, i)
			}
		}
	}
}

func TestReplayAllJoinsErrorsAndKeepsSuccesses(t *testing.T) {
	good := workload.Uniform(workload.Config{N: 10, M: 1, Alpha: 2, Seed: 3})
	bad1 := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 1, Deadline: 0.5, Work: 1, Value: 1}, // deadline before release
	}}
	bad2 := &job.Instance{M: 0, Alpha: 2} // no processors
	results, err := DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{bad1, good, bad2}, Spec{Name: "pd", M: 1, Alpha: 2}, 2)
	if err == nil {
		t.Fatal("invalid traces must surface an error")
	}
	if !strings.Contains(err.Error(), "trace 0") || !strings.Contains(err.Error(), "trace 2") {
		t.Fatalf("joined error must name both failing traces: %v", err)
	}
	if results[0] != nil || results[2] != nil {
		t.Fatal("failed traces must leave nil slots")
	}
	if results[1] == nil || results[1].Cost <= 0 {
		t.Fatalf("healthy trace must still be replayed: %+v", results[1])
	}
}

func TestReplayAllStopsOnCanceledContext(t *testing.T) {
	fleet := workload.Fleet(workload.Uniform, workload.Config{N: 10, M: 1, Alpha: 2, Seed: 4}, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := DefaultRegistry().ReplayAll(ctx, fleet, Spec{Name: "pd", M: 1, Alpha: 2}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled joined in", err)
	}
	if len(results) != len(fleet) {
		t.Fatalf("%d result slots, want %d", len(results), len(fleet))
	}
	for i, res := range results {
		if res != nil {
			t.Fatalf("trace %d ran after ctx was done", i)
		}
	}
}

func TestRaceMatchesIndividualReplays(t *testing.T) {
	in := workload.Poisson(workload.Config{N: 20, M: 1, Alpha: 2, Seed: 5, ValueScale: math.Inf(1)})
	specs := []Spec{
		{Name: "pd", M: 1, Alpha: 2}, {Name: "oa", M: 1, Alpha: 2},
		{Name: "avr", M: 1, Alpha: 2}, {Name: "qoa", M: 1, Alpha: 2},
		{Name: "yds", M: 1, Alpha: 2},
	}
	results, err := DefaultRegistry().Race(in, specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		solo, err := Replay(in, mustNew(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		if results[i] == nil || results[i].Policy != solo.Policy {
			t.Fatalf("slot %d: got %+v want policy %s", i, results[i], solo.Policy)
		}
		if !bytes.Equal(scheduleBytes(t, results[i]), scheduleBytes(t, solo)) {
			t.Fatalf("%s: race result diverges from solo replay", solo.Policy)
		}
		// The offline optimum must not be beaten by any online policy.
		if results[i].Energy < results[len(results)-1].Energy-1e-9 {
			t.Fatalf("%s energy %v below offline optimum %v",
				results[i].Policy, results[i].Energy, results[len(results)-1].Energy)
		}
	}
}

func TestRacePropagatesPolicyErrorsByName(t *testing.T) {
	in := workload.Uniform(workload.Config{N: 8, M: 1, Alpha: 2, Seed: 6})
	reg := newBuiltinRegistry()
	if err := reg.Register(Registration{
		Name:    "broken",
		Summary: "test policy that emits an infeasible schedule",
		Caps:    Caps{MinM: 1, Profit: true},
		Build:   func(Spec) (Policy, error) { return failingPolicy{}, nil },
	}); err != nil {
		t.Fatal(err)
	}
	pd := Spec{Name: "pd", M: 1, Alpha: 2}
	results, err := reg.Race(in, pd, Spec{Name: "broken", M: 1, Alpha: 2})
	if err == nil {
		t.Fatal("broken policy must fail the race")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Fatalf("error must carry the failing policy's name: %v", err)
	}
	if results[0] == nil || results[1] != nil {
		t.Fatalf("want PD result and nil broken slot, got %v / %v", results[0], results[1])
	}
	invalid := &job.Instance{M: 0, Alpha: 2}
	if _, err := reg.Race(invalid, pd); err == nil {
		t.Fatal("invalid instance must be rejected before racing")
	}
}

// TestReplayAllParallelSpeedup drives an 8-trace fleet sequentially
// and with a worker pool and checks wall-clock actually drops. The
// speedup bar is conservative (the ideal is ~min(workers, cores)) to
// stay robust on loaded CI machines; the test skips where there is no
// parallel hardware to show it on.
func TestReplayAllParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need ≥ 4 CPUs to demonstrate parallel speedup, have %d", cores)
	}
	fleet := workload.Fleet(workload.HeavyTail, workload.Config{
		N: 400, M: 1, Alpha: 2, Seed: 21, ValueScale: math.Inf(1),
	}, 8)
	spec := Spec{Name: "oa", M: 1, Alpha: 2}
	ctx := context.Background()

	start := time.Now()
	seqResults, err := DefaultRegistry().ReplayAll(ctx, fleet, spec, 1)
	seq := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	parResults, err := DefaultRegistry().ReplayAll(ctx, fleet, spec, 4)
	par := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fleet {
		if !bytes.Equal(scheduleBytes(t, seqResults[i]), scheduleBytes(t, parResults[i])) {
			t.Fatalf("trace %d: parallel replay changed the result", i)
		}
	}
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, 4 workers %v (%.2f× speedup)", seq, par, speedup)
	if speedup < 2 {
		t.Fatalf("4 workers on %d cores only reached %.2f× over sequential", cores, speedup)
	}
}

func TestNewBatchPoliciesReplay(t *testing.T) {
	in := workload.Poisson(workload.Config{N: 12, M: 1, Alpha: 2, Seed: 7, ValueScale: math.Inf(1)})
	for _, name := range []string{"yds", "avr", "bkp", "qoa"} {
		p := mustNew(t, Spec{Name: name, M: 1, Alpha: 2})
		res, err := Replay(in, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.LostValue != 0 || res.Rejected != 0 {
			t.Fatalf("%s dropped work on a finish-all instance: %+v", p.Name(), res)
		}
	}
}
