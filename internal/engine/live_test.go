package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestLiveMatchesReplay pins the streaming lifecycle to the batch one:
// feeding a normalized instance arrival by arrival through Live (one-
// job ApplyBatch calls) must produce a byte-identical schedule and
// identical cost metrics to Replay, which hands the policy each job
// through Arrive, for every built-in policy.
func TestLiveMatchesReplay(t *testing.T) {
	in := workload.Poisson(workload.Config{N: 40, M: 1, Alpha: 2.2, Seed: 3, ValueScale: 2})
	for _, name := range DefaultRegistry().Names() {
		if name == "opt" {
			continue // exponential; 40 jobs is out of reach
		}
		spec := Spec{Name: name, M: 1, Alpha: in.Alpha}
		batch, err := DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}

		l, err := NewLive(spec)
		if err != nil {
			t.Fatalf("%s: NewLive: %v", name, err)
		}
		norm := in.Clone()
		norm.Normalize()
		for i, j := range norm.Jobs {
			if _, err := l.ApplyBatch(norm.Jobs[i : i+1]); err != nil {
				t.Fatalf("%s: arrive job %d: %v", name, j.ID, err)
			}
		}
		if got := l.Arrivals(); got != len(norm.Jobs) {
			t.Fatalf("%s: arrivals = %d, want %d", name, got, len(norm.Jobs))
		}
		live, err := l.Close()
		if err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}

		a, b := *batch[0], *live
		// Wall-clock timings differ run to run; mask them.
		a.MaxArrive, a.TotalArrive, a.PlanTime = 0, 0, 0
		b.MaxArrive, b.TotalArrive, b.PlanTime = 0, 0, 0
		aj, errA := json.Marshal(a)
		bj, errB := json.Marshal(b)
		if errA != nil || errB != nil {
			t.Fatalf("%s: marshal: %v %v", name, errA, errB)
		}
		if !bytes.Equal(aj, bj) {
			t.Fatalf("%s: live result differs from replay:\n%s\nvs\n%s", name, aj, bj)
		}
	}
}

func TestLiveLifecycleErrors(t *testing.T) {
	spec := Spec{Name: "oa", M: 1, Alpha: 2}
	mk := func() *Live {
		l, err := NewLive(spec)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	ok := job.Job{ID: 0, Release: 1, Deadline: 2, Work: 1, Value: math.Inf(1)}

	l := mk()
	if _, err := l.ApplyBatch([]job.Job{{ID: 1, Release: 0, Deadline: 1, Work: -1}}); err == nil {
		t.Fatal("invalid job accepted")
	}
	if _, err := l.ApplyBatch([]job.Job{ok}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ApplyBatch([]job.Job{ok}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if _, err := l.ApplyBatch([]job.Job{{ID: 2, Release: 0.5, Deadline: 3, Work: 1}}); err == nil {
		t.Fatal("out-of-order release accepted")
	}
	// A refused arrival must not corrupt the run.
	if _, err := l.Close(); err != nil {
		t.Fatalf("close after refused arrivals: %v", err)
	}
	if _, err := l.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	if _, err := l.ApplyBatch([]job.Job{{ID: 3, Release: 5, Deadline: 6, Work: 1}}); err == nil {
		t.Fatal("arrive after close accepted")
	}

	if _, err := NewLive(Spec{Name: "nope", M: 1, Alpha: 2}); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

func TestLiveSnapshot(t *testing.T) {
	l, err := NewLive(Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ApplyBatch([]job.Job{{ID: 0, Release: 0, Deadline: 2, Work: 1, Value: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	if snap.Arrivals != 1 || snap.Pending != 1 || snap.Buffered {
		t.Fatalf("online snapshot = %+v", snap)
	}
	// A batch policy behind Live reports its backlog as buffered.
	lb, err := NewLive(Spec{Name: "yds", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lb.ApplyBatch([]job.Job{{ID: 0, Release: 0, Deadline: 2, Work: 1.5, Value: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	snap = lb.Snapshot()
	if !snap.Buffered || snap.PendingWork != 1.5 {
		t.Fatalf("batch snapshot = %+v", snap)
	}
}

// TestWireRoundTrip pins the JSON wire format of Spec, Snapshot and
// Result: lowerCamel names, durations as nanoseconds, and lossless
// round-trips, so the HTTP API needs no parallel DTO layer.
func TestWireRoundTrip(t *testing.T) {
	spec := Spec{Name: "pd", M: 3, Alpha: 2.5, Params: map[string]float64{"delta": 0.125}}
	sj, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"pd","m":3,"alpha":2.5,"params":{"delta":0.125}}`
	if string(sj) != want {
		t.Fatalf("spec wire = %s, want %s", sj, want)
	}
	var spec2 Spec
	if err := json.Unmarshal(sj, &spec2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, spec2) {
		t.Fatalf("spec round-trip changed: %+v vs %+v", spec, spec2)
	}

	snap := Snapshot{At: 1.5, Arrivals: 7, Pending: 2, PendingWork: 0.75, Speed: 1.25, Buffered: true}
	nj, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	want = `{"at":1.5,"arrivals":7,"pending":2,"pendingWork":0.75,"speed":1.25,"buffered":true}`
	if string(nj) != want {
		t.Fatalf("snapshot wire = %s, want %s", nj, want)
	}
	var snap2 Snapshot
	if err := json.Unmarshal(nj, &snap2); err != nil {
		t.Fatal(err)
	}
	if snap != snap2 {
		t.Fatalf("snapshot round-trip changed: %+v vs %+v", snap, snap2)
	}

	res := Result{
		Policy: "oa",
		Schedule: &sched.Schedule{M: 1,
			Segments: []sched.Segment{{Proc: 0, Job: 4, T0: 0.1, T1: 0.9, Speed: 1.375}},
			Rejected: []int{9},
		},
		Energy: 1.51, LostValue: 0.25, Cost: 1.76, Rejected: 1,
		MaxArrive: 1500 * time.Nanosecond, TotalArrive: 4 * time.Microsecond,
		PlanTime: time.Millisecond,
	}
	rj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"policy"`, `"schedule"`, `"segments"`, `"proc"`, `"t0"`,
		`"lostValue"`, `"maxArrive":1500`, `"totalArrive":4000`, `"planTime":1000000`} {
		if !bytes.Contains(rj, []byte(key)) {
			t.Fatalf("result wire %s misses %s", rj, key)
		}
	}
	var res2 Result
	if err := json.Unmarshal(rj, &res2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("result round-trip changed: %+v vs %+v", res, res2)
	}
}

// TestLiveArriveSteadyStateAllocFree guards the serving hot path's
// engine half: a warm one-job Live.ApplyBatch — validation, duplicate
// check, latency metering and the policy's own batched replanning —
// must not allocate per arrival beyond the amortized growth of its
// bookkeeping (jobs slice, seen map, session buffers).
func TestLiveArriveSteadyStateAllocFree(t *testing.T) {
	in := workload.HeavyTail(workload.Config{
		N: 6000, M: 1, Alpha: 2, Seed: 9, Horizon: 600, ValueScale: math.Inf(1),
	})
	in.Normalize()
	const warm, runs = 5000, 500
	l, err := NewLive(Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Jobs[:warm] {
		if _, err := l.ApplyBatch(in.Jobs[i : i+1]); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	i := warm
	avg := testing.AllocsPerRun(runs, func() {
		if _, err := l.ApplyBatch(in.Jobs[i : i+1]); err != nil {
			t.Fatalf("arrive %d: %v", i, err)
		}
		i++
	})
	if avg > 0.5 {
		t.Errorf("%.3f allocs per steady-state Live arrival, want ~0", avg)
	}
	if _, err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSessionPerArrivalStaysFlat is the accidental-quadratic guard of
// the truly-online sessions: the per-arrival cost that
// BenchmarkSessionPerArrival reports must not grow with the session's
// age. Both sizes replay the benchmark's heavy-tail trace (horizon
// n/10, so the live backlog does not grow with n); n=1e4 may cost at
// most 4× per arrival what n=1e3 costs, taking the best of up to
// three runs per size so one descheduled run cannot fail it. A
// per-arrival scan of the history would cost 10×.
func TestSessionPerArrivalStaysFlat(t *testing.T) {
	traces := map[int]*job.Instance{}
	for _, n := range []int{1_000, 10_000} {
		in := workload.HeavyTail(workload.Config{
			N: n, M: 1, Alpha: 2, Seed: 17, Horizon: float64(n) / 10, ValueScale: math.Inf(1),
		})
		in.Normalize()
		traces[n] = in
	}
	perArrival := func(spec Spec, in *job.Instance) time.Duration {
		p := mustNew(t, spec)
		start := time.Now()
		for _, j := range in.Jobs {
			if err := p.Arrive(j); err != nil {
				t.Fatalf("%s n=%d: %v", spec.Name, len(in.Jobs), err)
			}
		}
		return time.Since(start) / time.Duration(len(in.Jobs))
	}
	for _, name := range []string{"oa", "avr", "qoa"} {
		spec := Spec{Name: name, M: 1, Alpha: 2}
		small, large := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for run := 0; run < 3 && (run == 0 || large > 4*small); run++ {
			small = min(small, perArrival(spec, traces[1_000]))
			large = min(large, perArrival(spec, traces[10_000]))
		}
		t.Logf("%s: %v/arrival at n=1e3, %v at n=1e4", name, small, large)
		if large > 4*small {
			t.Errorf("%s: %v per arrival at n=1e4 is more than 4× the %v at n=1e3", name, large, small)
		}
	}
}

// TestPDPerArrivalStaysFlat is the accidental-quadratic guard for PD,
// on a 16,384-arrival trace shaped like schedd's pd-m4 benchmark
// (Poisson, two arrivals per time unit, α = 2.5, values at scale 1).
// The last 1,000 arrivals may cost at most 2× what arrivals 1,000 to
// 1,999 cost, best of three runs, at m = 1 and m = 4. A PD that scans
// or shifts every interval it ever created reads 4–6× here.
func TestPDPerArrivalStaysFlat(t *testing.T) {
	const n, block = 16_384, 1_000
	for _, m := range []int{1, 4} {
		in := workload.Poisson(workload.Config{N: n, M: m, Alpha: 2.5, Seed: 23, Horizon: n / 2, ValueScale: 1})
		spec := Spec{Name: "pd", M: m, Alpha: in.Alpha}
		early, late := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for run := 0; run < 3 && (run == 0 || late > 2*early); run++ {
			p := mustNew(t, spec)
			var start time.Time
			for i, j := range in.Jobs {
				switch i {
				case block, n - block:
					start = time.Now()
				case 2 * block:
					early = min(early, time.Since(start))
				}
				if err := p.Arrive(j); err != nil {
					t.Fatalf("m=%d: arrival %d: %v", m, i, err)
				}
			}
			late = min(late, time.Since(start))
		}
		t.Logf("m=%d: %v per arrival over arrivals 1000–1999, %v over the last 1000", m, early/block, late/block)
		if late > 2*early {
			t.Errorf("m=%d: the last %d arrivals took %v, more than 2× the %v of arrivals %d–%d",
				m, block, late, early, block, 2*block-1)
		}
	}
}

// TestApplyBatchMatchesSequentialArrive pins the batched ingest path
// at the engine layer: a trace fed through ApplyBatch under arbitrary
// batch boundaries must close to a Result byte-identical to Replay,
// which feeds the same jobs through Policy.Arrive one at a time, for
// every built-in policy shape (truly-online sessions with coalesced
// replans, the buffering shims, and pd's generic per-job loop).
func TestApplyBatchMatchesSequentialArrive(t *testing.T) {
	// The same instance TestLiveMatchesReplay replays: every built-in
	// (including the float-sensitive moa shim) closes it cleanly.
	in := workload.Poisson(workload.Config{N: 40, M: 1, Alpha: 2.2, Seed: 3, ValueScale: 2})
	norm := in.Clone()
	norm.Normalize()
	for _, name := range DefaultRegistry().Names() {
		if name == "opt" {
			continue // exponential; 60 jobs is out of reach
		}
		spec := Spec{Name: name, M: 1, Alpha: in.Alpha}
		want, err := Replay(norm, mustNew(t, spec))
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		for _, sizes := range [][]int{{len(norm.Jobs)}, {1}, {3, 7, 1, 13}} {
			bat, err := NewLive(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			k := 0
			for lo := 0; lo < len(norm.Jobs); {
				hi := lo + sizes[k%len(sizes)]
				k++
				if hi > len(norm.Jobs) {
					hi = len(norm.Jobs)
				}
				n, err := bat.ApplyBatch(norm.Jobs[lo:hi])
				if n != hi-lo || err != nil {
					t.Fatalf("%s: ApplyBatch[%d:%d] = %d, %v", name, lo, hi, n, err)
				}
				lo = hi
			}
			if bat.Arrivals() != len(norm.Jobs) {
				t.Fatalf("%s: arrivals = %d", name, bat.Arrivals())
			}
			got, err := bat.Close()
			if err != nil {
				t.Fatalf("%s: batch close: %v", name, err)
			}
			a, b := *want, *got
			a.MaxArrive, a.TotalArrive, a.PlanTime = 0, 0, 0
			b.MaxArrive, b.TotalArrive, b.PlanTime = 0, 0, 0
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if !bytes.Equal(aj, bj) {
				t.Fatalf("%s: batched result differs from sequential:\n%s\nvs\n%s", name, aj, bj)
			}
		}
	}
}

// TestApplyBatchStopsAtFirstError pins the batch error contract: the
// clean prefix is applied and counted, the offending job and the rest
// of the batch are dropped, and the engine's bookkeeping (seen set,
// accumulated instance, frontier) reflects exactly the applied jobs.
func TestApplyBatchStopsAtFirstError(t *testing.T) {
	mk := func(id int, rel float64) job.Job {
		return job.Job{ID: id, Release: rel, Deadline: rel + 2, Work: 1, Value: 1}
	}
	l, err := NewLive(Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Invalid job mid-batch: release-order violation.
	n, err := l.ApplyBatch([]job.Job{mk(0, 0), mk(1, 1), mk(2, 0.5), mk(3, 2)})
	if n != 2 || err == nil {
		t.Fatalf("ApplyBatch = %d, %v; want 2 and a release-order error", n, err)
	}
	if l.Arrivals() != 2 {
		t.Fatalf("arrivals = %d after partial batch", l.Arrivals())
	}
	// The dropped jobs must not pollute the duplicate set: job 2 can
	// arrive later (in order) under its own ID.
	if n, err := l.ApplyBatch([]job.Job{mk(2, 1.5), mk(3, 2)}); n != 2 || err != nil {
		t.Fatalf("re-apply dropped jobs: %d, %v", n, err)
	}
	// A malformed job fails validation without reaching the policy.
	if n, err := l.ApplyBatch([]job.Job{{ID: 9, Release: 3, Deadline: 2, Work: 1}}); n != 0 || err == nil {
		t.Fatalf("invalid job: %d, %v", n, err)
	}
	// Duplicates inside one batch are caught against each other.
	if n, err := l.ApplyBatch([]job.Job{mk(10, 4), mk(10, 4)}); n != 1 || err == nil {
		t.Fatalf("intra-batch duplicate: %d, %v", n, err)
	}
	res, err := l.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if res.Schedule == nil || len(res.Schedule.Rejected) != 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := l.ApplyBatch([]job.Job{mk(11, 9)}); err == nil {
		t.Fatal("ApplyBatch after Close must fail")
	}
}

// TestLivePDClosesAfterRefusedArrival: PD refuses an arrival whose
// water level it cannot find (job 1 below), and the run stays usable
// for more arrivals and Close, as ApplyBatch documents: the refused job
// is in neither the instance nor the schedule's rejected list, so the
// schedule verifies.
func TestLivePDClosesAfterRefusedArrival(t *testing.T) {
	l, err := NewLive(Spec{Name: "pd", M: 1, Alpha: 1.05})
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	for _, c := range []struct {
		j       job.Job
		applied int
	}{
		{job.Job{ID: 0, Release: 0, Deadline: 1, Work: 1e10, Value: inf}, 1},
		{job.Job{ID: 1, Release: 0, Deadline: 1, Work: 1e-300, Value: 1}, 0},
		{job.Job{ID: 2, Release: 0.5, Deadline: 2, Work: 1, Value: 10}, 1},
	} {
		if n, err := l.ApplyBatch([]job.Job{c.j}); n != c.applied || (err == nil) != (n == 1) {
			t.Fatalf("job %d: applied %d, error %v", c.j.ID, n, err)
		}
	}
	res, err := l.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(res.Schedule.Rejected) != 0 || l.Arrivals() != 2 {
		t.Fatalf("rejected %v after %d arrivals", res.Schedule.Rejected, l.Arrivals())
	}
}
