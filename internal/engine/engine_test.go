package engine

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

// mustNew resolves a spec through the default registry or fails the
// test — the construction path every test exercises.
func mustNew(t testing.TB, spec Spec) Policy {
	t.Helper()
	p, err := New(spec)
	if err != nil {
		t.Fatalf("New(%+v): %v", spec, err)
	}
	return p
}

func TestReplayPD(t *testing.T) {
	in := workload.Uniform(workload.Config{N: 20, M: 2, Alpha: 2, Seed: 1})
	res, err := Replay(in, mustNew(t, Spec{Name: "pd", M: 2, Alpha: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "pd" {
		t.Fatalf("policy name %q", res.Policy)
	}
	if res.Cost <= 0 || res.Cost != res.Energy+res.LostValue {
		t.Fatalf("inconsistent result %+v", res)
	}
	if res.TotalArrive < res.MaxArrive {
		t.Fatal("latency accounting broken")
	}
}

func TestReplayMatchesDirectRun(t *testing.T) {
	// The engine must not change algorithm behaviour: PD through the
	// engine equals core.Run.
	in := workload.Bursty(workload.Config{N: 30, M: 3, Alpha: 2.5, Seed: 2})
	res, err := Replay(in, mustNew(t, Spec{Name: "pd", M: 3, Alpha: 2.5}))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := directPDCost(in)
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Close(res.Cost, direct, 1e-9) {
		t.Fatalf("engine cost %v vs direct %v", res.Cost, direct)
	}
}

func TestReplayAllPolicies(t *testing.T) {
	in := workload.Poisson(workload.Config{N: 15, M: 1, Alpha: 2, Seed: 3, ValueScale: math.Inf(1)})
	for _, name := range []string{"pd", "cll", "oa", "moa", "avr", "bkp", "qoa", "yds"} {
		res, err := Replay(in, mustNew(t, Spec{Name: name, M: 1, Alpha: 2}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.LostValue != 0 {
			t.Fatalf("%s lost value on an infinite-value instance", name)
		}
	}
}

// TestLatencySemantics pins the honest-latency contract: online
// policies report real per-arrival work; buffered policies report zero
// arrive columns and their full cost as PlanTime.
func TestLatencySemantics(t *testing.T) {
	in := workload.Uniform(workload.Config{N: 40, M: 1, Alpha: 2, Seed: 11, ValueScale: math.Inf(1)})
	for _, name := range []string{"pd", "oa", "avr", "qoa"} {
		res, err := Replay(in, mustNew(t, Spec{Name: name, M: 1, Alpha: 2}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TotalArrive <= 0 || res.MaxArrive <= 0 {
			t.Fatalf("%s is online but reported no per-arrival latency: %+v", name, res)
		}
	}
	for _, name := range []string{"cll", "yds", "bkp", "moa"} {
		res, err := Replay(in, mustNew(t, Spec{Name: name, M: 1, Alpha: 2}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TotalArrive != 0 || res.MaxArrive != 0 {
			t.Fatalf("%s buffers, its arrive columns must be zeroed: %+v", name, res)
		}
		if res.PlanTime <= 0 {
			t.Fatalf("%s must report its planning cost in PlanTime: %+v", name, res)
		}
	}
}

func TestReplayRejectsInvalidInstance(t *testing.T) {
	if _, err := Replay(&job.Instance{M: 0, Alpha: 2}, mustNew(t, Spec{Name: "pd", M: 1, Alpha: 2})); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// failingPolicy produces an infeasible schedule to prove the engine's
// verification actually bites.
type failingPolicy struct{}

func (failingPolicy) Name() string         { return "broken" }
func (failingPolicy) Arrive(job.Job) error { return nil }
func (failingPolicy) Close() (*sched.Schedule, error) {
	return &sched.Schedule{M: 1}, nil // finishes nothing, rejects nothing
}

func TestReplayCatchesInfeasiblePolicy(t *testing.T) {
	in := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 1, Work: 1, Value: 5},
	}}
	if _, err := Replay(in, failingPolicy{}); err == nil {
		t.Fatal("infeasible policy passed verification")
	}
}

func directPDCost(in *job.Instance) (float64, error) {
	r, err := core.Run(in)
	if err != nil {
		return 0, err
	}
	return r.Cost, nil
}

// TestSessionSnapshotsMidStream drives the Session face of every
// built-in policy mid-replay: online policies expose their live plan
// and backlog; buffering shims expose the buffered backlog with the
// Buffered label set.
func TestSessionSnapshotsMidStream(t *testing.T) {
	jobs := []job.Job{
		{ID: 0, Release: 0, Deadline: 2, Work: 1, Value: math.Inf(1)},
		{ID: 1, Release: 0.5, Deadline: 3, Work: 2, Value: math.Inf(1)},
	}
	for _, tc := range []struct {
		name     string
		buffered bool
	}{
		{"pd", false}, {"oa", false}, {"avr", false}, {"qoa", false},
		{"cll", true}, {"yds", true}, {"bkp", true}, {"moa", true},
	} {
		p := mustNew(t, Spec{Name: tc.name, M: 1, Alpha: 2})
		s, ok := SessionOf(p)
		if !ok {
			t.Fatalf("%s: built-in policy must implement Session", tc.name)
		}
		for _, j := range jobs {
			if err := s.Arrive(j); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		snap := s.Snapshot()
		if snap.Buffered != tc.buffered {
			t.Fatalf("%s: Buffered = %v, want %v", tc.name, snap.Buffered, tc.buffered)
		}
		if snap.Arrivals != 2 || snap.At != 0.5 {
			t.Fatalf("%s: frontier not tracked: %+v", tc.name, snap)
		}
		if snap.PendingWork <= 0 {
			t.Fatalf("%s: snapshot lost the backlog: %+v", tc.name, snap)
		}
		if !tc.buffered && tc.name != "pd" && snap.Speed <= 0 {
			t.Fatalf("%s: online policy with work pending must plan a speed: %+v", tc.name, snap)
		}
		if tc.buffered && snap.Speed != 0 {
			t.Fatalf("%s: buffered policy cannot have planned a speed: %+v", tc.name, snap)
		}
		if _, err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
	}
}

// TestPDSnapshotObservesPlan: PD commits work into its partition at
// arrival, so the snapshot must see pending planned work and a
// positive speed at the frontier.
func TestPDSnapshotObservesPlan(t *testing.T) {
	p := mustNew(t, Spec{Name: "pd", M: 1, Alpha: 2})
	s, _ := SessionOf(p)
	if err := s.Arrive(job.Job{ID: 0, Release: 0, Deadline: 2, Work: 1, Value: math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Pending != 1 || snap.PendingWork <= 0 || snap.Speed <= 0 {
		t.Fatalf("PD snapshot blind to its own plan: %+v", snap)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// refPDSnapshot is pdPolicy.Snapshot as it read over core.Scheduler
// before PD moved onto core.Session. A checkpoint written by that code
// holds these bytes, and recovery byte-compares a replayed snapshot
// against them.
func refPDSnapshot(s *core.Scheduler, arrivals int, lastAt float64) Snapshot {
	snap := Snapshot{At: lastAt, Arrivals: arrivals}
	pending := map[int]struct{}{}
	for _, st := range s.Snapshot() {
		if st.T1 <= lastAt {
			continue
		}
		frac := 1.0
		if st.T0 < lastAt {
			frac = (st.T1 - lastAt) / (st.T1 - st.T0)
		}
		ids := make([]int, 0, len(st.Load))
		for id := range st.Load {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			snap.PendingWork += st.Load[id] * frac
			pending[id] = struct{}{}
		}
		if st.T0 <= lastAt && lastAt < st.T1 {
			for _, id := range ids {
				snap.Speed += st.Speeds[id]
			}
		}
	}
	snap.Pending = len(pending)
	return snap
}

// TestPDSnapshotMatchesReference pins PD's snapshot bytes to the
// reference's at m ∈ {1, 2, 4}, after every fifth arrival of a
// pd-m4-shaped trace (Poisson, two arrivals per time unit, a third
// rejected).
func TestPDSnapshotMatchesReference(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		in := workload.Poisson(workload.Config{N: 800, M: m, Alpha: 2.5, Seed: int64(40 + m), Horizon: 400, ValueScale: 1})
		s, _ := SessionOf(mustNew(t, Spec{Name: "pd", M: m, Alpha: in.Alpha}))
		ref := core.New(m, power.Model{Alpha: in.Alpha})
		if got, want := s.Snapshot().AppendJSON(nil), refPDSnapshot(ref, 0, 0).AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("m=%d: empty snapshot %s, reference %s", m, got, want)
		}
		for i, j := range in.Jobs {
			if err := s.Arrive(j); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Arrive(j); err != nil {
				t.Fatal(err)
			}
			if i%5 != 0 && i != len(in.Jobs)-1 {
				continue
			}
			got, want := s.Snapshot().AppendJSON(nil), refPDSnapshot(ref, i+1, j.Release).AppendJSON(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("m=%d, after arrival %d: snapshot %s, reference %s", m, i, got, want)
			}
		}
	}
}
