package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/workload"
)

// pdM4Trace draws the trace shape schedd's pd-m4 benchmark serves:
// Poisson arrivals, two per time unit, α = 2.5, values at scale 1
// (about a third of the jobs rejected).
func pdM4Trace(n, m int, seed int64) *job.Instance {
	return workload.Poisson(workload.Config{
		N: n, M: m, Alpha: 2.5, Seed: seed, Horizon: float64(n) / 2, ValueScale: 1,
	})
}

// refState computes SessionState from the reference the way engine's
// PD snapshot read it from Scheduler.Snapshot before PD moved onto
// Session.
func refState(sc *Scheduler, arrivals int, at float64) SessionState {
	st := SessionState{Time: at, Arrivals: arrivals}
	pending := map[int]struct{}{}
	for _, iv := range sc.Snapshot() {
		if iv.T1 <= at {
			continue
		}
		frac := 1.0
		if iv.T0 < at {
			frac = (iv.T1 - at) / (iv.T1 - iv.T0)
		}
		ids := make([]int, 0, len(iv.Load))
		for id := range iv.Load {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			st.PendingWork += iv.Load[id] * frac
			pending[id] = struct{}{}
		}
		if iv.T0 <= at && at < iv.T1 {
			for _, id := range ids {
				st.Speed += iv.Speeds[id]
			}
		}
	}
	st.Pending = len(pending)
	return st
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// matchScheduler feeds in's jobs to Scheduler and Session side by side
// and fails on the first difference: an error, a Decision, or, every
// `every` arrivals and at the end, the Schedule's JSON bytes, the
// DualValue bits or the snapshot state.
func matchScheduler(t *testing.T, in *job.Instance, every int) {
	t.Helper()
	pm := power.Model{Alpha: in.Alpha}
	ref, ses := New(in.M, pm), NewSession(in.M, pm)
	arrivals, at := 0, 0.0
	for i, j := range in.Jobs {
		want, werr := ref.Arrive(j)
		got, gerr := ses.Arrive(j)
		if errText(werr) != errText(gerr) {
			t.Fatalf("arrival %d (job %+v): error %q, reference %q", i, j, errText(gerr), errText(werr))
		}
		if want.JobID != got.JobID || want.Accepted != got.Accepted ||
			!sameBits(want.Lambda, got.Lambda) || !sameBits(want.Speed, got.Speed) {
			t.Fatalf("arrival %d (job %+v): decision %+v, reference %+v", i, j, got, want)
		}
		if werr == nil {
			arrivals, at = arrivals+1, j.Release
		}
		if (i+1)%every == 0 || i == len(in.Jobs)-1 {
			matchOutputs(t, fmt.Sprintf("after arrival %d", i), ref, ses, arrivals, at)
		}
	}
	matchOutputs(t, "at the end", ref, ses, arrivals, at)
}

func matchOutputs(t *testing.T, when string, ref *Scheduler, ses *Session, arrivals int, at float64) {
	t.Helper()
	wj, werr := json.Marshal(ref.Schedule())
	gj, gerr := json.Marshal(ses.Schedule())
	if errText(werr) != errText(gerr) || string(wj) != string(gj) {
		t.Fatalf("%s: schedule differs from the reference:\n%s (%v)\nvs\n%s (%v)", when, gj, gerr, wj, werr)
	}
	if w, g := ref.DualValue(), ses.DualValue(); !sameBits(w, g) {
		t.Fatalf("%s: DualValue %v (%#x), reference %v (%#x)", when, g, math.Float64bits(g), w, math.Float64bits(w))
	}
	w, g := refState(ref, arrivals, at), ses.State()
	if w.Time != g.Time || w.Arrivals != g.Arrivals || w.Pending != g.Pending || //schedlint:exactfloat bit-identity is the claim under test
		!sameBits(w.PendingWork, g.PendingWork) || !sameBits(w.Speed, g.Speed) {
		t.Fatalf("%s: state %+v, reference %+v", when, g, w)
	}
}

// TestSessionMatchesScheduler pins Session bit-identical to the
// reference Scheduler at m ∈ {1, 2, 4} on value-calibrated random
// instances, pd-m4's Poisson shape, heavy tails, a finish-all trace
// and T2's adversarial instance.
func TestSessionMatchesScheduler(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(100 + m)))
		traces := map[string]*job.Instance{
			"poisson":    pdM4Trace(800, m, int64(m)),
			"heavytail":  workload.HeavyTail(workload.Config{N: 500, M: m, Alpha: 2, Seed: int64(m), Horizon: 100}),
			"finish-all": workload.Poisson(workload.Config{N: 500, M: m, Alpha: 2.2, Seed: int64(m), Horizon: 200, ValueScale: math.Inf(1)}),
		}
		for i := 0; i < 6; i++ {
			traces[fmt.Sprintf("rand%d", i)] = randInstance(rng, 10+rng.Intn(80), m, 1.3+2*rng.Float64())
		}
		lb := workload.LowerBound(40, 2.5)
		lb.M = m
		traces["lowerbound"] = lb
		for name, in := range traces {
			t.Run(fmt.Sprintf("%s/m=%d", name, m), func(t *testing.T) {
				matchScheduler(t, in, 1+len(in.Jobs)/7)
			})
		}
	}
}

// TestSessionRefusesArrivalBehindFrontier: the reference only
// documents release order; the session enforces it, and a refused
// arrival leaves the session usable.
func TestSessionRefusesArrivalBehindFrontier(t *testing.T) {
	s := NewSession(1, power.Model{Alpha: 2})
	if _, err := s.Arrive(job.Job{ID: 0, Release: 1, Deadline: 3, Work: 1, Value: math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Arrive(job.Job{ID: 1, Release: 0.5, Deadline: 2, Work: 1, Value: 1}); err == nil {
		t.Fatal("arrival behind the frontier accepted")
	}
	if _, err := s.Arrive(job.Job{ID: 1, Release: 1, Deadline: 2, Work: 1, Value: math.Inf(1)}); err != nil {
		t.Fatalf("arrival at the frontier after a refusal: %v", err)
	}
	if st := s.State(); st.Arrivals != 2 || st.Time != 1 {
		t.Fatalf("state after a refusal: %+v", st)
	}
}

// TestSessionSteadyStateAllocs guards the session's arrival path: at
// n ≈ 15k on pd-m4's trace shape, an arrival may allocate at most 4
// times on average (amortized growth of buffers and the segment store).
// The reference allocates about 24.
func TestSessionSteadyStateAllocs(t *testing.T) {
	in := pdM4Trace(16_384, 4, 7)
	s := NewSession(in.M, power.Model{Alpha: in.Alpha})
	const warm, runs = 15_000, 1_000
	for _, j := range in.Jobs[:warm] {
		if _, err := s.Arrive(j); err != nil {
			t.Fatal(err)
		}
	}
	i := warm
	avg := testing.AllocsPerRun(runs, func() {
		if _, err := s.Arrive(in.Jobs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.2f allocs per arrival", avg)
	if avg > 4 {
		t.Errorf("%.2f allocs per steady-state arrival, want at most 4", avg)
	}
}

// fuzzInstance turns bytes into at most 64 release-ordered jobs with
// unique, unordered IDs: ties, nested windows, gaps, magnitudes from
// 2^-40 to 2^40 and beyond, zero, finite and infinite values.
func fuzzInstance(data []byte) *job.Instance {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	in := &job.Instance{M: 1 + int(next()%4), Alpha: 1.05 + float64(next())/64}
	pm := power.Model{Alpha: in.Alpha}
	r := float64(int(next())-128) * math.Ldexp(1, int(next()%48)-8)
	for i := 0; len(data) >= 6 && i < 64; i++ {
		gap, span, work, value, mag, id := next(), next(), next(), next(), next(), next()
		switch gap >> 6 {
		case 1:
			r += float64(gap&63) / 64
		case 2:
			r += float64(gap&63) * 4
		case 3:
			r += math.Ldexp(1, int(gap&63)-40)
		}
		e := int(mag%96) - 48
		if mag >= 250 {
			e = int(mag) * 4 // overflow territory: 2^1000 and up
		}
		j := job.Job{
			ID:       int(id)<<8 | i,
			Release:  r,
			Deadline: r + math.Ldexp(1+float64(span)/16, e/2),
			Work:     math.Ldexp(1+float64(work)/32, e),
		}
		switch {
		case value == 0:
		case value == 255:
			j.Value = math.Inf(1)
		default:
			sp := j.Deadline - j.Release
			j.Value = sp * pm.Power(j.Work/sp) * math.Exp2(float64(int(value)-128)/16)
		}
		in.Jobs = append(in.Jobs, j)
	}
	return in
}

// FuzzPDSessionMatchesScheduler fuzzes the differential: Session must
// agree with the reference Scheduler on every error, every Decision,
// the Schedule's JSON bytes, the DualValue bits and the snapshot state.
func FuzzPDSessionMatchesScheduler(f *testing.F) {
	f.Add([]byte{1, 96, 128, 0, 0, 0, 128, 100, 48, 1, 64, 8, 10, 128, 100, 48, 2, 70, 40, 20, 90, 60, 48, 3})
	f.Add([]byte{3, 64, 130, 4, 0, 200, 200, 255, 48, 9, 0, 10, 10, 255, 48, 8, 0, 30, 30, 255, 48, 7, 150, 5, 5, 255, 48, 6})
	f.Add([]byte{0, 200, 128, 0, 190, 3, 3, 128, 90, 1, 65, 30, 10, 1, 10, 2, 255, 250, 250, 128, 252, 3, 64, 0, 0, 0, 0, 4})
	f.Add([]byte{2, 20, 0, 47, 12, 80, 60, 140, 48, 11, 12, 80, 60, 140, 48, 12, 12, 80, 60, 140, 48, 13, 130, 1, 99, 120, 40, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		matchScheduler(t, fuzzInstance(data), 5)
	})
}

// TestFailedArrivalLeavesNoTrace: an arrival whose water level is not
// found (job 1: its rejection speed overflows to +Inf, and doubling
// from its density never clears job 0's load) leaves no decision, no
// rejection and no job behind, in both twins, and the run goes on.
// Only the cuts its window made stay. In "split", the cut at job 1's
// deadline splits an interval the certificate sums over, and the
// reference's DualValue matches Session's bits only because it sums
// over that cut too.
func TestFailedArrivalLeavesNoTrace(t *testing.T) {
	inf := math.Inf(1)
	for name, jobs := range map[string][]job.Job{
		"refused": {
			{ID: 0, Release: 0, Deadline: 1, Work: 1e10, Value: inf},
			{ID: 1, Release: 0, Deadline: 1, Work: 1e-300, Value: 1},
			{ID: 2, Release: 0.5, Deadline: 2, Work: 1, Value: 10},
		},
		"split": {
			{ID: 0, Release: 0, Deadline: 1.2015302552943223, Work: 1e10, Value: inf},
			{ID: 1, Release: 0.3001806927150068, Deadline: 1.0978662433227877, Work: 1e-300, Value: 1},
			{ID: 2, Release: 1.4531192399487176, Deadline: 2.896172340870393, Work: 0.7238293851194695, Value: 9.631394012024705},
			{ID: 3, Release: 1.5437799524613578, Deadline: 3.704113421825201, Work: 1, Value: inf},
		},
	} {
		in := &job.Instance{M: 1, Alpha: 1.05, Jobs: jobs}
		t.Run(name, func(t *testing.T) {
			matchScheduler(t, in, 1)
			pm := power.Model{Alpha: in.Alpha}
			ref, ses := New(1, pm), NewSession(1, pm)
			for _, j := range in.Jobs {
				_, rerr := ref.Arrive(j)
				_, serr := ses.Arrive(j)
				if (rerr != nil) != (j.ID == 1) || (serr != nil) != (j.ID == 1) {
					t.Fatalf("job %d: reference %v, session %v; want only job 1 refused", j.ID, rerr, serr)
				}
			}
			for name, s := range map[string][]int{"reference": ref.Schedule().Rejected, "session": ses.Schedule().Rejected} {
				if len(s) != 0 {
					t.Errorf("%s rejects %v, want none", name, s)
				}
			}
		})
	}
}
