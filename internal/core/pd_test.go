package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/numeric"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/sched"
)

// randInstance generates a value-calibrated random instance: job values
// are lognormal multiples of the energy the job would cost running
// alone, so accept/reject decisions are genuinely contested.
func randInstance(rng *rand.Rand, n, m int, alpha float64) *job.Instance {
	in := &job.Instance{M: m, Alpha: alpha}
	pm := power.Model{Alpha: alpha}
	for i := 0; i < n; i++ {
		r := rng.Float64() * 10
		span := 0.2 + rng.Float64()*3
		w := 0.1 + rng.Float64()*2
		solo := span * pm.Power(w/span)
		v := solo * math.Exp(rng.NormFloat64())
		in.Jobs = append(in.Jobs, job.Job{
			ID: i, Release: r, Deadline: r + span, Work: w, Value: v,
		})
	}
	in.Normalize()
	return in
}

func TestSingleJobRunsAtDensity(t *testing.T) {
	in := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 2, Work: 3, Value: 1e9},
	}}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Decisions[0]
	if !d.Accepted {
		t.Fatal("high-value job rejected")
	}
	if math.Abs(d.Speed-1.5) > 1e-9 {
		t.Fatalf("planned speed %v want density 1.5", d.Speed)
	}
	// Energy = l·s^α = 2·1.5^2 = 4.5.
	if math.Abs(res.Energy-4.5) > 1e-9 {
		t.Fatalf("energy %v want 4.5", res.Energy)
	}
	if err := sched.Verify(in, res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestLowValueJobRejected(t *testing.T) {
	in := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 1, Work: 10, Value: 1e-6},
	}}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[0].Accepted {
		t.Fatal("hopeless job accepted")
	}
	if res.Decisions[0].Lambda != 1e-6 {
		t.Fatalf("rejected job must have λ = v, got %v", res.Decisions[0].Lambda)
	}
	if res.Cost != 1e-6 || res.Energy != 0 {
		t.Fatalf("cost %v energy %v; want pure value loss", res.Cost, res.Energy)
	}
	if len(res.Schedule.Rejected) != 1 {
		t.Fatal("rejection not recorded in schedule")
	}
}

func TestZeroValueJobRejectedImmediately(t *testing.T) {
	in := &job.Instance{M: 2, Alpha: 3, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 1, Work: 1, Value: 0},
	}}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[0].Accepted || res.Cost != 0 {
		t.Fatalf("zero-value job must be rejected at zero cost: %+v", res.Decisions[0])
	}
}

func TestTwoIdenticalJobsTwoProcessors(t *testing.T) {
	in := &job.Instance{M: 2, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 1, Work: 1, Value: 100},
		{ID: 1, Release: 0, Deadline: 1, Work: 1, Value: 100},
	}}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	// Each job on its own processor at speed 1: energy 2.
	if math.Abs(res.Energy-2) > 1e-9 {
		t.Fatalf("energy %v want 2", res.Energy)
	}
	if err := sched.Verify(in, res.Schedule); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem3Certificate is the machine-checked form of the paper's
// main theorem: on every instance, cost(PD) ≤ α^α · g(λ̃).
func TestTheorem3Certificate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		alpha := []float64{1.5, 2, 2.5, 3}[trial%4]
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(25)
		in := randInstance(rng, n, m, alpha)
		res, err := Run(in)
		if err != nil {
			t.Fatal(err)
		}
		bound := math.Pow(alpha, alpha)
		if res.Dual <= 0 {
			t.Fatalf("trial %d: nonpositive dual %v with cost %v", trial, res.Dual, res.Cost)
		}
		if !numeric.LessEqual(res.Cost, bound*res.Dual, 1e-6) {
			t.Fatalf("trial %d (α=%v m=%d n=%d): Theorem 3 violated: cost %v > %v·dual %v (ratio %v)",
				trial, alpha, m, n, res.Cost, bound, res.Dual, res.Cost/res.Dual)
		}
		if err := sched.Verify(in, res.Schedule); err != nil {
			t.Fatalf("trial %d: infeasible schedule: %v", trial, err)
		}
		// Internal consistency: assignment-based energy equals the
		// metered energy of the emitted timeline.
		pm := power.Model{Alpha: alpha}
		if !numeric.Close(res.Energy, res.Schedule.Energy(pm), 1e-8) {
			t.Fatalf("trial %d: energy mismatch: %v vs %v", trial, res.Energy, res.Schedule.Energy(pm))
		}
	}
}

// TestDualIsLowerBoundOnOPT cross-checks weak duality against the exact
// integral optimum on small instances: g(λ̃) ≤ cost(OPT) ≤ cost(PD).
func TestDualIsLowerBoundOnOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		alpha := []float64{2, 3}[trial%2]
		m := 1 + rng.Intn(2)
		n := 1 + rng.Intn(6)
		in := randInstance(rng, n, m, alpha)
		res, err := Run(in)
		if err != nil {
			t.Fatal(err)
		}
		best, err := opt.Integral(in)
		if err != nil {
			t.Fatal(err)
		}
		if !numeric.LessEqual(res.Dual, best.Cost, 1e-6) {
			t.Fatalf("trial %d: weak duality violated: g=%v > OPT=%v", trial, res.Dual, best.Cost)
		}
		if !numeric.LessEqual(best.Cost, res.Cost, 1e-6) {
			t.Fatalf("trial %d: OPT=%v above PD cost=%v", trial, best.Cost, res.Cost)
		}
	}
}

// TestFigure3Example reproduces the structural difference of Figure 3:
// PD keeps the last atomic interval slow (conservative), OA would
// rebalance the earlier job into it. Jobs: j1 = [0,2), w=1 released at
// 0; j2 = [0.5,1), w=1 released at 0.5; α=2. PD never moves j1's
// assignment, so [1,2) stays at speed 0.5 while [0.5,1) spikes to 2.5.
// OA's replanning would instead run [1,2) at 0.75.
func TestFigure3Example(t *testing.T) {
	in := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 2, Work: 1, Value: 1e9},
		{ID: 1, Release: 0.5, Deadline: 1, Work: 1, Value: 1e9},
	}}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	if got := s.TotalSpeedAt(0.25); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("speed in [0,0.5): %v want 0.5", got)
	}
	if got := s.TotalSpeedAt(0.75); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("speed in [0.5,1): %v want 2.5", got)
	}
	if got := s.TotalSpeedAt(1.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("speed in [1,2): %v want 0.5 (PD must not rebalance job 0)", got)
	}
	if math.Abs(res.Energy-3.5) > 1e-9 {
		t.Fatalf("energy %v want 3.5", res.Energy)
	}
}

// TestRejectionPolicyMatchesCLLThreshold verifies the Section 3 claim:
// with δ = α^{1-α}, PD's rejection speed equals the Chan-Lam-Li
// threshold α^{(α-2)/(α-1)}·(v/w)^{1/(α-1)}.
func TestRejectionPolicyMatchesCLLThreshold(t *testing.T) {
	err := quick.Check(func(aRaw, wRaw, vRaw float64) bool {
		alpha := 1.2 + math.Mod(math.Abs(aRaw), 3)
		w := 0.01 + math.Mod(math.Abs(wRaw), 50)
		v := 0.01 + math.Mod(math.Abs(vRaw), 50)
		pm := power.Model{Alpha: alpha}
		pdSpeed := pm.RejectionSpeed(pm.DefaultDelta(), w, v)
		cll := math.Pow(alpha, (alpha-2)/(alpha-1)) * math.Pow(v/w, 1/(alpha-1))
		return math.Abs(pdSpeed-cll) <= 1e-9*(1+cll)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBehaviouralRejectionEquivalence: a solitary job is rejected by PD
// exactly when its density exceeds the threshold speed.
func TestBehaviouralRejectionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		alpha := 1.5 + 2*rng.Float64()
		pm := power.Model{Alpha: alpha}
		w := 0.1 + rng.Float64()*5
		span := 0.2 + rng.Float64()*4
		v := rng.Float64() * 10
		in := &job.Instance{M: 1, Alpha: alpha, Jobs: []job.Job{
			{ID: 0, Release: 0, Deadline: span, Work: w, Value: v},
		}}
		res, err := Run(in)
		if err != nil {
			t.Fatal(err)
		}
		density := w / span
		threshold := pm.RejectionSpeed(pm.DefaultDelta(), w, v)
		wantAccept := density <= threshold*(1+1e-9)
		if res.Decisions[0].Accepted != wantAccept {
			if math.Abs(density-threshold) < 1e-6*threshold {
				continue // knife-edge tie; either decision is fine
			}
			t.Fatalf("trial %d: density %v threshold %v accepted=%v",
				trial, density, threshold, res.Decisions[0].Accepted)
		}
	}
}

func TestLaterJobDoesNotMoveEarlierAssignment(t *testing.T) {
	// PD never redistributes previously assigned work (unlike OA).
	// After j1 spreads over [0,2), j2's arrival must not change j1's
	// per-interval load, only refine it.
	s := New(1, power.New(2))
	if _, err := s.Arrive(job.Job{ID: 0, Release: 0, Deadline: 2, Work: 1, Value: 1e9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Arrive(job.Job{ID: 1, Release: 0, Deadline: 1, Work: 1, Value: 1e9}); err != nil {
		t.Fatal(err)
	}
	var j0FirstHalf, j0SecondHalf float64
	for _, iv := range s.part.All() {
		if iv.T1 <= 1 {
			j0FirstHalf += iv.Load[0]
		} else {
			j0SecondHalf += iv.Load[0]
		}
	}
	if math.Abs(j0FirstHalf-0.5) > 1e-9 || math.Abs(j0SecondHalf-0.5) > 1e-9 {
		t.Fatalf("job 0 was redistributed: first %v second %v", j0FirstHalf, j0SecondHalf)
	}
}

// TestRefinementInvariance validates the paper's Section 3 claim: an
// algorithm knowing the final time partitioning a priori computes the
// identical schedule. We pre-observe all windows (plus extra spurious
// boundaries) and compare decisions and cost against the standard run.
func TestRefinementInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 30; trial++ {
		in := randInstance(rng, 1+rng.Intn(12), 1+rng.Intn(3), 2.3)
		pm := power.New(in.Alpha)

		plain := New(in.M, pm)
		primed := New(in.M, pm)
		// Prime with every job window and some arbitrary extra cuts.
		for _, j := range in.Jobs {
			if err := primed.ObserveWindow(j.Release, j.Deadline); err != nil {
				t.Fatal(err)
			}
			mid := 0.5 * (j.Release + j.Deadline)
			if err := primed.ObserveWindow(j.Release, mid); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range in.Jobs {
			d1, err := plain.Arrive(j)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := primed.Arrive(j)
			if err != nil {
				t.Fatal(err)
			}
			if d1.Accepted != d2.Accepted {
				t.Fatalf("trial %d job %d: decisions diverge under refinement", trial, j.ID)
			}
			if math.Abs(d1.Lambda-d2.Lambda) > 1e-6*(1+d1.Lambda) {
				t.Fatalf("trial %d job %d: λ diverges: %v vs %v", trial, j.ID, d1.Lambda, d2.Lambda)
			}
		}
		if !numeric.Close(plain.Cost(), primed.Cost(), 1e-6) {
			t.Fatalf("trial %d: cost diverges: %v vs %v", trial, plain.Cost(), primed.Cost())
		}
	}
}

// TestExtremeMagnitudes exercises numeric robustness: very small and
// very large workloads, windows and values in one instance.
func TestExtremeMagnitudes(t *testing.T) {
	in := &job.Instance{M: 2, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 1e-6, Work: 1e-7, Value: 1e9},
		{ID: 1, Release: 0, Deadline: 1e6, Work: 1e5, Value: 1e12},
		{ID: 2, Release: 100, Deadline: 100.001, Work: 50, Value: 1e-9},
		{ID: 3, Release: 0.5, Deadline: 2, Work: 1e-12, Value: 1},
	}}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Verify(in, res.Schedule); err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.JobID == 2 && d.Accepted {
			t.Fatal("job 2 (absurd density, negligible value) must be rejected")
		}
	}
	bound := 4 * res.Dual
	if !numeric.LessEqual(res.Cost, bound, 1e-6) {
		t.Fatalf("certificate violated at extreme magnitudes: %v > %v", res.Cost, bound)
	}
}

// TestManySimultaneousJobs floods m processors with identical jobs
// arriving at once; PD must spread them evenly.
func TestManySimultaneousJobs(t *testing.T) {
	const m, n = 4, 32
	in := &job.Instance{M: m, Alpha: 2}
	for i := 0; i < n; i++ {
		in.Jobs = append(in.Jobs, job.Job{
			ID: i, Release: 0, Deadline: 1, Work: 0.25, Value: 1e9,
		})
	}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	// Total work 8 over 4 processors in 1 time unit: balanced speed 2,
	// energy 4·2² = 16.
	if math.Abs(res.Energy-16) > 1e-6 {
		t.Fatalf("energy %v want 16 (balanced)", res.Energy)
	}
	if err := sched.Verify(in, res.Schedule); err != nil {
		t.Fatal(err)
	}
}

// TestAlphaNearOne checks stability as α → 1⁺ (where exponents like
// 1/(α-1) blow up).
func TestAlphaNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randInstance(rng, 10, 2, 1.05)
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) {
		t.Fatalf("cost not finite: %v", res.Cost)
	}
	if err := sched.Verify(in, res.Schedule); err != nil {
		t.Fatal(err)
	}
	bound := math.Pow(1.05, 1.05)
	if !numeric.LessEqual(res.Cost, bound*res.Dual, 1e-5) {
		t.Fatalf("certificate violated near α=1: cost %v dual %v", res.Cost, res.Dual)
	}
}

// TestQuickRandomInstances drives PD through testing/quick-generated
// instances, asserting the full invariant set on each.
func TestQuickRandomInstances(t *testing.T) {
	check := func(seed int64, nRaw, mRaw uint8, aRaw float64) bool {
		n := int(nRaw%20) + 1
		m := int(mRaw%5) + 1
		alpha := 1.2 + math.Mod(math.Abs(aRaw), 2.5)
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, n, m, alpha)
		res, err := Run(in)
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}
		if err := sched.Verify(in, res.Schedule); err != nil {
			t.Logf("verify error: %v", err)
			return false
		}
		bound := math.Pow(alpha, alpha)
		if !numeric.LessEqual(res.Cost, bound*res.Dual, 1e-6) {
			t.Logf("certificate: cost %v > %v", res.Cost, bound*res.Dual)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotReflectsAssignment(t *testing.T) {
	s := New(1, power.New(2))
	if _, err := s.Arrive(job.Job{ID: 0, Release: 0, Deadline: 2, Work: 1, Value: 1e9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Arrive(job.Job{ID: 1, Release: 0.5, Deadline: 1, Work: 1, Value: 1e9}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("want 3 intervals, got %d", len(snap))
	}
	// [0.5,1): job 0 carries 0.25, job 1 carries 1, both pooled at 2.5.
	mid := snap[1]
	if mid.T0 != 0.5 || mid.T1 != 1 {
		t.Fatalf("interval bounds %v-%v", mid.T0, mid.T1)
	}
	if math.Abs(mid.Load[0]-0.25) > 1e-9 || math.Abs(mid.Load[1]-1) > 1e-9 {
		t.Fatalf("loads %v", mid.Load)
	}
	if math.Abs(mid.Speeds[0]-2.5) > 1e-9 || math.Abs(mid.Speeds[1]-2.5) > 1e-9 {
		t.Fatalf("speeds %v", mid.Speeds)
	}
	if math.Abs(mid.Energy-0.5*2.5*2.5) > 1e-9 {
		t.Fatalf("interval energy %v", mid.Energy)
	}
	// Sum of interval energies equals total energy.
	var sum float64
	for _, st := range snap {
		sum += st.Energy
	}
	if !numeric.Close(sum, s.Energy(), 1e-12) {
		t.Fatalf("snapshot energy %v vs scheduler %v", sum, s.Energy())
	}
	// The snapshot is a copy: mutating it must not affect the scheduler.
	before := s.Energy()
	mid.Load[0] = 999
	if s.Energy() != before {
		t.Fatal("snapshot aliases internal state")
	}
}

func TestArriveValidation(t *testing.T) {
	s := New(1, power.New(2))
	if _, err := s.Arrive(job.Job{ID: 0, Release: 0, Deadline: 0, Work: 1, Value: 1}); err == nil {
		t.Fatal("invalid job accepted")
	}
	if _, err := s.Arrive(job.Job{ID: 0, Release: 0, Deadline: 1, Work: 1, Value: 1e9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Arrive(job.Job{ID: 0, Release: 0, Deadline: 1, Work: 1, Value: 1}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestWithDeltaOption(t *testing.T) {
	pm := power.New(2)
	s := New(1, pm, WithDelta(0.25))
	if s.Delta() != 0.25 {
		t.Fatalf("delta %v want 0.25", s.Delta())
	}
	// Nonpositive δ is ignored, keeping the default.
	s = New(1, pm, WithDelta(-1))
	if s.Delta() != pm.DefaultDelta() {
		t.Fatalf("delta %v want default %v", s.Delta(), pm.DefaultDelta())
	}
}

func TestRunRejectsInvalidInstance(t *testing.T) {
	if _, err := Run(&job.Instance{M: 0, Alpha: 2}); err == nil {
		t.Fatal("invalid instance accepted")
	}
	if _, err := Run(&job.Instance{M: 1, Alpha: 1}); err == nil {
		t.Fatal("alpha=1 accepted")
	}
}

func TestEmptyInstance(t *testing.T) {
	res, err := Run(&job.Instance{M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || res.CertifiedRatio() != 1 {
		t.Fatalf("empty instance: cost %v ratio %v", res.Cost, res.CertifiedRatio())
	}
}

// TestAcceptedJobsComplete: the emitted schedule processes exactly w_j
// for every accepted job (quick-check over random instances).
func TestAcceptedJobsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 1+rng.Intn(15), 1+rng.Intn(3), 2.2)
		res, err := Run(in)
		if err != nil {
			t.Fatal(err)
		}
		done := make(map[int]float64)
		for _, seg := range res.Schedule.Segments {
			done[seg.Job] += seg.Work()
		}
		for i, d := range res.Decisions {
			j := in.Jobs[i]
			if d.Accepted {
				if math.Abs(done[j.ID]-j.Work) > 1e-7*(1+j.Work) {
					t.Fatalf("accepted job %d processed %v of %v", j.ID, done[j.ID], j.Work)
				}
			} else if done[j.ID] != 0 {
				t.Fatalf("rejected job %d has %v work", j.ID, done[j.ID])
			}
		}
	}
}

// TestMonotoneDeltaCost sanity-checks the ablation axis: extreme δ
// values must still produce feasible schedules with valid certificates
// relative to their own bound (the certificate only holds for
// δ ≤ α^{1-α}; larger δ void the guarantee but must not crash).
func TestDeltaExtremesStillFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	in := randInstance(rng, 12, 2, 2)
	for _, mult := range []float64{0.1, 0.5, 1, 2, 10} {
		pm := power.New(2)
		res, err := Run(in, WithDelta(mult*pm.DefaultDelta()))
		if err != nil {
			t.Fatalf("delta×%v: %v", mult, err)
		}
		if err := sched.Verify(in, res.Schedule); err != nil {
			t.Fatalf("delta×%v: %v", mult, err)
		}
	}
}
