// Package core implements PD, the paper's online greedy primal-dual
// algorithm for profitable scheduling on multiple speed-scalable
// processors (Listing 1), together with its dual certificate.
//
// On every job arrival, PD raises the job's load variables x_jk on the
// atomic intervals with currently minimal marginal cost
// λ_jk = δ·∂P_k/∂x_jk, keeping all raised marginals equal, until either
// the whole job is placed (accept: y_j = 1, λ_j = current marginal) or
// the marginal reaches the job's value (reject: assignment reset,
// λ_j = v_j). The schedule actually executed applies Chen et al.'s
// per-interval algorithm to the accumulated work assignment.
//
// Because λ_jk = δ·α·w_j·s_jk^{α-1} has the same w_j on every interval,
// "all marginals equal" is the same as "job j runs at one common speed
// s across the intervals it uses". The continuous raising process of
// Listing 1 therefore has a closed form: for a water level s, interval
// T_k absorbs exactly chen.WorkAtSpeed(l_k, others, s) units of j's
// work, a continuous nondecreasing function of s. One scalar bisection
// on s replaces the infinitesimal loop exactly (up to float tolerance),
// so no discretization parameter exists anywhere in the implementation.
//
// Theorem 3: with δ = α^{1-α}, cost(PD) ≤ α^α·g(λ̃), and g(λ̃) ≤ OPT by
// weak duality. Both quantities are first-class outputs here, making
// the competitive-ratio claim machine-checkable per instance.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/chen"
	"repro/internal/dual"
	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/sched"
)

// Decision records what PD did with one arrival.
type Decision struct {
	JobID    int
	Accepted bool
	// Lambda is the final dual multiplier λ̃_j: the marginal cost per
	// unit of x_j at acceptance time, or v_j on rejection.
	Lambda float64
	// Speed is the common planned speed s̃_j the job was (or would have
	// been) assigned across its used intervals.
	Speed float64
}

// Scheduler is the online PD algorithm. Create one with New, feed
// arrivals in release-time order via Arrive, and extract the executed
// schedule with Schedule. The zero value is not usable.
type Scheduler struct {
	sys   chen.System
	delta float64

	part      *interval.Partition
	jobs      []job.Job
	decisions map[int]Decision
	// cuts stands in for each arrival whose water level was not found:
	// the job itself leaves no trace, but the partition keeps the cuts
	// its window made, so the certificate sums over those intervals too.
	// A stand-in has the job's window, infinite work and no value, so
	// it adds nothing to g(λ̃) but its boundaries.
	cuts []job.Job
}

// Option customises a Scheduler.
type Option func(*Scheduler)

// WithDelta overrides PD's parameter δ. The default δ = α^{1-α} is the
// optimal choice proved in Section 4; other values are exposed for the
// ablation experiment T5.
func WithDelta(delta float64) Option {
	return func(s *Scheduler) {
		if delta > 0 {
			s.delta = delta
		}
	}
}

// New returns a PD scheduler for m processors under the power model.
func New(m int, pm power.Model, opts ...Option) *Scheduler {
	s := &Scheduler{
		sys:       chen.System{M: m, Power: pm},
		delta:     pm.DefaultDelta(),
		part:      &interval.Partition{},
		decisions: make(map[int]Decision),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Delta returns the δ parameter in use.
func (s *Scheduler) Delta() float64 { return s.delta }

// ObserveWindow refines the atomic-interval partition at t0 and t1
// without scheduling anything. PD's output is invariant under such
// refinements — the "Concerning the Time Partitioning" argument of
// Section 3: an algorithm that knows future boundaries a priori
// produces the identical schedule, because loads split proportionally
// and every per-interval quantity PD uses is homogeneous in interval
// length. Exposed so callers with partial foresight (e.g. known shift
// boundaries) can pre-partition, and so the invariance is testable.
func (s *Scheduler) ObserveWindow(t0, t1 float64) error {
	return s.part.Observe(t0, t1)
}

// othersOf collects the current work assignment of interval k as chen
// items (every job with positive load; the arriving job has none yet).
// Items are sorted by ID: map iteration order would otherwise leak into
// float summation order (capacity, energy, Chen's partition) and make
// replays differ in the last ulp from run to run.
func othersOf(iv *interval.Interval) []chen.Item {
	items := make([]chen.Item, 0, len(iv.Load))
	for id, w := range iv.Load {
		if w > 0 {
			items = append(items, chen.Item{ID: id, Work: w})
		}
	}
	sort.Slice(items, func(i, k int) bool { return items[i].ID < items[k].ID })
	return items
}

// Arrive processes the online arrival of job j and returns PD's
// decision. Jobs must be fed in nondecreasing release order; attributes
// are validated.
func (s *Scheduler) Arrive(j job.Job) (Decision, error) {
	if err := j.Validate(); err != nil {
		return Decision{}, err
	}
	if _, dup := s.decisions[j.ID]; dup {
		return Decision{}, fmt.Errorf("core: duplicate job ID %d", j.ID)
	}
	if err := s.part.Observe(j.Release, j.Deadline); err != nil {
		return Decision{}, err
	}

	ks := s.part.Covering(j.Release, j.Deadline)
	others := make([][]chen.Item, len(ks))
	lens := make([]float64, len(ks))
	for i, k := range ks {
		iv := s.part.At(k)
		others[i] = othersOf(iv)
		lens[i] = iv.Len()
	}

	// Total work job j can absorb at water level (common speed) sp.
	capacity := func(sp float64) float64 {
		var acc numeric.Accumulator
		for i := range ks {
			acc.Add(s.sys.WorkAtSpeed(lens[i], others[i], sp))
		}
		return acc.Value()
	}

	// Rejection threshold: the speed at which λ_jk = δ·α·w_j·s^{α-1}
	// reaches v_j (line 12 of Listing 1).
	sRej := s.sys.Power.RejectionSpeed(s.delta, j.Work, j.Value)
	dec := Decision{JobID: j.ID}
	if capacity(sRej) < j.Work {
		// The marginal hits v_j before the job is fully placed:
		// reject, reset x_j· to zero (we never wrote it), λ_j = v_j.
		dec.Accepted = false
		dec.Lambda = j.Value
		dec.Speed = sRej
		s.jobs = append(s.jobs, j)
		s.decisions[j.ID] = dec
		return dec, nil
	}

	// The water level solving Σ_k z_k(s) = w_j. sRej may be +Inf (jobs
	// that must be finished), so bracket growth starts from the job's
	// density rather than bisecting [0, sRej] directly.
	sp, err := numeric.SolveIncreasing(capacity, j.Density(), j.Work, numeric.DefaultTol)
	if err != nil {
		s.cuts = append(s.cuts, job.Job{ID: j.ID, Release: j.Release, Deadline: j.Deadline, Work: math.Inf(1)})
		return Decision{}, fmt.Errorf("core: job %d: water level not found: %w", j.ID, err)
	}
	s.distribute(j, ks, others, lens, sp)
	dec.Accepted = true
	dec.Speed = sp
	dec.Lambda = s.delta * j.Work * s.sys.Power.Marginal(sp)
	s.jobs = append(s.jobs, j)
	s.decisions[j.ID] = dec
	return dec, nil
}

// distribute writes job j's accepted assignment at water level sp into
// the partition. Bisection leaves the total a hair away from w_j, so
// the per-interval amounts are rescaled to sum to w_j exactly.
func (s *Scheduler) distribute(j job.Job, ks []int, others [][]chen.Item, lens []float64, sp float64) {
	zs := make([]float64, len(ks))
	var total float64
	for i := range ks {
		zs[i] = s.sys.WorkAtSpeed(lens[i], others[i], sp)
		total += zs[i]
	}
	if total <= 0 {
		// Degenerate: w_j ≈ 0 was accepted at water level ~0. Place
		// everything in the job's first interval.
		zs[0], total = j.Work, j.Work
	}
	scale := j.Work / total
	for i, k := range ks {
		if zs[i] <= 0 {
			continue
		}
		s.part.At(k).Load[j.ID] += zs[i] * scale
	}

}

// IntervalState is a read-only snapshot of one atomic interval's
// current work assignment.
type IntervalState struct {
	T0, T1 float64
	// Load maps job ID to the workload assigned to this interval.
	Load map[int]float64
	// Speeds maps job ID to the execution speed Chen et al.'s
	// algorithm uses for it here.
	Speeds map[int]float64
	// Energy is P_k of the current assignment.
	Energy float64
}

// Snapshot returns the current per-interval state of the scheduler —
// the primal variables of the convex program, materialised. Useful for
// visualisation, debugging and the introspection CLI; the returned data
// is a deep copy.
func (s *Scheduler) Snapshot() []IntervalState {
	out := make([]IntervalState, 0, s.part.Len())
	for _, iv := range s.part.All() {
		st := IntervalState{
			T0: iv.T0, T1: iv.T1,
			Load:   make(map[int]float64, len(iv.Load)),
			Speeds: make(map[int]float64, len(iv.Load)),
		}
		items := othersOf(iv)
		p := s.sys.Partition(iv.Len(), items)
		for id, w := range iv.Load {
			if w <= 0 {
				continue
			}
			st.Load[id] = w
			st.Speeds[id] = p.SpeedOf(id)
		}
		if len(items) > 0 {
			st.Energy = s.sys.Energy(iv.Len(), items)
		}
		out = append(out, st)
	}
	return out
}

// Lambdas returns the dual multipliers λ̃ accumulated so far, keyed by
// job ID.
func (s *Scheduler) Lambdas() map[int]float64 {
	out := make(map[int]float64, len(s.decisions))
	for id, d := range s.decisions {
		out[id] = d.Lambda
	}
	return out
}

// Rejected lists the IDs of rejected jobs in arrival order.
func (s *Scheduler) Rejected() []int {
	var out []int
	for _, j := range s.jobs {
		if !s.decisions[j.ID].Accepted {
			out = append(out, j.ID)
		}
	}
	return out
}

// Schedule materialises the executed schedule: Chen et al.'s algorithm
// applied per atomic interval to the final work assignment.
func (s *Scheduler) Schedule() *sched.Schedule {
	out := &sched.Schedule{M: s.sys.M, Rejected: s.Rejected()}
	for _, iv := range s.part.All() {
		items := othersOf(iv)
		if len(items) == 0 {
			continue
		}
		out.Segments = append(out.Segments, s.sys.Timeline(iv.T0, iv.T1, items)...)
	}
	return out
}

// Energy returns the total energy of the current work assignment,
// evaluated through P_k per interval (identical to the schedule's
// metered energy, cheaper to compute).
func (s *Scheduler) Energy() float64 {
	var acc numeric.Accumulator
	for _, iv := range s.part.All() {
		items := othersOf(iv)
		if len(items) == 0 {
			continue
		}
		acc.Add(s.sys.Energy(iv.Len(), items))
	}
	return acc.Value()
}

// LostValue returns Σ v_j over rejected jobs.
func (s *Scheduler) LostValue() float64 {
	var acc numeric.Accumulator
	for _, j := range s.jobs {
		if !s.decisions[j.ID].Accepted {
			acc.Add(j.Value)
		}
	}
	return acc.Value()
}

// Cost returns energy plus lost value (Eq. 1).
func (s *Scheduler) Cost() float64 { return s.Energy() + s.LostValue() }

// DualValue evaluates the certificate g(λ̃) for the jobs seen so far
// (Lemma 6). By weak duality it lower-bounds the cost of every
// schedule for those jobs, so Cost()/DualValue() is a certified upper
// bound on PD's competitive ratio on this instance.
func (s *Scheduler) DualValue() float64 {
	return dual.Value(s.sys.Power, s.sys.M, append(slices.Clip(s.jobs), s.cuts...), s.Lambdas())
}

// Result bundles a complete offline-style run of PD over an instance.
type Result struct {
	Schedule  *sched.Schedule
	Decisions []Decision // in arrival order
	Energy    float64
	LostValue float64
	Cost      float64
	// Dual is g(λ̃) ≤ OPT; Cost/Dual certifies the competitive ratio.
	Dual float64
}

// CertifiedRatio returns Cost/Dual, an instance-specific upper bound on
// the competitive ratio (infinite when the dual value is zero, which
// only happens for empty instances).
func (r *Result) CertifiedRatio() float64 {
	if r.Dual <= 0 {
		if r.Cost <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return r.Cost / r.Dual
}

// Run replays an entire instance through PD in release order and
// gathers the outputs.
func Run(in *job.Instance, opts ...Option) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	inst := in.Clone()
	inst.Normalize()
	pm := power.Model{Alpha: inst.Alpha}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	s := New(inst.M, pm, opts...)
	res := &Result{}
	for _, j := range inst.Jobs {
		d, err := s.Arrive(j)
		if err != nil {
			return nil, err
		}
		res.Decisions = append(res.Decisions, d)
	}
	res.Schedule = s.Schedule()
	res.Energy = s.Energy()
	res.LostValue = s.LostValue()
	res.Cost = res.Energy + res.LostValue
	res.Dual = s.DualValue()
	return res, nil
}
