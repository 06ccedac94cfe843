// Package opt provides offline reference solvers for the paper's
// scheduling problem. They serve as the "OPT" side of every
// competitive-ratio experiment:
//
//   - SolveAccepted: for a fixed set of accepted jobs, the energy-minimal
//     multiprocessor schedule that finishes all of them (the
//     multiprocessor analogue of YDS; cf. Albers, Antoniadis & Greiner).
//     It solves the convex program (CP) with all y_j forced to 1 by
//     block coordinate descent, where each block step is the same
//     exact water-filling primitive PD uses online.
//   - Integral: the true optimum of (IMP) for small n, by enumerating
//     accept-sets and calling SolveAccepted on each.
//   - Both report a KKT-derived dual lower bound via dual.Value, so
//     every result carries a certified optimality gap.
package opt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/chen"
	"repro/internal/dual"
	"repro/internal/interval"
	"repro/internal/job"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/sched"
)

// Solution is the result of an offline solve.
type Solution struct {
	// Energy of the computed schedule (for Integral: of the best
	// accept-set's schedule).
	Energy float64
	// Cost is Energy plus the value of jobs outside the accept-set.
	Cost float64
	// LowerBound is a certified lower bound on the optimal cost via
	// the dual function; Cost - LowerBound bounds the optimality gap.
	LowerBound float64
	// Accepted[id] reports whether job id is finished.
	Accepted map[int]bool
	// Schedule is the explicit realisation.
	Schedule *sched.Schedule
	// Sweeps is the number of coordinate-descent passes used.
	Sweeps int
}

// solver carries the BCD state for one accept-set.
type solver struct {
	sys  chen.System
	part *interval.Partition
	jobs []job.Job       // accepted jobs only
	ks   map[int][]int   // job ID -> covering interval indices
	spd  map[int]float64 // job ID -> current water level speed
}

// maxSweeps bounds coordinate descent; convergence is checked by
// energy decrease per sweep.
const maxSweeps = 400

// convergeTol is the relative per-sweep energy-decrease threshold at
// which BCD stops.
const convergeTol = 1e-12

// SolveAccepted computes the minimum-energy schedule finishing exactly
// the jobs of in with accept[id] == true (all jobs when accept is nil),
// ignoring the values of rejected jobs. Releases and deadlines of
// accepted jobs induce the atomic intervals.
func SolveAccepted(in *job.Instance, accept map[int]bool) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	pm := power.Model{Alpha: in.Alpha}
	s := &solver{
		sys: chen.System{M: in.M, Power: pm},
		ks:  map[int][]int{},
		spd: map[int]float64{},
	}
	var rejectedValue float64
	var rejected []int
	for _, j := range in.Jobs {
		if accept == nil || accept[j.ID] {
			s.jobs = append(s.jobs, j)
		} else {
			rejectedValue += j.Value
			rejected = append(rejected, j.ID)
		}
	}

	sol := &Solution{Accepted: map[int]bool{}}
	for _, j := range s.jobs {
		sol.Accepted[j.ID] = true
	}
	if len(s.jobs) == 0 {
		sol.Cost = rejectedValue
		sol.LowerBound = lowerBoundAll(pm, in, nil)
		sol.Schedule = &sched.Schedule{M: in.M, Rejected: rejected}
		return sol, nil
	}

	windows := make([][2]float64, len(s.jobs))
	for i, j := range s.jobs {
		windows[i] = [2]float64{j.Release, j.Deadline}
	}
	part, err := interval.FromBoundaries(interval.BoundariesOf(windows))
	if err != nil {
		return nil, err
	}
	s.part = part
	for _, j := range s.jobs {
		s.ks[j.ID] = part.Covering(j.Release, j.Deadline)
		if len(s.ks[j.ID]) == 0 {
			return nil, fmt.Errorf("opt: job %d has no covering interval", j.ID)
		}
		// Initial assignment: spread uniformly over the window.
		for _, k := range s.ks[j.ID] {
			iv := part.At(k)
			part.At(k).Load[j.ID] = j.Work * iv.Len() / j.Span()
		}
		s.spd[j.ID] = j.Density()
	}

	prev := s.energy()
	sweeps := 0
	for ; sweeps < maxSweeps; sweeps++ {
		for _, j := range s.jobs {
			s.refit(j)
		}
		cur := s.energy()
		if prev-cur <= convergeTol*math.Max(1, prev) {
			prev = cur
			sweeps++
			break
		}
		prev = cur
	}

	sol.Energy = prev
	sol.Cost = prev + rejectedValue
	sol.Sweeps = sweeps
	sol.Schedule = s.schedule(rejected)
	// KKT guess for the dual point restricted to accepted jobs: at the
	// optimum each accepted job runs at one speed s_j across its used
	// intervals and λ_j = α·w_j·s_j^{α-1}. Rejected jobs take λ_j = 0
	// (their constraint is slack in this restricted program), so the
	// bound is a valid lower bound for the *restricted* problem only
	// when rejectedValue is added back.
	lambda := map[int]float64{}
	for _, j := range s.jobs {
		lambda[j.ID] = j.Work * pm.Marginal(s.spd[j.ID])
	}
	vInf := make([]job.Job, len(s.jobs))
	copy(vInf, s.jobs)
	for i := range vInf {
		vInf[i].Value = math.Inf(1) // finish-all: min(λ, v) = λ
	}
	sol.LowerBound = dual.Value(pm, in.M, vInf, lambda) + rejectedValue
	return sol, nil
}

// refit re-optimises job j's assignment given all other jobs, exactly:
// removes j, then water-fills its workload back at the level where the
// interval capacities absorb w_j.
func (s *solver) refit(j job.Job) {
	ks := s.ks[j.ID]
	others := make([][]chen.Item, len(ks))
	lens := make([]float64, len(ks))
	for i, k := range ks {
		iv := s.part.At(k)
		delete(iv.Load, j.ID)
		others[i] = itemsOf(iv.Load)
		lens[i] = iv.Len()
	}
	capacity := func(sp float64) float64 {
		var acc numeric.Accumulator
		for i := range ks {
			acc.Add(s.sys.WorkAtSpeed(lens[i], others[i], sp))
		}
		return acc.Value()
	}
	sp, err := numeric.SolveIncreasing(capacity, s.spd[j.ID], j.Work, numeric.DefaultTol)
	if err != nil {
		// Unbounded capacity is guaranteed (empty intervals absorb
		// arbitrarily much at high speed); defensive fallback.
		sp = j.Density()
	}
	s.spd[j.ID] = sp
	var total float64
	zs := make([]float64, len(ks))
	for i := range ks {
		zs[i] = s.sys.WorkAtSpeed(lens[i], others[i], sp)
		total += zs[i]
	}
	if total <= 0 {
		zs[0], total = j.Work, j.Work
	}
	scale := j.Work / total
	for i, k := range ks {
		if zs[i] > 0 {
			s.part.At(k).Load[j.ID] = zs[i] * scale
		}
	}
}

// itemsOf collects an interval's positive loads as chen items, sorted
// by job ID: map iteration order would otherwise leak into float
// summation order (capacity, energy, Chen's partition) and make solves
// differ in the last ulp from run to run (cf. core.othersOf).
func itemsOf(load map[int]float64) []chen.Item {
	items := make([]chen.Item, 0, len(load))
	for id, w := range load {
		if w > 0 {
			items = append(items, chen.Item{ID: id, Work: w})
		}
	}
	sort.Slice(items, func(i, k int) bool { return items[i].ID < items[k].ID })
	return items
}

func (s *solver) energy() float64 {
	var acc numeric.Accumulator
	for _, iv := range s.part.All() {
		items := itemsOf(iv.Load)
		if len(items) > 0 {
			acc.Add(s.sys.Energy(iv.Len(), items))
		}
	}
	return acc.Value()
}

func (s *solver) schedule(rejected []int) *sched.Schedule {
	out := &sched.Schedule{M: s.sys.M, Rejected: rejected}
	for _, iv := range s.part.All() {
		items := itemsOf(iv.Load)
		if len(items) > 0 {
			out.Segments = append(out.Segments, s.sys.Timeline(iv.T0, iv.T1, items)...)
		}
	}
	return out
}

// lowerBoundAll evaluates the generic dual bound for the full profit
// problem at the given λ (nil means λ = 0, bound 0).
func lowerBoundAll(pm power.Model, in *job.Instance, lambda map[int]float64) float64 {
	if lambda == nil {
		return 0
	}
	return dual.Value(pm, in.M, in.Jobs, lambda)
}

// IntegralLimit is the largest n Integral will enumerate (2^n solves).
const IntegralLimit = 18

// Integral computes the exact optimum of the integral program (IMP) by
// enumerating all accept-sets. It is exponential in n and refuses
// instances with more than IntegralLimit jobs.
func Integral(in *job.Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Jobs)
	if n > IntegralLimit {
		return nil, fmt.Errorf("opt: %d jobs exceeds enumeration limit %d", n, IntegralLimit)
	}
	ids := make([]int, n)
	for i, j := range in.Jobs {
		ids[i] = j.ID
	}
	var best *Solution
	for mask := 0; mask < 1<<n; mask++ {
		accept := map[int]bool{}
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				accept[ids[b]] = true
			}
		}
		sol, err := SolveAccepted(in, accept)
		if err != nil {
			return nil, err
		}
		if best == nil || sol.Cost < best.Cost {
			best = sol
		}
	}
	return best, nil
}
