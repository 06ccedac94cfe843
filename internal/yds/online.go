// Online single-processor algorithms: OA, AVR, BKP and qOA.

package yds

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/sched"
)

// Pending is one unfinished job in an online planner's state.
type Pending struct {
	ID       int
	Deadline float64
	Rem      float64 // remaining work
	// Work is the job's original workload. ExecutePlan uses it to tell
	// rounding dust from real stranded work (see its default branch);
	// zero (from legacy constructors) disables the dust drop, which is
	// always the conservative choice.
	Work float64
}

// Block is one constant-speed step of an OA staircase plan: Jobs (in
// deadline order) run back-to-back at Speed during [Start, End).
type Block struct {
	Start, End float64
	Speed      float64
	Jobs       []Pending
}

// Staircase computes the optimal plan for finishing the pending jobs on
// one processor when all of them are available from time t on (the
// YDS structure degenerates to a staircase of prefix densities when all
// releases coincide). This is OA's planning step.
//
// The plan is the upper concave envelope of cumulative remaining work
// versus deadline, anchored at (t, 0): block speeds are the envelope's
// slopes, which decrease left to right. Building the envelope over the
// prefix work sums takes O(n) after the deadline sort, replacing the
// quadratic peel-the-densest-prefix loop; prefixes achieving the same
// density collapse into one block, which executes identically.
func Staircase(t float64, pend []Pending) ([]Block, error) {
	left := make([]Pending, 0, len(pend))
	for _, p := range pend {
		if p.Rem > 0 {
			left = append(left, p)
		}
	}
	if len(left) == 0 {
		return nil, nil
	}
	sort.Slice(left, func(i, k int) bool {
		if left[i].Deadline != left[k].Deadline { //schedlint:exactfloat sort tie-break on bit-identical deadlines
			return left[i].Deadline < left[k].Deadline
		}
		return left[i].ID < left[k].ID
	})
	if left[0].Deadline <= t {
		return nil, fmt.Errorf("yds: job %d has %v work after its deadline %v (t=%v)",
			left[0].ID, left[0].Rem, left[0].Deadline, t)
	}
	// One point per distinct deadline: (deadline, prefix work through
	// it, index of its last job in deadline order).
	type point struct {
		d, w float64
		last int
	}
	points := make([]point, 0, len(left))
	var cum float64
	for i, p := range left {
		cum += p.Rem
		if n := len(points); n > 0 && points[n-1].d == p.Deadline { //schedlint:exactfloat stair group-by on bit-identical deadlines
			points[n-1].w, points[n-1].last = cum, i
		} else {
			points = append(points, point{p.Deadline, cum, i})
		}
	}
	// Upper concave envelope anchored at (t, 0): pop while the new point
	// would not turn the chain clockwise (slopes must strictly decrease).
	hull := make([]point, 0, len(points))
	slopeFrom := func(n int, p point) float64 {
		if n == 0 {
			return p.w / (p.d - t)
		}
		return (p.w - hull[n-1].w) / (p.d - hull[n-1].d)
	}
	for _, p := range points {
		for len(hull) > 0 && slopeFrom(len(hull)-1, hull[len(hull)-1]) <= slopeFrom(len(hull)-1, p) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	blocks := make([]Block, 0, len(hull))
	start, first := t, 0
	for _, p := range hull {
		blocks = append(blocks, Block{
			Start: start, End: p.d, Speed: slopeFrom(len(blocks), p),
			Jobs: append([]Pending(nil), left[first:p.last+1]...),
		})
		start, first = p.d, p.last+1
	}
	return blocks, nil
}

// PlannedSpeedOf returns the speed of the block containing job id in
// the plan, or 0 if the job is not planned.
func PlannedSpeedOf(blocks []Block, id int) float64 {
	for _, b := range blocks {
		for _, p := range b.Jobs {
			if p.ID == id {
				return b.Speed
			}
		}
	}
	return 0
}

// ExecutePlan runs the staircase from its start until horizon, emitting
// segments and decrementing rem. Jobs inside a block run in deadline
// order (EDF within the block).
func ExecutePlan(blocks []Block, horizon float64, rem map[int]float64, segs *[]sched.Segment) {
	const eps = 1e-12
	for _, b := range blocks {
		if b.Start >= horizon {
			return
		}
		t := b.Start
		for _, p := range b.Jobs {
			if t >= horizon-eps {
				return
			}
			r := rem[p.ID]
			if r <= eps {
				continue
			}
			dur := r / b.Speed
			end := math.Min(t+dur, horizon)
			switch {
			case end > t && end < horizon:
				// The horizon did not cut the job short: it ran to
				// completion by construction. Retiring it exactly
				// avoids trusting the residue of (end-t)·s − r, whose
				// time-axis rounding (ulp(t)·s, absolute) can exceed
				// any r-relative clamp at large t and leave ghost dust
				// that blows up the replan once the deadline passes.
				*segs = append(*segs, sched.Segment{Proc: 0, Job: p.ID, T0: t, T1: end, Speed: b.Speed})
				rem[p.ID] = 0
				t = end
			case end > t:
				*segs = append(*segs, sched.Segment{Proc: 0, Job: p.ID, T0: t, T1: end, Speed: b.Speed})
				rem[p.ID] -= (end - t) * b.Speed
				// (r/s)·s rarely equals r in floats; clamp the residue
				// so finished jobs do not haunt later plans.
				if rem[p.ID] <= eps*(1+r) {
					rem[p.ID] = 0
				}
				t = end
			default:
				// t+dur == t: the leftover work runs for less than one
				// ulp of the clock — no representable segment can carry
				// it, and it would stall forever. If it is true rounding
				// dust (within the simulators' finish tolerance), retire
				// it; real stranded work stays, so the next replan still
				// fails loudly instead of silently dropping workload
				// (deadline pressure can strand arbitrary work when a
				// window collapses below one ulp).
				if r <= 1e-6*p.Work {
					rem[p.ID] = 0
				}
			}
		}
	}
}

// arrivalGroups returns the distinct release times of the instance in
// order together with the jobs released at each.
func arrivalGroups(in *job.Instance) ([]float64, map[float64][]job.Job) {
	groups := map[float64][]job.Job{}
	for _, j := range in.Jobs {
		groups[j.Release] = append(groups[j.Release], j)
	}
	times := make([]float64, 0, len(groups))
	for t := range groups {
		times = append(times, t)
	}
	sort.Float64s(times)
	return times, groups
}

// OA runs the Optimal Available algorithm: at every arrival it
// recomputes the optimal plan for the remaining work (all of it
// available now) and follows the plan until the next arrival. Values
// are ignored; every job is finished. Exactly αα-competitive.
func OA(in *job.Instance) (*sched.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	out := &sched.Schedule{M: 1}
	times, groups := arrivalGroups(in)
	rem := map[int]float64{}
	meta := map[int]job.Job{}

	for i, t := range times {
		for _, j := range groups[t] {
			rem[j.ID] = j.Work
			meta[j.ID] = j
		}
		var pend []Pending
		for id, r := range rem {
			if r > 0 {
				pend = append(pend, Pending{ID: id, Deadline: meta[id].Deadline, Rem: r, Work: meta[id].Work})
			}
		}
		blocks, err := Staircase(t, pend)
		if err != nil {
			return nil, err
		}
		horizon := math.Inf(1)
		if i+1 < len(times) {
			horizon = times[i+1]
		}
		ExecutePlan(blocks, horizon, rem, &out.Segments)
	}
	return out, nil
}

// AVR runs the Average Rate algorithm: each job is processed at its
// density w/(d-r) across its whole window; the processor speed is the
// sum of active densities. Within each atomic interval the active jobs
// run sequentially with time shares proportional to their densities,
// which realises exactly the per-job average rates.
func AVR(in *job.Instance) (*sched.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	out := &sched.Schedule{M: 1}
	bounds := make([]float64, 0, 2*len(in.Jobs))
	for _, j := range in.Jobs {
		bounds = append(bounds, j.Release, j.Deadline)
	}
	sort.Float64s(bounds)
	bounds = slices.Compact(bounds)

	for k := 0; k+1 < len(bounds); k++ {
		t0, t1 := bounds[k], bounds[k+1]
		var total float64
		var active []job.Job
		for _, j := range in.Jobs {
			if j.Release <= t0 && j.Deadline >= t1 {
				active = append(active, j)
				total += j.Density()
			}
		}
		if total <= 0 {
			continue
		}
		t := t0
		for _, j := range active {
			share := (t1 - t0) * j.Density() / total
			out.Segments = append(out.Segments, sched.Segment{
				Proc: 0, Job: j.ID, T0: t, T1: t + share, Speed: total,
			})
			t += share
		}
	}
	return out, nil
}

// stepsPerInterval is the sub-grid used by the simulated baselines
// (BKP, qOA) inside each atomic interval. Their speed functions are not
// piecewise constant on atomic intervals, so energy is integrated on
// this grid; the deadline-pressure guard in gridSim.span absorbs the
// discretization error (which shrinks as the grid refines).
const stepsPerInterval = 32

// bkpSim is BKP's dense policy: at time t the speed is  max over
// windows [t1, t2) with t = t1 + (t2-t1)/e  of  e·w(t, t1, t2)/(t2-t1),
// where w(t, t1, t2) is the total work of jobs known at t with release
// ≥ t1 and deadline ≤ t2. It keeps every observed job: past windows
// still contribute work to candidate windows reaching beyond t.
type bkpSim struct {
	known []job.Job
}

func (p *bkpSim) observe(j job.Job) { p.known = append(p.known, j) }

func (p *bkpSim) speedAt(t float64, _ []liveJob) (float64, error) {
	var best float64
	consider := func(u float64) {
		if u <= 0 {
			return
		}
		t1 := t - u/math.E
		t2 := t + u*(math.E-1)/math.E
		// Candidate u values are derived from releases and
		// deadlines; boundary jobs must count despite float
		// round-off in the reconstruction of t1/t2.
		slack := 1e-9 * (1 + u)
		var w float64
		for _, j := range p.known {
			if j.Release >= t1-slack && j.Release <= t && j.Deadline <= t2+slack {
				w += j.Work
			}
		}
		if s := math.E * w / u; s > best {
			best = s
		}
	}
	for _, j := range p.known {
		if j.Release <= t {
			consider(math.E * (t - j.Release))
		}
		if j.Deadline > t {
			consider((j.Deadline - t) * math.E / (math.E - 1))
		}
	}
	return best, nil
}

// BKP runs the algorithm of Bansal, Kimbrel and Pruhs, simulated on
// the interval grid, processing jobs EDF. Essentially
// 2e^{α+1}-competitive.
func BKP(in *job.Instance) (*sched.Schedule, error) {
	return simulate(in, &bkpSim{})
}

// QOA runs qOA: the OA plan speed scaled by q = 2 - 1/α, executing EDF.
// Designed for small α where it beats both OA and BKP.
func QOA(in *job.Instance, pm power.Model) (*sched.Schedule, error) {
	return simulate(in, &qoaSim{q: 2 - 1/pm.Alpha})
}

// simulate drives a grid policy on the atomic-interval grid,
// processing pending work EDF at the policy's speed. It shares
// gridSim.span with the incremental sessions, so both produce
// identical floats on identical arrival sequences.
func simulate(in *job.Instance, pol simPolicy) (*sched.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(in.Jobs) == 0 {
		return &sched.Schedule{M: 1}, nil
	}
	bounds := make([]float64, 0, 2*len(in.Jobs))
	for _, j := range in.Jobs {
		bounds = append(bounds, j.Release, j.Deadline)
	}
	sort.Float64s(bounds)
	bounds = slices.Compact(bounds)

	// Jobs become known grouped by release in slice order — the order
	// BKP's window scan sums work in — so release them through a
	// stable sort instead of rescanning the instance per interval.
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Jobs[order[a]].Release < in.Jobs[order[b]].Release
	})

	var ls liveSet
	var sim gridSim
	var segs sched.SegmentList
	next := 0
	for k := 0; k+1 < len(bounds); k++ {
		t0, t1 := bounds[k], bounds[k+1]
		for next < len(order) && in.Jobs[order[next]].Release == t0 { //schedlint:exactfloat releases sit exactly on grid boundaries by construction
			j := in.Jobs[order[next]]
			ls.insert(j)
			pol.observe(j)
			next++
		}
		if err := sim.span(t0, t1, &ls, pol, &segs); err != nil {
			return nil, err
		}
	}
	if err := sim.checkFinished(&ls); err != nil {
		return nil, err
	}
	return &sched.Schedule{M: 1, Segments: segs.Materialize()}, nil
}
