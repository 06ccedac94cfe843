// The allocation-free spine of the online sessions: a dense live set
// of unfinished jobs kept sorted by (deadline, id), an incremental
// boundary grid replacing the per-arrival rebuild of the atomic
// intervals, and scratch-buffer twins of Staircase and ExecutePlan
// that plan and execute over the dense state without allocating.
//
// Every routine here mirrors its map-based counterpart in online.go
// operation for operation, on the same values in the same order, so
// the floats it produces are bit-identical — that is what keeps the
// incremental sessions byte-equal to the batch entry points (the
// executable specification) while turning the per-arrival cost from
// O(arrivals so far) into O(live backlog), amortized, with zero
// steady-state allocations.

package yds

import (
	"fmt"
	"math"

	"repro/internal/job"
	"repro/internal/sched"
)

// liveJob is one unfinished job in the dense live state.
type liveJob struct {
	id       int
	deadline float64
	rem      float64 // remaining work
	work     float64 // original workload, for the finish check
}

// liveSet holds the unfinished jobs sorted by (deadline, id) — the
// exact order Staircase and the grid simulator sort their pending
// snapshots into, so a set maintained incrementally replays the same
// sequence the batch code re-sorts from scratch every time.
type liveSet struct {
	jobs []liveJob
}

// insert adds an arrived job at its sorted position. The memmove is
// O(live backlog), not O(arrivals): finished and expired jobs are
// retired by the planners as the frontier passes them.
//
//schedlint:hotpath
func (ls *liveSet) insert(j job.Job) {
	lo, hi := 0, len(ls.jobs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ls.jobs[mid].deadline < j.Deadline ||
			(ls.jobs[mid].deadline == j.Deadline && ls.jobs[mid].id < j.ID) { //schedlint:exactfloat deadlines are copied bit-for-bit, ties break by ID
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ls.jobs = append(ls.jobs, liveJob{})
	copy(ls.jobs[lo+1:], ls.jobs[lo:])
	ls.jobs[lo] = liveJob{id: j.ID, deadline: j.Deadline, rem: j.Work, work: j.Work}
}

// boundGrid maintains the future atomic-interval boundaries — the
// deadlines of known jobs beyond the frontier — as a sorted queue.
// Jobs arrive in release order, so every boundary of the eventual full
// instance inside a finalised span is already in the grid when the
// span is emitted (releases never land strictly inside: a job released
// there would have arrived first and moved the frontier). Boundaries
// are consumed once as the frontier passes them, which is what makes
// the per-arrival grid work amortized O(1) entries instead of a full
// rebuild.
type boundGrid struct {
	b    []float64 // sorted; b[head:] are the live future boundaries
	head int
}

// insert registers a boundary (> frontier), keeping the queue sorted
// and deduplicated.
//
//schedlint:hotpath
func (g *boundGrid) insert(x float64) {
	lo, hi := g.head, len(g.b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.b[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.b) && g.b[lo] == x { //schedlint:exactfloat grid dedupe of bit-identical boundaries
		return
	}
	g.b = append(g.b, 0)
	copy(g.b[lo+1:], g.b[lo:])
	g.b[lo] = x
}

// appendUpTo appends the boundaries strictly inside (frontier, t1) to
// dst followed by t1 itself, consuming every entry ≤ t1. With the old
// frontier leading dst, the result is exactly the slice of the batch
// atomic-interval grid covering [frontier, t1].
//
//schedlint:hotpath
func (g *boundGrid) appendUpTo(dst []float64, t1 float64) []float64 {
	for g.head < len(g.b) && g.b[g.head] < t1 {
		dst = append(dst, g.b[g.head])
		g.head++
	}
	if g.head < len(g.b) && g.b[g.head] == t1 { //schedlint:exactfloat grid dedupe of bit-identical boundaries
		g.head++ // dedupe with t1
	}
	dst = append(dst, t1)
	// Reclaim the consumed prefix once it dominates the buffer so the
	// queue's footprint tracks the live backlog, not the session age.
	if g.head > 64 && g.head > len(g.b)-g.head {
		n := copy(g.b, g.b[g.head:])
		g.b = g.b[:n]
		g.head = 0
	}
	return dst
}

// max returns the latest future boundary, if any (the horizon Close
// must simulate to — the latest deadline of any known job beyond the
// frontier, finished or not, exactly like the batch maxDeadline scan).
func (g *boundGrid) max() (float64, bool) {
	if g.head >= len(g.b) {
		return 0, false
	}
	return g.b[len(g.b)-1], true
}

// stairPoint is one distinct deadline of the staircase input: the
// prefix work through it and the index of its last job in the live
// order (Staircase's `point`).
type stairPoint struct {
	d, w float64
	last int
}

// planBlock is one constant-speed step of a staircase plan over the
// dense live set: jobs[first..last] run back-to-back at speed during
// [start, end) — Block with index ranges instead of copied job slices.
type planBlock struct {
	start, end  float64
	speed       float64
	first, last int
}

// stair is the reusable staircase scratch: build is Staircase minus
// the sort (the live set is already in (deadline, id) order), the
// filter (live jobs all have rem > 0) and every allocation.
type stair struct {
	points []stairPoint
	hull   []stairPoint
	blocks []planBlock
}

// build computes the staircase plan for the live set at time t into
// the reused block buffer. The arithmetic is Staircase's, operation
// for operation, so the speeds are bit-identical.
//
//schedlint:hotpath
func (st *stair) build(t float64, jobs []liveJob) error {
	st.blocks = st.blocks[:0]
	if len(jobs) == 0 {
		return nil
	}
	if jobs[0].deadline <= t {
		return fmt.Errorf("yds: job %d has %v work after its deadline %v (t=%v)", //schedlint:allowalloc infeasible-instance error, session dies
			jobs[0].id, jobs[0].rem, jobs[0].deadline, t)
	}
	st.points = st.points[:0]
	var cum float64
	for i, p := range jobs {
		cum += p.rem
		if n := len(st.points); n > 0 && st.points[n-1].d == p.deadline { //schedlint:exactfloat stair group-by on bit-identical deadlines
			st.points[n-1].w, st.points[n-1].last = cum, i
		} else {
			st.points = append(st.points, stairPoint{p.deadline, cum, i})
		}
	}
	hull := st.hull[:0]
	slopeFrom := func(n int, p stairPoint) float64 {
		if n == 0 {
			return p.w / (p.d - t)
		}
		return (p.w - hull[n-1].w) / (p.d - hull[n-1].d)
	}
	for _, p := range st.points {
		for len(hull) > 0 && slopeFrom(len(hull)-1, hull[len(hull)-1]) <= slopeFrom(len(hull)-1, p) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	st.hull = hull
	start, first := t, 0
	for _, p := range hull {
		st.blocks = append(st.blocks, planBlock{
			start: start, end: p.d, speed: slopeFrom(len(st.blocks), p),
			first: first, last: p.last,
		})
		start, first = p.d, p.last+1
	}
	return nil
}

// execPlan runs the staircase until horizon, emitting segments and
// decrementing rem in the dense live set — ExecutePlan on index
// ranges instead of a rem map, same floats.
//
//schedlint:hotpath
func execPlan(blocks []planBlock, horizon float64, jobs []liveJob, segs *sched.SegmentList) {
	const eps = 1e-12
	for _, b := range blocks {
		if b.start >= horizon {
			return
		}
		t := b.start
		for i := b.first; i <= b.last; i++ {
			if t >= horizon-eps {
				return
			}
			p := &jobs[i]
			r := p.rem
			if r <= eps {
				continue
			}
			dur := r / b.speed
			end := math.Min(t+dur, horizon)
			switch {
			case end > t && end < horizon:
				// Ran to completion by construction (the horizon did
				// not cut it short): retire exactly — see ExecutePlan.
				segs.Add(sched.Segment{Proc: 0, Job: p.id, T0: t, T1: end, Speed: b.speed})
				p.rem = 0
				t = end
			case end > t:
				segs.Add(sched.Segment{Proc: 0, Job: p.id, T0: t, T1: end, Speed: b.speed})
				p.rem -= (end - t) * b.speed
				// (r/s)·s rarely equals r in floats; clamp the residue
				// so finished jobs do not haunt later plans.
				if p.rem <= eps*(1+r) {
					p.rem = 0
				}
				t = end
			default:
				// Sub-ulp stall: retire true rounding dust; real
				// stranded work stays and fails the next replan loudly
				// (see ExecutePlan).
				if r <= 1e-6*p.work {
					p.rem = 0
				}
			}
		}
	}
}

// simPolicy is the speed seam of the dense grid simulator: observe
// sees each job as it becomes known (BKP's window scan needs them),
// speedAt returns the speed to run at until the next grid point given
// the live pending jobs (sorted by deadline, all rem > eps).
type simPolicy interface {
	observe(j job.Job)
	speedAt(t float64, pend []liveJob) (float64, error)
}

// gridSim is the reusable state of the dense grid simulator — the
// counterpart of simulateSpan's per-step map scan, rem map and sort,
// with jobs retired from the live set the moment the per-step filter
// can never admit them again (finished, or deadline behind the grid).
type gridSim struct {
	unfin    bool // a retired job kept unfinished work
	unfinID  int
	unfinRem float64
}

// span advances the simulation across one atomic interval [t0, t1),
// dividing it into stepsPerInterval steps exactly like simulateSpan:
// at every step it compacts the live set (the batch per-step filter,
// made permanent — rem only decreases and the grid only advances),
// asks the policy for a speed, and executes EDF at that speed with the
// same deadline-pressure guard.
//
//schedlint:hotpath
func (g *gridSim) span(t0, t1 float64, ls *liveSet, pol simPolicy, segs *sched.SegmentList) error {
	const eps = 1e-12
	dt := (t1 - t0) / stepsPerInterval
	for step := 0; step < stepsPerInterval; step++ {
		u0, u1 := t0+float64(step)*dt, t0+float64(step+1)*dt
		w := 0
		for _, p := range ls.jobs {
			if p.rem <= eps || p.deadline <= u0 {
				// Retired for good; remember the first job that leaves
				// with real work — the batch end-of-run check, pulled
				// forward to the moment the outcome is sealed.
				if !g.unfin && p.rem > 1e-6*p.work {
					g.unfin, g.unfinID, g.unfinRem = true, p.id, p.rem
				}
				continue
			}
			ls.jobs[w] = p
			w++
		}
		ls.jobs = ls.jobs[:w]
		if w == 0 {
			continue
		}
		s, err := pol.speedAt(u0, ls.jobs)
		if err != nil {
			return err
		}
		t := u0
		for i := range ls.jobs {
			if t >= u1-eps {
				break
			}
			p := &ls.jobs[i]
			sp := s
			// Deadline pressure: if this is the job's last chance,
			// run fast enough to finish (discretization guard).
			if p.deadline <= u1+eps {
				sp = math.Max(sp, p.rem/(p.deadline-t))
			}
			if sp <= 0 {
				break
			}
			end := math.Min(u1, t+p.rem/sp)
			if end <= t {
				// Sub-ulp stall (see execPlan): retire true rounding
				// dust so it cannot pin the live set; real stranded
				// work stays pending and surfaces through the
				// unfinished-work check exactly as it always has —
				// under deadline pressure sp = rem/(deadline-t), a
				// window collapsed below one ulp strands the job's
				// whole remaining workload here, which must not be
				// silently zeroed.
				if p.rem <= 1e-6*p.work {
					p.rem = 0
				}
				continue
			}
			segs.Add(sched.Segment{Proc: 0, Job: p.id, T0: t, T1: end, Speed: sp})
			if end < u1 {
				// Ran to completion at speed sp before the grid point:
				// retire exactly (see execPlan on residue rounding).
				p.rem = 0
			} else {
				p.rem -= (end - t) * sp
			}
			t = end
		}
	}
	return nil
}

// checkFinished is the batch simulator's end-of-run guarantee: every
// job — retired or still live — must have finished within tolerance.
func (g *gridSim) checkFinished(ls *liveSet) error {
	if g.unfin {
		return fmt.Errorf("yds: simulated policy left %v work of job %d", g.unfinRem, g.unfinID)
	}
	for _, p := range ls.jobs {
		if p.rem > 1e-6*p.work {
			return fmt.Errorf("yds: simulated policy left %v work of job %d", p.rem, p.id)
		}
	}
	return nil
}

// qoaSim is qOA's dense policy: the staircase speed over the pending
// work scaled by q, planned in reused scratch (qoaSpeed without the
// per-step allocations).
type qoaSim struct {
	q  float64
	st stair
}

func (p *qoaSim) observe(job.Job) {}

//schedlint:hotpath
func (p *qoaSim) speedAt(t float64, pend []liveJob) (float64, error) {
	if err := p.st.build(t, pend); err != nil {
		return 0, err
	}
	if len(p.st.blocks) == 0 {
		return 0, nil
	}
	return p.q * p.st.blocks[0].speed, nil
}
