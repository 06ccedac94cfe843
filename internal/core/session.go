// Session serves PD online. Scheduler keeps every atomic interval it
// ever created, so each arrival, snapshot and certificate costs time
// proportional to the session's age. Session keeps only the live
// suffix of the partition and folds the rest into final output.
//
// The retirement argument: PD raises a job's loads only on atomic
// intervals inside its window, and jobs arrive in release order. Once
// a job with release r has been placed, no later job reaches before r:
// an interval with T1 ≤ r is never split, covered or re-planned again.
// Its Chen schedule is final, so it goes to the segment store. Its term
// of the certificate is final too. The jobs available in it all have
// λ̃ fixed at arrival, later jobs are released at or after r, and its
// top-m set (Lemma 5(c)) can no longer change. So it goes into a
// running prefix of g(λ̃).
//
// Scheduler stays the reference. Every Decision, the Schedule, the
// snapshot state and DualValue are bit-identical to it, because Session
// performs the same float operations on the same values in the same
// order. The differential tests and FuzzPDSessionMatchesScheduler pin
// that.

package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/chen"
	"repro/internal/job"
	"repro/internal/numeric"
	"repro/internal/power"
	"repro/internal/sched"
)

// Session is PD over the live suffix of its partition, for serving.
// Per-arrival cost is O(live intervals), independent of how many jobs
// the session has absorbed, and steady-state arrivals allocate nothing
// beyond amortized buffer growth. Feed arrivals in release order; an
// arrival behind the frontier is refused. Job IDs must be unique: the
// engine checks that before an arrival reaches the session. The zero
// value is not usable; create one with NewSession.
type Session struct {
	sys   chen.System
	delta float64

	arrivals int     // successful arrivals
	at       float64 // release of the latest successful arrival: the frontier
	opened   bool    // the partition covers something: end is set
	end      float64 // right end of the partition, the latest deadline seen

	live []span        // atomic intervals not yet retired, in time order
	free [][]chen.Item // load buffers of retired intervals, for reuse

	segs     sched.SegmentList // the final schedule of retired intervals
	rejected []int             // jobs without an accepted decision, in arrival order

	// g(λ̃) = lamSum + (1−α)·(settled + the live intervals' terms).
	lamSum  float64   // Σ_j min(λ̃_j, v_j), in arrival order
	settled float64   // Σ_k l_k·Σ_{j∈top_k} ŝ_j^α over retired intervals, in time order
	cert    []certJob // jobs with ŝ_j > 0 whose deadline lies beyond the last cut

	// Scratch, reused across arrivals.
	views  [][]chen.Item
	spare  []chen.Item
	zs     []float64
	speeds []float64
	tl     []sched.Segment
	ids    []int
}

// span is one live atomic interval [t0, t1). loads holds every load
// the reference's map would report (w > 0, or NaN after an overflow),
// sorted by job ID: the order othersOf produces.
type span struct {
	t0, t1 float64
	loads  []chen.Item
}

// certJob is what the certificate needs of a job: its window and ŝ_j.
type certJob struct {
	release, deadline, shat float64
}

// SessionState is a mid-stream observation of a PD session: the
// frontier and the committed plan from the frontier on.
type SessionState struct {
	Time        float64 // release of the latest arrival (the frontier)
	Arrivals    int     // arrivals placed so far
	Pending     int     // jobs with load at or after the frontier
	PendingWork float64 // load at or after the frontier
	Speed       float64 // summed speed of the jobs in the interval starting at the frontier
}

// NewSession returns an empty PD session for m processors under the
// power model. It takes the same options as New.
func NewSession(m int, pm power.Model, opts ...Option) *Session {
	ref := Scheduler{delta: pm.DefaultDelta()}
	for _, o := range opts {
		o(&ref)
	}
	return &Session{sys: chen.System{M: m, Power: pm}, delta: ref.delta}
}

// Arrive places job j exactly as Scheduler.Arrive does and returns
// the same decision.
//
//schedlint:hotpath
func (s *Session) Arrive(j job.Job) (Decision, error) {
	if err := j.Validate(); err != nil { //schedlint:allowalloc Validate allocates only the error it returns
		return Decision{}, err
	}
	if s.arrivals > 0 {
		if j.Release < s.at {
			return Decision{}, fmt.Errorf("core: job %d released at %v arrives behind the frontier %v (feed jobs in release order)", //schedlint:allowalloc misuse error path, arrival refused
				j.ID, j.Release, s.at)
		}
		s.retire(s.at)
	}
	s.observe(j.Release, j.Deadline)
	lo, views := s.covering(j.Release, j.Deadline)

	// Total work job j can absorb at water level sp: Scheduler's
	// capacity, over the same intervals in the same order.
	capacity := func(sp float64) float64 {
		var acc numeric.Accumulator
		for i, others := range views {
			iv := &s.live[lo+i]
			acc.Add(s.sys.WorkAtSpeed(iv.t1-iv.t0, others, sp))
		}
		return acc.Value()
	}
	sRej := s.sys.Power.RejectionSpeed(s.delta, j.Work, j.Value)
	dec := Decision{JobID: j.ID}
	if capacity(sRej) < j.Work {
		dec.Lambda = j.Value
		dec.Speed = sRej
		s.settle(j, dec)
		return dec, nil
	}
	sp, err := numeric.SolveIncreasing(capacity, j.Density(), j.Work, numeric.DefaultTol)
	if err != nil {
		// As in the reference, the job leaves no trace but the cuts
		// its window made in the partition.
		return Decision{}, fmt.Errorf("core: job %d: water level not found: %w", j.ID, err) //schedlint:allowalloc error path, arrival failed
	}
	s.distribute(j, lo, views, sp)
	dec.Accepted = true
	dec.Speed = sp
	dec.Lambda = s.delta * j.Work * s.sys.Power.Marginal(sp)
	s.settle(j, dec)
	return dec, nil
}

// settle records a placed job's decision: its rejection, its share of
// the certificate, and the frontier it moves to.
//
//schedlint:hotpath
func (s *Session) settle(j job.Job, dec Decision) {
	s.lamSum += math.Min(dec.Lambda, j.Value)
	if dec.Lambda > 0 {
		pm := s.sys.Power
		if shat := math.Pow(dec.Lambda/(pm.Alpha*j.Work), 1/(pm.Alpha-1)); shat > 0 {
			s.cert = append(s.cert, certJob{release: j.Release, deadline: j.Deadline, shat: shat})
		}
	}
	if !dec.Accepted {
		s.rejected = append(s.rejected, j.ID)
	}
	s.arrivals++
	s.at = j.Release
}

// retire finalises every live interval with T1 ≤ cut: its Chen
// schedule goes to the segment store, its certificate term to the
// settled prefix, and its load buffer to the free list.
//
//schedlint:hotpath
func (s *Session) retire(cut float64) {
	k := 0
	for ; k < len(s.live) && s.live[k].t1 <= cut; k++ {
		iv := &s.live[k]
		if term, ok := s.term(iv.t0, iv.t1); ok {
			s.settled += term
		}
		// The buffer is recycled below, so filter and sort it in place.
		if items := slices.DeleteFunc(iv.loads, notPositive); len(items) > 0 {
			chen.SortItems(items)
			s.tl = s.sys.AppendTimeline(s.tl[:0], iv.t0, iv.t1, items)
			for _, seg := range s.tl {
				s.segs.Add(seg)
			}
		}
		s.free = append(s.free, iv.loads[:0])
	}
	if k == 0 {
		return
	}
	n := copy(s.live, s.live[k:])
	clear(s.live[n:])
	s.live = s.live[:n]
	// A job due by the cut covers no live interval any more.
	w := 0
	for _, c := range s.cert {
		if c.deadline > cut {
			s.cert[w] = c
			w++
		}
	}
	s.cert = s.cert[:w]
}

// term is dual.InfeasibleEnergy's summand for the atomic interval
// [t0, t1): l·Σ ŝ^α over the min(m, n_k) fastest available jobs,
// summed fastest first. ok is false when no job is available, where
// the reference adds nothing.
//
//schedlint:hotpath
func (s *Session) term(t0, t1 float64) (v float64, ok bool) {
	speeds := s.speeds[:0]
	for _, c := range s.cert {
		if c.release <= t0 && c.deadline >= t1 {
			speeds = append(speeds, c.shat)
		}
	}
	s.speeds = speeds
	if len(speeds) == 0 {
		return 0, false
	}
	slices.Sort(speeds)
	var e float64
	for i := len(speeds) - 1; i >= 0 && i >= len(speeds)-s.sys.M; i-- {
		e += s.sys.Power.Power(speeds[i])
	}
	return (t1 - t0) * e, true
}

// observe is interval.Partition.Observe on the live suffix: extend
// coverage to [t0, t1), then cut at t0 and at t1.
//
//schedlint:hotpath
func (s *Session) observe(t0, t1 float64) {
	switch {
	case !s.opened:
		s.opened, s.end = true, t1
		s.insert(0, t0, t1)
	case len(s.live) > 0 && t0 < s.live[0].t0:
		// Reachable only before the first successful arrival: after
		// it, no release lies behind the live suffix.
		s.insert(0, t0, s.live[0].t0)
	}
	if t1 > s.end {
		s.insert(len(s.live), s.end, t1)
		s.end = t1
	}
	s.cut(t0)
	s.cut(t1)
}

// insert places an empty interval [t0, t1) at position k.
//
//schedlint:hotpath
func (s *Session) insert(k int, t0, t1 float64) {
	var loads []chen.Item
	if n := len(s.free); n > 0 {
		loads, s.free = s.free[n-1], s.free[:n-1]
	}
	s.live = append(s.live, span{})
	copy(s.live[k+1:], s.live[k:])
	s.live[k] = span{t0: t0, t1: t1, loads: loads}
}

// cut splits the live interval containing t at t, loads in proportion
// to the sub-lengths: interval.Partition's insertBoundary.
//
//schedlint:hotpath
func (s *Session) cut(t float64) {
	lo := s.search(t, true)
	if lo == len(s.live) {
		return
	}
	t0, t1 := s.live[lo].t0, s.live[lo].t1
	if t <= t0 || t >= t1 {
		return
	}
	l := t1 - t0
	s.insert(lo+1, t, t1)
	left, right := &s.live[lo], &s.live[lo+1]
	right.loads = scaled(right.loads, left.loads, (t1-t)/l)
	left.loads = scaled(left.loads[:0], left.loads, (t-t0)/l)
	left.t1 = t
}

// search binary-searches the live suffix for the first interval that
// ends after t (byEnd), or that starts at or after t.
//
//schedlint:hotpath
func (s *Session) search(t float64, byEnd bool) int {
	lo, hi := 0, len(s.live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if byEnd && s.live[mid].t1 > t || !byEnd && s.live[mid].t0 >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// scaled appends src's loads times frac to dst, dropping those that
// round to zero: the reference keeps them, but nothing reads a load
// that is not positive or NaN. dst may alias src[:0].
//
//schedlint:hotpath
func scaled(dst, src []chen.Item, frac float64) []chen.Item {
	for _, it := range src {
		if w := it.Work * frac; !(w <= 0) {
			dst = append(dst, chen.Item{ID: it.ID, Work: w})
		}
	}
	return dst
}

// covering returns the live intervals inside [t0, t1) as the start
// index lo and, per interval, the load items othersOf would build.
//
//schedlint:hotpath
func (s *Session) covering(t0, t1 float64) (lo int, views [][]chen.Item) {
	lo = s.search(t0, false)
	hi := max(s.search(t1, true), lo)
	views, s.spare = s.views[:0], s.spare[:0]
	for k := lo; k < hi; k++ {
		views = append(views, s.others(s.live[k].loads))
	}
	s.views = views
	return lo, views
}

// others returns the positive loads, in ID order: loads itself, or a
// filtered copy in scratch when an overflow left a NaN load behind.
//
//schedlint:hotpath
func (s *Session) others(loads []chen.Item) []chen.Item {
	if !slices.ContainsFunc(loads, notPositive) {
		return loads
	}
	start := len(s.spare)
	for _, it := range loads {
		if it.Work > 0 {
			s.spare = append(s.spare, it)
		}
	}
	return s.spare[start:len(s.spare):len(s.spare)]
}

func notPositive(it chen.Item) bool { return !(it.Work > 0) }

// distribute writes job j's accepted assignment at water level sp into
// the covered intervals, rescaled to sum to w_j: Scheduler.distribute.
//
//schedlint:hotpath
func (s *Session) distribute(j job.Job, lo int, views [][]chen.Item, sp float64) {
	zs := s.zs[:0]
	var total float64
	for i, others := range views {
		iv := &s.live[lo+i]
		z := s.sys.WorkAtSpeed(iv.t1-iv.t0, others, sp)
		zs = append(zs, z)
		total += z
	}
	s.zs = zs
	if total <= 0 {
		// Degenerate: w_j ≈ 0 was accepted at water level ~0. Place
		// everything in the job's first interval.
		zs[0], total = j.Work, j.Work
	}
	scale := j.Work / total
	for i, z := range zs {
		if z <= 0 {
			continue
		}
		if w := z * scale; !(w <= 0) {
			s.live[lo+i].add(j.ID, w)
		}
	}
}

// add inserts job id's load at its ID-sorted position.
//
//schedlint:hotpath
func (iv *span) add(id int, w float64) {
	lo, hi := 0, len(iv.loads)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if iv.loads[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	iv.loads = append(iv.loads, chen.Item{})
	copy(iv.loads[lo+1:], iv.loads[lo:])
	iv.loads[lo] = chen.Item{ID: id, Work: w}
}

// DualValue evaluates g(λ̃) for the jobs seen so far, bit-identical to
// Scheduler.DualValue: the settled prefix plus the live intervals'
// terms, in the time order dual.InfeasibleEnergy sums them.
func (s *Session) DualValue() float64 {
	total := s.settled
	for i := range s.live {
		if term, ok := s.term(s.live[i].t0, s.live[i].t1); ok {
			total += term
		}
	}
	return s.lamSum + (1-s.sys.Power.Alpha)*total
}

// State reports the committed plan from the frontier on, as engine's
// PD snapshot computed it from Scheduler.Snapshot: the loads of the
// intervals ending after the frontier, summed in time and then ID
// order, and the speeds in the frontier's interval. That computation
// prorated an interval straddling the frontier by time, but none does:
// every release is cut into the partition, so the frontier is always
// an interval boundary.
func (s *Session) State() SessionState {
	st := SessionState{Time: s.at, Arrivals: s.arrivals}
	ids := s.ids[:0]
	for i := range s.live {
		iv := &s.live[i]
		if iv.t1 <= s.at {
			continue
		}
		for _, it := range iv.loads {
			st.PendingWork += it.Work
			ids = append(ids, it.ID)
		}
		if iv.t0 <= s.at {
			s.spare = s.spare[:0]
			p := s.sys.Partition(iv.t1-iv.t0, s.others(iv.loads))
			for _, it := range iv.loads {
				st.Speed += p.SpeedOf(it.ID)
			}
		}
	}
	slices.Sort(ids)
	st.Pending = len(slices.Compact(ids))
	s.ids = ids
	return st
}

// Schedule materialises the executed schedule: the retired intervals'
// segments, then Chen's schedule of each live interval.
func (s *Session) Schedule() *sched.Schedule {
	out := &sched.Schedule{M: s.sys.M, Rejected: slices.Clone(s.rejected)}
	if s.segs.Len() > 0 {
		out.Segments = s.segs.Materialize()
	}
	s.spare = s.spare[:0]
	for i := range s.live {
		iv := &s.live[i]
		if items := s.others(iv.loads); len(items) > 0 {
			out.Segments = append(out.Segments, s.sys.Timeline(iv.t0, iv.t1, items)...)
		}
	}
	return out
}
