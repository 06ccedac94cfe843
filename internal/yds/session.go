// Truly-online sessions for OA, AVR and qOA: the same algorithms as
// the batch entry points in online.go, but maintained arrival by
// arrival, so per-arrival latency is the algorithm's real planning
// cost and the live plan can be observed mid-stream. The batch
// functions remain as the executable specification; differential tests
// pin every session's schedule byte-identical to its batch
// counterpart on normalized (release-ordered) instances — the order
// the engine always feeds, and the only order sessions accept. (Batch
// AVR breaks same-interval ties in raw slice order, so the claim is
// scoped to instances where the two orders coincide.)
//
// The key fact making the decomposition exact: jobs arrive in release
// order, so at the moment a job with release T arrives, every atomic-
// interval boundary of the eventual full instance inside [frontier, T]
// is already known (releases of arrived jobs, deadlines of arrived
// jobs, and T itself). A session can therefore finalise the schedule
// up to T using only its local state and still land on exactly the
// grid the batch algorithm builds from the whole trace.
//
// Sessions are built for live traffic: state is dense (sorted slices,
// no maps), scratch is reused across arrivals, finished and expired
// jobs are retired as the frontier passes them, and the boundary grid
// is maintained incrementally. Per-arrival cost is therefore
// amortized O(live backlog), independent of how many jobs the session
// has absorbed, and steady-state arrivals allocate nothing beyond the
// amortized growth of the output segment store (sched.SegmentList).

package yds

import (
	"fmt"
	"math"

	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/sched"
)

// SessionState is a mid-stream observation of an online session: the
// arrival frontier, the live backlog and the speed the current plan
// runs at right now.
type SessionState struct {
	Time        float64 // release time of the latest arrival (the frontier)
	Arrivals    int     // jobs handed to the session so far
	Pending     int     // jobs with unfinished work
	PendingWork float64 // total unfinished work
	Speed       float64 // planned speed at Time
}

// frontier is the arrival bookkeeping shared by all sessions.
type frontier struct {
	t        float64
	started  bool
	closed   bool
	arrivals int
}

// observe validates the arrival against the session lifecycle and
// reports whether the frontier moved strictly forward (the session
// must finalise [old frontier, j.Release] before absorbing j).
//
//schedlint:hotpath
func (f *frontier) observe(j job.Job) (moved bool, err error) {
	if f.closed {
		return false, fmt.Errorf("yds: session already closed, cannot accept job %d", j.ID) //schedlint:allowalloc misuse error path, arrival rejected
	}
	if !f.started {
		f.started, f.t = true, j.Release
		f.arrivals++
		return false, nil
	}
	if j.Release < f.t {
		return false, fmt.Errorf("yds: job %d released at %v arrives behind the frontier %v (feed jobs in release order)", //schedlint:allowalloc misuse error path, arrival rejected
			j.ID, j.Release, f.t)
	}
	f.arrivals++
	return j.Release > f.t, nil
}

// --- OA ---

// OASession runs Optimal Available incrementally: every arrival
// replans the staircase over the live pending work, and the plan in
// force is executed up to each new arrival's release (and to the end
// at Close). The emitted schedule is byte-identical to OA's. Finished
// jobs are retired from the live set after every execution, so the
// per-arrival replan costs O(live backlog), allocation-free.
type OASession struct {
	fr   frontier
	live liveSet
	st   stair // current plan in st.blocks
	segs sched.SegmentList
}

// NewOASession returns an empty OA session.
func NewOASession() *OASession { return &OASession{} }

// Arrive absorbs the next job (release order required) and replans.
//
//schedlint:hotpath
func (s *OASession) Arrive(j job.Job) error {
	moved, err := s.fr.observe(j)
	if err != nil {
		return err
	}
	if moved {
		// The plan computed after the previous group's last arrival is
		// exactly the plan batch OA follows until this release.
		execPlan(s.st.blocks, j.Release, s.live.jobs, &s.segs)
		s.fr.t = j.Release
	}
	// Retire jobs the execution just finished, then admit the arrival
	// at its sorted position.
	s.retire()
	s.live.insert(j)
	return s.st.build(s.fr.t, s.live.jobs)
}

// retire compacts finished jobs out of the live set (rem clamped to
// exactly zero — the batch pending filter is rem > 0).
//
//schedlint:hotpath
func (s *OASession) retire() {
	w := 0
	for _, p := range s.live.jobs {
		if p.rem > 0 {
			s.live.jobs[w] = p
			w++
		}
	}
	s.live.jobs = s.live.jobs[:w]
}

// ArriveBatch absorbs a run of arrivals in one call, coalescing the
// replans of same-release groups: the sequential path rebuilds the
// staircase after every arrival, but a plan is only ever *executed*
// when the frontier moves (or at Close), so only the last build of
// each group is observable. Skipping the intermediate builds leaves
// every executed plan with bit-identical inputs — the emitted schedule
// is byte-equal to feeding the jobs one at a time, which the
// differential tests pin. It returns how many jobs the session
// absorbed into its live state; on an error the remaining jobs are
// untouched. A *build* error counts the jobs already inserted as
// absorbed (they are in the live set, exactly like the sequential
// path's post-error state), so the caller's bookkeeping never
// diverges from the policy's.
//
//schedlint:hotpath
func (s *OASession) ArriveBatch(js []job.Job) (int, error) {
	for i, j := range js {
		moved, err := s.fr.observe(j)
		if err != nil {
			// Plan the absorbed tail so the session state matches the
			// sequential path's (whose last build covered it already).
			if berr := s.st.build(s.fr.t, s.live.jobs); berr != nil {
				return i, berr
			}
			return i, err
		}
		if moved {
			if err := s.st.build(s.fr.t, s.live.jobs); err != nil {
				return i, err
			}
			execPlan(s.st.blocks, j.Release, s.live.jobs, &s.segs)
			s.fr.t = j.Release
		}
		s.retire()
		s.live.insert(j)
	}
	if err := s.st.build(s.fr.t, s.live.jobs); err != nil {
		return len(js), err
	}
	return len(js), nil
}

// Close runs the final plan to completion and returns the schedule.
func (s *OASession) Close() (*sched.Schedule, error) {
	if s.fr.closed {
		return nil, fmt.Errorf("yds: OA session closed twice")
	}
	s.fr.closed = true
	execPlan(s.st.blocks, math.Inf(1), s.live.jobs, &s.segs)
	return &sched.Schedule{M: 1, Segments: s.segs.Materialize()}, nil
}

// State reports the live backlog and current plan speed.
func (s *OASession) State() SessionState {
	st := SessionState{Time: s.fr.t, Arrivals: s.fr.arrivals}
	for _, p := range s.live.jobs {
		if p.rem > 0 {
			st.Pending++
			st.PendingWork += p.rem
		}
	}
	if len(s.st.blocks) > 0 {
		st.Speed = s.st.blocks[0].speed
	}
	return st
}

// --- AVR ---

// AVRSession runs Average Rate incrementally: each arrival finalises
// the schedule up to its release (all active densities there are
// known) and adds the job's density to the live set. The emitted
// schedule is byte-identical to AVR's on a normalized instance (AVR
// orders same-interval time shares by the instance's slice order, the
// session by arrival order). Jobs whose windows the frontier has
// passed are pruned, and the atomic-interval grid is maintained
// incrementally, so each arrival costs O(live backlog), not O(jobs
// absorbed so far).
type AVRSession struct {
	fr     frontier
	known  []job.Job // live window jobs, arrival order
	grid   boundGrid
	bounds []float64 // emit scratch
	active []int     // emit scratch: indices into known
	segs   sched.SegmentList
}

// NewAVRSession returns an empty AVR session.
func NewAVRSession() *AVRSession { return &AVRSession{} }

// emit materialises the AVR schedule over [fr.t, T]: within each
// atomic interval the active jobs run sequentially with time shares
// proportional to their densities, exactly as the batch loop does.
// The interval boundaries come from the incremental grid, which holds
// exactly the batch grid's boundaries beyond the frontier.
//
//schedlint:hotpath
func (s *AVRSession) emit(T float64) {
	s.bounds = append(s.bounds[:0], s.fr.t)
	s.bounds = s.grid.appendUpTo(s.bounds, T)
	for k := 0; k+1 < len(s.bounds); k++ {
		t0, t1 := s.bounds[k], s.bounds[k+1]
		var total float64
		s.active = s.active[:0]
		for i, j := range s.known {
			if j.Release <= t0 && j.Deadline >= t1 {
				s.active = append(s.active, i)
				total += j.Density()
			}
		}
		if total <= 0 {
			continue
		}
		t := t0
		for _, i := range s.active {
			j := s.known[i]
			share := (t1 - t0) * j.Density() / total
			s.segs.Add(sched.Segment{
				Proc: 0, Job: j.ID, T0: t, T1: t + share, Speed: total,
			})
			t += share
		}
	}
}

// prune retires jobs whose windows closed at or before the frontier:
// no future atomic interval can admit them (it would need deadline ≥
// its right endpoint > frontier), so they can never contribute again.
//
//schedlint:hotpath
func (s *AVRSession) prune() {
	w := 0
	for _, j := range s.known {
		if j.Deadline > s.fr.t {
			s.known[w] = j
			w++
		}
	}
	s.known = s.known[:w]
}

// Arrive absorbs the next job (release order required), finalising the
// schedule up to its release first.
//
//schedlint:hotpath
func (s *AVRSession) Arrive(j job.Job) error {
	moved, err := s.fr.observe(j)
	if err != nil {
		return err
	}
	if moved {
		s.emit(j.Release)
		s.fr.t = j.Release
		s.prune()
	}
	s.known = append(s.known, j)
	s.grid.insert(j.Deadline)
	return nil
}

// ArriveBatch absorbs a run of arrivals in one call. AVR does no
// per-arrival replanning beyond the frontier-move emit, so the batch
// entry point is the sequential loop without per-call overhead; it
// returns how many jobs were absorbed before the first error.
//
//schedlint:hotpath
func (s *AVRSession) ArriveBatch(js []job.Job) (int, error) {
	for i := range js {
		if err := s.Arrive(js[i]); err != nil {
			return i, err
		}
	}
	return len(js), nil
}

// Close finalises the schedule through the last deadline.
func (s *AVRSession) Close() (*sched.Schedule, error) {
	if s.fr.closed {
		return nil, fmt.Errorf("yds: AVR session closed twice")
	}
	s.fr.closed = true
	if s.fr.started {
		if T, ok := s.grid.max(); ok && T > s.fr.t {
			s.emit(T)
			s.fr.t = T
		}
	}
	return &sched.Schedule{M: 1, Segments: s.segs.Materialize()}, nil
}

// State reports the live density backlog: every known job whose window
// is still open contributes its density to the current speed and its
// remaining average-rate work to the backlog.
func (s *AVRSession) State() SessionState {
	st := SessionState{Time: s.fr.t, Arrivals: s.fr.arrivals}
	for _, j := range s.known {
		if j.Deadline > s.fr.t {
			st.Pending++
			st.PendingWork += j.Density() * (j.Deadline - s.fr.t)
			st.Speed += j.Density()
		}
	}
	return st
}

// --- qOA ---

// QOASession runs qOA incrementally: each arrival advances the grid
// simulation (OA staircase speed scaled by q, executed EDF) up to its
// release over the atomic intervals of the jobs known so far. The
// emitted schedule is byte-identical to QOA's. The live set retires
// finished and expired jobs as the grid passes them and all planning
// scratch is reused, so an arrival costs O(live backlog) per grid
// step, allocation-free.
type QOASession struct {
	fr     frontier
	pol    qoaSim
	live   liveSet
	sim    gridSim
	grid   boundGrid
	bounds []float64 // advance scratch
	segs   sched.SegmentList
}

// NewQOASession returns an empty qOA session for the power model's
// exponent (q = 2 - 1/α).
func NewQOASession(pm power.Model) *QOASession {
	return &QOASession{pol: qoaSim{q: 2 - 1/pm.Alpha}}
}

// advance simulates [fr.t, T] on the same grid the batch simulator
// would use there.
//
//schedlint:hotpath
func (s *QOASession) advance(T float64) error {
	s.bounds = append(s.bounds[:0], s.fr.t)
	s.bounds = s.grid.appendUpTo(s.bounds, T)
	for k := 0; k+1 < len(s.bounds); k++ {
		if err := s.sim.span(s.bounds[k], s.bounds[k+1], &s.live, &s.pol, &s.segs); err != nil {
			return err
		}
	}
	return nil
}

// Arrive absorbs the next job (release order required), simulating up
// to its release first.
//
//schedlint:hotpath
func (s *QOASession) Arrive(j job.Job) error {
	moved, err := s.fr.observe(j)
	if err != nil {
		return err
	}
	if moved {
		if err := s.advance(j.Release); err != nil {
			return err
		}
		s.fr.t = j.Release
	}
	s.live.insert(j)
	s.grid.insert(j.Deadline)
	return nil
}

// ArriveBatch absorbs a run of arrivals in one call; the grid advance
// already happens only on frontier moves, so this is the sequential
// loop minus per-call overhead. It returns how many jobs were
// absorbed before the first error.
//
//schedlint:hotpath
func (s *QOASession) ArriveBatch(js []job.Job) (int, error) {
	for i := range js {
		if err := s.Arrive(js[i]); err != nil {
			return i, err
		}
	}
	return len(js), nil
}

// Close simulates through the last deadline and returns the schedule;
// like the batch simulator it fails if any job is left unfinished.
func (s *QOASession) Close() (*sched.Schedule, error) {
	if s.fr.closed {
		return nil, fmt.Errorf("yds: qOA session closed twice")
	}
	s.fr.closed = true
	if s.fr.started {
		if T, ok := s.grid.max(); ok && T > s.fr.t {
			if err := s.advance(T); err != nil {
				return nil, err
			}
			s.fr.t = T
		}
	}
	if err := s.sim.checkFinished(&s.live); err != nil {
		return nil, err
	}
	return &sched.Schedule{M: 1, Segments: s.segs.Materialize()}, nil
}

// State reports the live backlog and the qOA speed at the frontier.
// The staircase is planned over the unfinished jobs only: a job that
// finished in the final grid step of the last advance lingers in the
// live set (rem 0) until the next span compacts it, and must not trip
// the planner's past-deadline check.
func (s *QOASession) State() SessionState {
	st := SessionState{Time: s.fr.t, Arrivals: s.fr.arrivals}
	pend := make([]liveJob, 0, len(s.live.jobs))
	for _, p := range s.live.jobs {
		if p.rem > 0 {
			st.Pending++
			st.PendingWork += p.rem
			pend = append(pend, p)
		}
	}
	if sp, err := s.pol.speedAt(s.fr.t, pend); err == nil {
		st.Speed = sp
	}
	return st
}
