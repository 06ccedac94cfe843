// Package engine provides the online replay driver and the policy
// registry: it feeds a job trace to any scheduling policy in release
// order, measures per-arrival decision latency, verifies the produced
// schedule independently, and reports a uniform result. Policies are
// resolved by declarative Spec through a Registry carrying capability
// metadata (processor range, profit vs finish-all model, online vs
// batch vs clairvoyant), so callers never touch per-algorithm
// constructors; downstream users plug their own policies in next to
// the built-in ones (PD, CLL, OA, multiprocessor OA, ...) by
// registering them under a name.
package engine

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/yds"
)

// Policy is an online scheduling algorithm: it receives jobs one by one
// in release order and finally emits a schedule. Implementations may
// reject jobs (profit model) or must finish everything (classical
// model) — the engine only cares that the final schedule verifies.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Arrive hands the policy the next job; jobs arrive in
	// nondecreasing release order.
	Arrive(j job.Job) error
	// Close finalises the run and returns the complete schedule.
	Close() (*sched.Schedule, error)
}

// Snapshot is a mid-stream observation of a policy's live state,
// taken between arrivals without disturbing the run. The JSON tags
// are the stable wire names of the serving daemon's snapshot endpoint.
type Snapshot struct {
	// At is the release time of the latest arrival (the frontier).
	At float64 `json:"at"`
	// Arrivals counts jobs handed to the policy so far.
	Arrivals int `json:"arrivals"`
	// Pending counts jobs with unfinished work in the live state.
	Pending int `json:"pending"`
	// PendingWork is the total unfinished work.
	PendingWork float64 `json:"pendingWork"`
	// Speed is the speed the current plan runs at the frontier.
	Speed float64 `json:"speed"`
	// Buffered reports that the policy has not planned anything yet —
	// it buffers the trace and plans only at Close, so Pending and
	// PendingWork describe the buffered backlog and Speed is zero.
	Buffered bool `json:"buffered,omitempty"`
}

// Session extends Policy with mid-stream observability: a truly online
// policy maintains its plan per arrival and can report it at any
// point. All built-in policies implement Session; for buffering shims
// the snapshot shows the backlog with Buffered set.
type Session interface {
	Policy
	Snapshot() Snapshot
}

// SessionOf reports the policy's Session face, if it has one.
func SessionOf(p Policy) (Session, bool) {
	s, ok := p.(Session)
	return s, ok
}

// BatchArriver is an optional Policy face for the batched ingest
// path: absorb a run of release-ordered arrivals in one call,
// returning how many were fully absorbed. On an error, jobs js[:n]
// are applied and the rest are not; implementations must leave the
// emitted schedule byte-identical to feeding the same jobs through
// Arrive one at a time (differential tests pin this for every
// built-in). Policies without this face are driven by a plain loop.
type BatchArriver interface {
	ArriveBatch(js []job.Job) (n int, err error)
}

// Buffered marks policies that buffer the whole trace and plan only at
// Close (batch shims around whole-instance algorithms). Replay zeroes
// their per-arrival latency columns — the interesting cost is PlanTime.
type Buffered interface {
	Buffered() bool
}

// Result is the uniform outcome of one replay. The JSON tags are the
// stable wire names of the serving daemon's close endpoint; durations
// marshal as integer nanoseconds (encoding/json's time.Duration
// default).
type Result struct {
	Policy    string          `json:"policy"`
	Schedule  *sched.Schedule `json:"schedule,omitempty"`
	Energy    float64         `json:"energy"`
	LostValue float64         `json:"lostValue"`
	Cost      float64         `json:"cost"`
	Rejected  int             `json:"rejected"`
	// MaxArrive and TotalArrive measure the policy's decision latency
	// (wall clock) — the online algorithm's own per-arrival overhead.
	// For Buffered policies both are zero: an append to a buffer says
	// nothing about the algorithm, so publishing it would be
	// misleading.
	MaxArrive   time.Duration `json:"maxArrive"`
	TotalArrive time.Duration `json:"totalArrive"`
	// PlanTime is the wall clock spent in Close — for buffered and
	// clairvoyant policies this is where all planning happens; for
	// online policies it is the cost of finishing the last plan.
	PlanTime time.Duration `json:"planTime"`
}

// Replay drives the policy over the instance and verifies the result.
func Replay(in *job.Instance, p Policy) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	inst := in.Clone()
	inst.Normalize()
	res := &Result{Policy: p.Name()}
	for _, j := range inst.Jobs {
		start := time.Now()
		if err := p.Arrive(j); err != nil {
			return nil, fmt.Errorf("engine: %s rejected arrival of job %d: %w", p.Name(), j.ID, err)
		}
		d := time.Since(start)
		res.TotalArrive += d
		if d > res.MaxArrive {
			res.MaxArrive = d
		}
	}
	if err := finish(p, inst, res); err != nil {
		return nil, err
	}
	return res, nil
}

// finish is the close both Replay and Live run: the policy plans
// (PlanTime), its schedule is verified against the instance it was
// shown, and res gets the schedule and its cost (Eq. 1).
func finish(p Policy, inst *job.Instance, res *Result) error {
	start := time.Now()
	s, err := p.Close()
	res.PlanTime = time.Since(start)
	if err != nil {
		return fmt.Errorf("engine: %s close: %w", p.Name(), err)
	}
	if b, ok := p.(Buffered); ok && b.Buffered() {
		res.MaxArrive, res.TotalArrive = 0, 0
	}
	if err := sched.Verify(inst, s); err != nil {
		return fmt.Errorf("engine: %s produced an infeasible schedule: %w", p.Name(), err)
	}
	res.Schedule = s
	res.Energy = s.Energy(power.Model{Alpha: inst.Alpha})
	res.LostValue = s.LostValue(inst)
	res.Cost = res.Energy + res.LostValue
	res.Rejected = len(s.Rejected)
	return nil
}

// --- Built-in policy adapters ---

// pdPolicy adapts core.Session, the paper's truly-online algorithm
// maintained over the live suffix of its partition. Its decisions,
// schedule, snapshots and certificate are bit-identical to
// core.Scheduler's, the reference.
type pdPolicy struct {
	s   *core.Session
	ref func() *core.Scheduler // the reference, built with the same parameters
}

func newPD(m int, pm power.Model, opts ...core.Option) *pdPolicy {
	return &pdPolicy{
		s:   core.NewSession(m, pm, opts...),
		ref: func() *core.Scheduler { return core.New(m, pm, opts...) },
	}
}

func (p *pdPolicy) Name() string { return "pd" }

func (p *pdPolicy) Arrive(j job.Job) error {
	_, err := p.s.Arrive(j)
	return err
}

func (p *pdPolicy) Close() (*sched.Schedule, error) { return p.s.Schedule(), nil }

// DualValue exposes PD's dual lower bound g(λ̃) for certificate
// reporting (the CLI discovers it by interface assertion).
func (p *pdPolicy) DualValue() float64 { return p.s.DualValue() }

// IntervalStates recomputes PD's per-interval primal state over the
// instance for -dump. The session keeps no per-interval history, so
// the reference scheduler replays the trace.
func (p *pdPolicy) IntervalStates(in *job.Instance) ([]core.IntervalState, error) {
	inst := in.Clone()
	inst.Normalize()
	ref := p.ref()
	for _, j := range inst.Jobs {
		if _, err := ref.Arrive(j); err != nil {
			return nil, err
		}
	}
	return ref.Snapshot(), nil
}

// Snapshot reports PD's committed plan from the frontier on: work the
// partition still schedules at or after the last arrival, and the
// summed speed of the jobs in the interval that starts there.
func (p *pdPolicy) Snapshot() Snapshot {
	st := p.s.State()
	return Snapshot{
		At: st.Time, Arrivals: st.Arrivals, Pending: st.Pending,
		PendingWork: st.PendingWork, Speed: st.Speed,
	}
}

// liveSession is the shape of the incremental planners in yds.
type liveSession interface {
	Arrive(job.Job) error
	ArriveBatch([]job.Job) (int, error)
	Close() (*sched.Schedule, error)
	State() yds.SessionState
}

// onlinePolicy adapts a yds incremental session: per-arrival latency
// is the algorithm's real replanning cost, and snapshots observe the
// live staircase/density state.
type onlinePolicy struct {
	name string
	s    liveSession
}

func (p *onlinePolicy) Name() string { return p.name }

func (p *onlinePolicy) Arrive(j job.Job) error { return p.s.Arrive(j) }

// ArriveBatch forwards the batched ingest path to the session's own
// batch entry point.
func (p *onlinePolicy) ArriveBatch(js []job.Job) (int, error) { return p.s.ArriveBatch(js) }

func (p *onlinePolicy) Close() (*sched.Schedule, error) { return p.s.Close() }

func (p *onlinePolicy) Snapshot() Snapshot {
	st := p.s.State()
	return Snapshot{
		At: st.Time, Arrivals: st.Arrivals, Pending: st.Pending,
		PendingWork: st.PendingWork, Speed: st.Speed,
	}
}

// batchPolicy adapts whole-instance algorithms (they see arrivals only
// through the recorded instance and plan at Close). Their per-arrival
// latency is meaningless, so Replay reports their cost as PlanTime.
type batchPolicy struct {
	name string
	m    int
	pm   power.Model
	jobs []job.Job
	run  func(*job.Instance, power.Model) (*sched.Schedule, error)
}

func (b *batchPolicy) Name() string { return b.name }

func (b *batchPolicy) Buffered() bool { return true }

func (b *batchPolicy) Arrive(j job.Job) error {
	b.jobs = append(b.jobs, j)
	return nil
}

// ArriveBatch buffers the whole run in one append.
func (b *batchPolicy) ArriveBatch(js []job.Job) (int, error) {
	b.jobs = append(b.jobs, js...)
	return len(js), nil
}

func (b *batchPolicy) Close() (*sched.Schedule, error) {
	in := &job.Instance{M: b.m, Alpha: b.pm.Alpha, Jobs: b.jobs}
	return b.run(in, b.pm)
}

// Snapshot shows the buffered backlog: nothing is planned before Close.
func (b *batchPolicy) Snapshot() Snapshot {
	snap := Snapshot{Arrivals: len(b.jobs), Pending: len(b.jobs), Buffered: true}
	if n := len(b.jobs); n > 0 {
		snap.At = b.jobs[n-1].Release
	}
	for _, j := range b.jobs {
		snap.PendingWork += j.Work
	}
	return snap
}
