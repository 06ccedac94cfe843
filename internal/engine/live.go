// Live is the streaming counterpart of Replay: the same lifecycle —
// validate every arrival, meter the policy's decision latency, verify
// the final schedule independently — but driven by batches of arrivals
// delivered over a session's lifetime instead of a finished trace.
// The serving daemon hosts one Live per tenant; fed the same jobs in
// the same order, Live and Replay produce byte-identical Results
// (modulo wall-clock timings), which the differential tests pin.

package engine

import (
	"fmt"
	"time"

	"repro/internal/job"
)

// Live drives one policy through a stream of arrivals. It accumulates
// the implied instance as jobs arrive so that Close can verify the
// schedule against exactly what the policy was shown. Live is not
// synchronized: callers feeding it from multiple goroutines must
// serialize (the serve package does, per tenant).
type Live struct {
	p       Policy
	m       int
	alpha   float64
	jobs    []job.Job
	seen    map[int]struct{}
	lastRel float64
	res     Result
	closed  bool
}

// NewLive validates the spec against the registry and opens a
// streaming run with a fresh policy.
func (r *Registry) NewLive(spec Spec) (*Live, error) {
	p, err := r.New(spec)
	if err != nil {
		return nil, err
	}
	return &Live{
		p: p, m: spec.M, alpha: spec.Alpha,
		seen: make(map[int]struct{}),
		res:  Result{Policy: p.Name()},
	}, nil
}

// NewLive opens a streaming run from the default registry.
func NewLive(spec Spec) (*Live, error) { return DefaultRegistry().NewLive(spec) }

// Policy returns the resolved policy's name.
func (l *Live) Policy() string { return l.p.Name() }

// Arrivals returns the number of jobs accepted so far.
func (l *Live) Arrivals() int { return len(l.jobs) }

// History returns the accepted arrivals in application order — the
// run's full deterministic input, which together with the Spec is
// everything a byte-identical rebuild needs (the WAL's checkpoint
// writer persists exactly this). The slice aliases live state: callers
// must not mutate it and must not hold it across further arrivals.
func (l *Live) History() []job.Job { return l.jobs }

// ApplyBatch validates each arrival (well-formed, unique ID,
// nondecreasing release — the order every online algorithm here
// assumes) and applies the run in one call — the serving daemon's
// ingest path: the per-tenant applier drains everything queued and
// hands it here, paying one latency measurement and (through
// BatchArriver policies) one coalesced replan per same-release group
// instead of per job. It returns how many jobs were applied. On an
// error the batch stops there: the applied prefix stays, the offending
// and remaining jobs are dropped, and the run stays usable for further
// arrivals and Close; the caller records the error (the host fails
// later submits fast and surfaces it at Close, so a poisoned stream
// cannot masquerade as a clean run). Under any batch boundaries the
// Result is byte-identical (modulo wall-clock timings) to Replay's
// one-job-at-a-time Arrive — pinned by differential tests.
func (l *Live) ApplyBatch(js []job.Job) (int, error) {
	if l.closed {
		return 0, fmt.Errorf("engine: live run already closed, cannot accept a batch of %d jobs", len(js))
	}
	if len(js) == 0 {
		return 0, nil
	}
	// Validate the maximal clean prefix, recording it optimistically
	// (the duplicate check must see earlier jobs of this same batch).
	base := len(l.jobs)
	valid := 0
	var verr error
	for _, j := range js {
		if err := j.Validate(); err != nil {
			verr = err
			break
		}
		if _, dup := l.seen[j.ID]; dup {
			verr = fmt.Errorf("engine: duplicate job ID %d", j.ID)
			break
		}
		if len(l.jobs) > 0 && j.Release < l.lastRel {
			verr = fmt.Errorf("engine: job %d released at %v arrives after frontier %v (arrivals must be in release order)",
				j.ID, j.Release, l.lastRel)
			break
		}
		l.seen[j.ID] = struct{}{}
		l.jobs = append(l.jobs, j)
		l.lastRel = j.Release
		valid++
	}

	applied := valid
	var perr error
	if valid > 0 {
		start := time.Now()
		if ba, ok := l.p.(BatchArriver); ok {
			applied, perr = ba.ArriveBatch(l.jobs[base : base+valid])
		} else {
			applied = 0
			for _, j := range l.jobs[base : base+valid] {
				if err := l.p.Arrive(j); err != nil {
					perr = err
					break
				}
				applied++
			}
		}
		d := time.Since(start)
		l.res.TotalArrive += d
		if d > l.res.MaxArrive {
			l.res.MaxArrive = d
		}
	}
	if applied < valid {
		// The policy refused mid-batch: unrecord what it did not absorb
		// so Close verifies against exactly what the policy saw.
		for _, j := range l.jobs[base+applied:] {
			delete(l.seen, j.ID)
		}
		l.jobs = l.jobs[:base+applied]
		if len(l.jobs) > 0 {
			l.lastRel = l.jobs[len(l.jobs)-1].Release
		} else {
			l.lastRel = 0
		}
	}
	if perr != nil {
		return applied, fmt.Errorf("engine: %s rejected arrival: %w", l.p.Name(), perr)
	}
	if verr != nil {
		return applied, verr
	}
	return applied, nil
}

// Snapshot observes the live plan mid-stream through the policy's
// Session face; policies without one (custom batch registrations) get
// a backlog-only view with Buffered set, mirroring batchPolicy.
func (l *Live) Snapshot() Snapshot {
	if s, ok := SessionOf(l.p); ok {
		return s.Snapshot()
	}
	snap := Snapshot{At: l.lastRel, Arrivals: len(l.jobs), Pending: len(l.jobs), Buffered: true}
	for _, j := range l.jobs {
		snap.PendingWork += j.Work
	}
	return snap
}

// Close finalises the run: the policy plans (PlanTime), the schedule
// is verified against the accumulated instance, and the uniform
// Result is returned — through the same finish Replay calls.
// Close is one-shot; a second call errors.
func (l *Live) Close() (*Result, error) {
	if l.closed {
		return nil, fmt.Errorf("engine: live run already closed")
	}
	l.closed = true
	inst := &job.Instance{M: l.m, Alpha: l.alpha, Jobs: l.jobs}
	if err := finish(l.p, inst, &l.res); err != nil {
		return nil, err
	}
	res := l.res
	return &res, nil
}
