package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/workload"
)

// submit queues one arrival.
func submit(ctx context.Context, s *Session, j job.Job) error {
	_, _, err := s.SubmitBatch(ctx, []job.Job{j})
	return err
}

// feed streams an instance's jobs into the session in release order.
func feed(t testing.TB, s *Session, in *job.Instance) {
	t.Helper()
	if err := workload.NewStream(in, 0).Play(context.Background(), func(j job.Job) error {
		return submit(context.Background(), s, j)
	}); err != nil {
		t.Fatalf("feeding %s: %v", s.ID, err)
	}
}

// maskTimes zeroes the wall-clock fields so results compare stably.
func maskTimes(r *engine.Result) *engine.Result {
	cp := *r
	cp.MaxArrive, cp.TotalArrive, cp.PlanTime = 0, 0, 0
	return &cp
}

func TestHostServesAndMatchesReplay(t *testing.T) {
	h := NewHost(Config{})
	in := workload.Poisson(workload.Config{N: 30, M: 1, Alpha: 2.2, Seed: 21, ValueScale: 2})
	spec := engine.Spec{Name: "pd", M: 1, Alpha: in.Alpha}

	s, err := h.Create("tenant-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.Get("tenant-a"); err != nil || got != s {
		t.Fatalf("get: %v", err)
	}
	feed(t, s, in)
	res, err := h.Close("tenant-a")
	if err != nil {
		t.Fatal(err)
	}

	want, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(maskTimes(want[0]))
	bj, _ := json.Marshal(maskTimes(res))
	if !bytes.Equal(aj, bj) {
		t.Fatalf("hosted session result differs from batch replay:\n%s\nvs\n%s", aj, bj)
	}
	if _, err := h.Get("tenant-a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("closed session still resolvable: %v", err)
	}
	if _, err := h.Close("tenant-a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double close: %v", err)
	}
	if h.Metrics().SessionsLive() != 0 {
		t.Fatal("live gauge not back to zero")
	}
	if h.Metrics().Arrivals() != 30 {
		t.Fatalf("arrivals counter = %d", h.Metrics().Arrivals())
	}
}

func TestHostAdmissionLimits(t *testing.T) {
	h := NewHost(Config{MaxSessions: 2})
	spec := engine.Spec{Name: "oa", M: 1, Alpha: 2}
	if _, err := h.Create("a", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create("b", spec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create("c", spec); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third create: %v", err)
	}
	if _, err := h.Create("a", spec); !errors.Is(err, ErrAdmission) {
		// Still at the limit: admission fires before the duplicate check.
		t.Fatalf("duplicate at limit: %v", err)
	}
	if _, err := h.Close("a"); err != nil {
		t.Fatal(err)
	}
	// With a slot free, a duplicate id is refused as such.
	if _, err := h.Create("b", spec); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: %v", err)
	}
	// A bad spec must release its reserved slot, and so must the
	// refused duplicate: this create takes the last slot.
	if _, err := h.Create("e", engine.Spec{Name: "nope", M: 1, Alpha: 2}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := h.Create("d", spec); err != nil {
		t.Fatalf("slot leaked by refused creates: %v", err)
	}
}

func TestHostGeneratedIDsAndSharding(t *testing.T) {
	h := NewHost(Config{Shards: 3}) // rounds up to 4
	if len(h.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(h.shards))
	}
	spec := engine.Spec{Name: "avr", M: 1, Alpha: 2}
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		s, err := h.Create("", spec)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.ID] {
			t.Fatalf("generated id %q twice", s.ID)
		}
		seen[s.ID] = true
	}
	ids := h.SessionIDs()
	if len(ids) != 20 {
		t.Fatalf("SessionIDs = %d entries", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("SessionIDs not sorted")
		}
	}
	// Every session is reachable through its shard.
	for id := range seen {
		if _, err := h.Get(id); err != nil {
			t.Fatalf("get %q: %v", id, err)
		}
	}
}

func TestHostDrainFlushesAllResults(t *testing.T) {
	h := NewHost(Config{})
	specs := map[string]engine.Spec{
		"pd":  {Name: "pd", M: 2, Alpha: 2.2},
		"oa":  {Name: "oa", M: 1, Alpha: 2.2},
		"avr": {Name: "avr", M: 1, Alpha: 2.2},
	}
	const perPolicy = 3
	n := 0
	for name, spec := range specs {
		for k := 0; k < perPolicy; k++ {
			in := workload.Uniform(workload.Config{N: 12, M: spec.M, Alpha: spec.Alpha, Seed: int64(100*n + k), ValueScale: 3})
			s, err := h.Create(fmt.Sprintf("%s-%d", name, k), spec)
			if err != nil {
				t.Fatal(err)
			}
			feed(t, s, in)
			n++
		}
	}
	results, err := h.Drain(context.Background())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(results) != n {
		t.Fatalf("drained %d of %d sessions", len(results), n)
	}
	for i, dr := range results {
		if dr.Err != "" || dr.Result == nil {
			t.Fatalf("session %q: err=%q result=%v", dr.ID, dr.Err, dr.Result)
		}
		if dr.Result.Schedule == nil {
			t.Fatalf("session %q: no schedule", dr.ID)
		}
		if i > 0 && results[i-1].ID >= dr.ID {
			t.Fatal("drain results not sorted by id")
		}
	}
	// Draining host refuses new sessions; drain is idempotent.
	if _, err := h.Create("late", specs["oa"]); !errors.Is(err, ErrDraining) {
		t.Fatalf("create while draining: %v", err)
	}
	again, err := h.Drain(context.Background())
	if err != nil || len(again) != 0 {
		t.Fatalf("second drain: %v, %d results", err, len(again))
	}
	if h.Metrics().SessionsLive() != 0 {
		t.Fatal("live gauge nonzero after drain")
	}
}

// blockingPolicy parks in Arrive until released — the deterministic
// stand-in for a slow policy in backpressure and abandoned-drain tests.
type blockingPolicy struct {
	gate <-chan struct{}
	ids  []int
}

func (p *blockingPolicy) Name() string { return "blocking" }

func (p *blockingPolicy) Arrive(j job.Job) error {
	<-p.gate
	p.ids = append(p.ids, j.ID)
	return nil
}

// Close rejects everything it saw: a valid schedule with no segments.
func (p *blockingPolicy) Close() (*sched.Schedule, error) {
	return &sched.Schedule{M: 1, Rejected: p.ids}, nil
}

// parkApplier submits j and waits until the applier has drained it,
// so a blocking policy holds the applier in Arrive and every later
// submit lands in the queue.
func parkApplier(t *testing.T, s *Session, j job.Job) {
	t.Helper()
	if err := submit(context.Background(), s, j); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Backlog() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("applier never took the first arrival")
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingRegistry returns a registry hosting the blocking policy and
// the gate that releases it.
func blockingRegistry(t *testing.T) (*engine.Registry, chan struct{}) {
	t.Helper()
	reg := engine.NewRegistry()
	gate := make(chan struct{})
	if err := reg.Register(engine.Registration{
		Name:    "blocking",
		Summary: "test policy that blocks in Arrive",
		Caps:    engine.Caps{MinM: 1, Profit: true},
		Build:   func(engine.Spec) (engine.Policy, error) { return &blockingPolicy{gate: gate}, nil },
	}); err != nil {
		t.Fatal(err)
	}
	return reg, gate
}

func TestSessionBackpressureBlocksAndHonoursContext(t *testing.T) {
	reg, gate := blockingRegistry(t)
	h := NewHost(Config{MaxBacklog: 2, Registry: reg})
	s, err := h.Create("slow", engine.Spec{Name: "blocking", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int) job.Job {
		return job.Job{ID: id, Release: float64(id), Deadline: float64(id) + 1, Work: 1, Value: 1}
	}
	// Arrival 0 parks the applier in Arrive; 1 and 2 fill the queue.
	parkApplier(t, s, mk(0))
	for i := 1; i < 3; i++ {
		if err := submit(context.Background(), s, mk(i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if s.Backlog() != 2 {
		t.Fatalf("backlog = %d, want 2", s.Backlog())
	}
	// The queue is full: the next submit must block until its ctx dies.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := submit(ctx, s, mk(3)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit into full queue: %v", err)
	}
	// Release the policy: everything drains and the close verifies.
	close(gate)
	res, err := h.Close("slow")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 3 {
		t.Fatalf("rejected = %d, want 3", res.Rejected)
	}
	// Submitting to a closed session fails fast.
	if err := submit(context.Background(), s, mk(9)); !errors.Is(err, ErrClosing) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestDrainAbandonsStuckSession(t *testing.T) {
	reg, gate := blockingRegistry(t)
	h := NewHost(Config{Registry: reg, MaxBacklog: 1})
	s, err := h.Create("stuck", engine.Spec{Name: "blocking", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int) job.Job {
		return job.Job{ID: id, Release: float64(id), Deadline: float64(id) + 1, Work: 1, Value: 1}
	}
	// Arrival 0 parks the applier; arrival 1 fills the 1-slot queue.
	parkApplier(t, s, mk(0))
	if err := submit(context.Background(), s, mk(1)); err != nil {
		t.Fatal(err)
	}
	// A third submitter parks on the full queue (holding the session's
	// read lock) — the drain below must release it, not deadlock on it.
	parked := make(chan error, 1)
	go func() { parked <- submit(context.Background(), s, mk(2)) }()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	results, err := h.Drain(ctx)
	if time.Since(start) > 5*time.Second {
		t.Fatal("drain hung on a stuck policy")
	}
	if err == nil {
		t.Fatal("drain of a stuck session must report an error")
	}
	if len(results) != 1 || results[0].Err == "" || !strings.Contains(results[0].Err, "abandoned") {
		t.Fatalf("drain results = %+v", results)
	}
	select {
	case perr := <-parked:
		if !errors.Is(perr, ErrClosing) {
			t.Fatalf("parked submitter got %v, want ErrClosing", perr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked submitter never released by the drain")
	}
	close(gate) // let the parked goroutine exit
}

func TestDrainCatchesRacingCreate(t *testing.T) {
	// Creates that slip past the draining check concurrently with the
	// drain must still be drained (closed and reported), not orphaned.
	h := NewHost(Config{})
	spec := engine.Spec{Name: "oa", M: 1, Alpha: 2}
	stop := make(chan struct{})
	created := make(chan string, 4096)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				close(created)
				return
			default:
			}
			s, err := h.Create(fmt.Sprintf("racer-%d", i), spec)
			if err != nil {
				continue
			}
			created <- s.ID
		}
	}()
	time.Sleep(5 * time.Millisecond)
	results, err := h.Drain(context.Background())
	close(stop)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	drained := map[string]bool{}
	for _, dr := range results {
		if dr.Result == nil {
			t.Fatalf("session %q drained without result: %q", dr.ID, dr.Err)
		}
		drained[dr.ID] = true
	}
	for id := range created {
		if !drained[id] {
			t.Fatalf("session %q was created but never drained", id)
		}
	}
	if ids := h.SessionIDs(); len(ids) != 0 {
		t.Fatalf("sessions survived drain: %v", ids)
	}
}

func TestSessionArrivalErrorFailsFastAndSurfacesAtClose(t *testing.T) {
	h := NewHost(Config{})
	s, err := h.Create("bad", engine.Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(context.Background(), s, job.Job{ID: 0, Release: 5, Deadline: 6, Work: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	// Out of release order: the applier refuses it asynchronously.
	if err := submit(context.Background(), s, job.Job{ID: 1, Release: 1, Deadline: 2, Work: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	// Eventually later submits fail fast with the recorded error.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := submit(context.Background(), s, job.Job{ID: 2, Release: 9, Deadline: 10, Work: 1, Value: 1})
		if err != nil {
			if !strings.Contains(err.Error(), "release order") {
				t.Fatalf("unexpected submit error: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("arrival error never surfaced to a submit")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := h.Close("bad"); err == nil || !strings.Contains(err.Error(), "arrival refused") {
		t.Fatalf("close must surface the arrival error, got %v", err)
	}
}

func TestSessionSnapshotObservesLivePlan(t *testing.T) {
	h := NewHost(Config{})
	s, err := h.Create("obs", engine.Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(context.Background(), s, job.Job{ID: 0, Release: 0, Deadline: 2, Work: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.Snapshot()
		if snap.Arrivals == 1 {
			if snap.ID != "obs" || snap.Policy != "oa" || snap.Pending != 1 {
				t.Fatalf("snapshot = %+v", snap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("arrival never applied")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := h.Close("obs"); err != nil {
		t.Fatal(err)
	}
}
