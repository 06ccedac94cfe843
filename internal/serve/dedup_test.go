// Tests for the exactly-once ingest layer: the per-producer dedup
// window (suppress duplicates, refuse gaps), overload shedding with
// ShedAfter, and the window's byte-identical survival across crash
// recovery — both from the raw stamped records and from checkpoint
// metadata after compaction truncated them.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/wal"
	"repro/internal/workload"
)

func stampJobs(from, n int) []job.Job {
	js := make([]job.Job, n)
	for i := range js {
		id := from + i
		js[i] = job.Job{ID: id, Release: float64(id), Deadline: float64(id) + 2, Work: 1, Value: 1}
	}
	return js
}

func TestSubmitStampedDedupWindow(t *testing.T) {
	h := NewHost(Config{})
	s, err := h.Create("dw", engine.Spec{Name: "oa", M: 1, Alpha: 2.2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// seq 0 is a protocol error, not a duplicate.
	if _, _, _, err := s.SubmitStamped(ctx, "p", 0, stampJobs(0, 1)); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("seq 0: %v, want ErrSeqGap", err)
	}
	// First delivery applies.
	acc, pos, dup, err := s.SubmitStamped(ctx, "p", 1, stampJobs(0, 2))
	if err != nil || dup || acc != 2 {
		t.Fatalf("seq 1: acc=%d dup=%v err=%v", acc, dup, err)
	}
	// A retried delivery of the same sequence is suppressed and acks
	// the original's count and position.
	acc2, pos2, dup2, err := s.SubmitStamped(ctx, "p", 1, stampJobs(0, 2))
	if err != nil || !dup2 || acc2 != 2 || pos2 != pos {
		t.Fatalf("seq 1 retry: acc=%d pos=%d dup=%v err=%v (orig pos %d)", acc2, pos2, dup2, err, pos)
	}
	// Skipping ahead is a client bug.
	if _, _, _, err := s.SubmitStamped(ctx, "p", 4, stampJobs(9, 1)); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("seq 4 after 1: %v, want ErrSeqGap", err)
	}
	// An empty batch advances the window without queueing...
	if acc, _, dup, err := s.SubmitStamped(ctx, "p", 2, nil); err != nil || dup || acc != 0 {
		t.Fatalf("empty seq 2: acc=%d dup=%v err=%v", acc, dup, err)
	}
	// ...and its retry is a duplicate like any other.
	if _, _, dup, err := s.SubmitStamped(ctx, "p", 2, nil); err != nil || !dup {
		t.Fatalf("empty seq 2 retry: dup=%v err=%v", dup, err)
	}
	// A second producer has its own window.
	if acc, _, dup, err := s.SubmitStamped(ctx, "q", 1, stampJobs(2, 1)); err != nil || dup || acc != 1 {
		t.Fatalf("producer q seq 1: acc=%d dup=%v err=%v", acc, dup, err)
	}
	if got := h.Metrics().DedupSuppressed(); got != 2 {
		t.Fatalf("dedup counter = %d, want 2", got)
	}
	if _, err := h.Close("dw"); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitStampedShedsUnderOverload(t *testing.T) {
	reg, gate := blockingRegistry(t)
	h := NewHost(Config{MaxBacklog: 2, Registry: reg, ShedAfter: 30 * time.Millisecond})
	s, err := h.Create("shed", engine.Spec{Name: "blocking", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A batch that can never fit the ring is refused outright.
	if _, _, _, err := s.SubmitStamped(ctx, "p", 1, stampJobs(0, 3)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized batch: %v, want ErrTooLarge", err)
	}
	if statusOf(ErrTooLarge) != 413 {
		t.Fatalf("ErrTooLarge status = %d, want 413", statusOf(ErrTooLarge))
	}
	// Park the applier in Arrive and fill the queue.
	parkApplier(t, s, stampJobs(0, 1)[0])
	if _, _, err := s.SubmitBatch(ctx, stampJobs(1, 2)); err != nil {
		t.Fatalf("fill: %v", err)
	}
	if s.Backlog() != 2 {
		t.Fatalf("backlog = %d, want 2", s.Backlog())
	}
	// Full past the shed deadline: degrade with ErrOverloaded (429 +
	// Retry-After upstairs) instead of stalling forever.
	if _, _, _, err := s.SubmitStamped(ctx, "p", 1, stampJobs(5, 1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("stamped into full queue: %v, want ErrOverloaded", err)
	}
	if _, _, err := s.SubmitBatch(ctx, stampJobs(6, 1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("unstamped into full queue: %v, want ErrOverloaded", err)
	}
	if statusOf(ErrOverloaded) != 429 {
		t.Fatalf("ErrOverloaded status = %d, want 429", statusOf(ErrOverloaded))
	}
	if got := h.Metrics().Sheds(); got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}
	// A shed submit consumed no sequence: once load drains, the same
	// (producer, seq) applies fresh.
	close(gate)
	if acc, _, dup, err := s.SubmitStamped(ctx, "p", 1, stampJobs(5, 1)); err != nil || dup || acc != 1 {
		t.Fatalf("retry after shed: acc=%d dup=%v err=%v", acc, dup, err)
	}
	if _, err := h.Close("shed"); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitStampedProducerWindowSaturation(t *testing.T) {
	h := NewHost(Config{MaxProducers: 2})
	s, err := h.Create("sat", engine.Spec{Name: "oa", M: 1, Alpha: 2.2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, p := range []string{"a", "b"} {
		if _, _, _, err := s.SubmitStamped(ctx, p, 1, stampJobs(i, 1)); err != nil {
			t.Fatalf("producer %s: %v", p, err)
		}
	}
	// The window is saturated: a third producer is shed, known
	// producers keep flowing.
	if _, _, _, err := s.SubmitStamped(ctx, "c", 1, stampJobs(5, 1)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third producer: %v, want ErrOverloaded", err)
	}
	if _, _, _, err := s.SubmitStamped(ctx, "a", 2, stampJobs(6, 1)); err != nil {
		t.Fatalf("known producer after saturation: %v", err)
	}
	if _, err := h.Close("sat"); err != nil {
		t.Fatal(err)
	}
}

// TestStampedWindowSurvivesRecovery is the exactly-once crash
// differential at the serve layer: after a kill, recovery must rebuild
// every producer window from the log so a post-crash retry of an acked
// batch is suppressed, not re-applied — and the recovered session's
// result must still match the uninterrupted replay.
func TestStampedWindowSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st})
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.5}
	in := workload.Poisson(workload.Config{N: 30, M: 1, Alpha: 2.5, Seed: 7, ValueScale: 3})
	s, err := h.Create("xo", spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two producers interleaved with an unstamped run, as a real fleet
	// (stamped loadgen plus legacy client) would produce.
	if _, _, _, err := s.SubmitStamped(ctx, "p1", 1, in.Jobs[:10]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBatch(ctx, in.Jobs[10:15]); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.SubmitStamped(ctx, "p2", 1, in.Jobs[15:20]); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.SubmitStamped(ctx, "p1", 2, in.Jobs[20:25]); err != nil {
		t.Fatal(err)
	}
	crash(t, h, st)

	h2, st2, _ := recoverHost(t, dir, Config{})
	defer st2.Close()
	s2, err := h2.Get("xo")
	if err != nil {
		t.Fatal(err)
	}
	// Post-crash retries of each producer's in-flight (newest) batch
	// are duplicates, acked from the rebuilt window at an
	// already-durable position. (The protocol is one batch in flight
	// per producer, so only the newest sequence is ever retried — the
	// window records exactly that batch's accepted count.)
	for _, c := range []struct {
		prod string
		seq  uint64
		js   []job.Job
		acc  int
	}{{"p1", 2, in.Jobs[20:25], 5}, {"p2", 1, in.Jobs[15:20], 5}} {
		acc, pos, dup, err := s2.SubmitStamped(ctx, c.prod, c.seq, c.js)
		if err != nil || !dup || acc != c.acc {
			t.Fatalf("recovered retry %s/%d: acc=%d dup=%v err=%v", c.prod, c.seq, acc, dup, err)
		}
		if err := s2.waitDurable(ctx, pos); err != nil {
			t.Fatalf("recovered retry %s/%d durable wait: %v", c.prod, c.seq, err)
		}
	}
	// Fresh sequences continue where the window left off.
	if _, _, dup, err := s2.SubmitStamped(ctx, "p1", 3, in.Jobs[25:]); err != nil || dup {
		t.Fatalf("fresh seq after recovery: dup=%v err=%v", dup, err)
	}
	res, err := h2.Close("xo")
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(maskTimes(wantRes[0]))
	bj, _ := json.Marshal(maskTimes(res))
	if !bytes.Equal(aj, bj) {
		t.Fatalf("recovered exactly-once run differs from replay:\n%s\nvs\n%s", aj, bj)
	}
}

// TestWaitDurableCancellation pins the ack gate's context behavior: a
// caller abandoning its durable wait must return promptly (no parked
// waiter survives the cancel), must not poison the gate for later
// callers, and — the exactly-once half — the batch whose ack was lost
// is still recoverable and its retry dedup-suppressed.
func TestWaitDurableCancellation(t *testing.T) {
	dir := t.TempDir()
	// An hour-long group-commit interval: nothing becomes durable
	// unless the test forces a sync, so waiters genuinely park.
	st, err := wal.Open(dir, wal.Options{FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st})
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.5}
	in := workload.Poisson(workload.Config{N: 20, M: 1, Alpha: 2.5, Seed: 3, ValueScale: 3})
	s, err := h.Create("wd", spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, pos, _, err := s.SubmitStamped(ctx, "p", 1, in.Jobs[:10])
	if err != nil {
		t.Fatal(err)
	}

	// Park a crowd of ack waiters on the not-yet-durable position, then
	// cancel them all: every one must return context.Canceled promptly.
	cctx, cancel := context.WithCancel(ctx)
	const waiters = 32
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { errs <- s.waitDurable(cctx, pos) }()
	}
	time.Sleep(10 * time.Millisecond) // let them reach the park point
	cancel()
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned waiter %d: %v, want context.Canceled", i, err)
		}
	}

	// The canceled waits left no state behind: once the log syncs, a
	// fresh wait on the same position completes immediately.
	if err := s.wlog.Sync(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.waitDurable(ctx, pos) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-sync wait: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-sync wait still parked: canceled waiters broke the gate")
	}

	// The ack was lost, not the batch: after a crash the recovered
	// window suppresses the client's inevitable retry, and the run
	// still matches the uninterrupted replay.
	crash(t, h, st)
	h2, st2, _ := recoverHost(t, dir, Config{})
	defer st2.Close()
	s2, err := h2.Get("wd")
	if err != nil {
		t.Fatal(err)
	}
	if acc, _, dup, err := s2.SubmitStamped(ctx, "p", 1, in.Jobs[:10]); err != nil || !dup || acc != 10 {
		t.Fatalf("retry after canceled ack: acc=%d dup=%v err=%v", acc, dup, err)
	}
	if _, _, _, err := s2.SubmitStamped(ctx, "p", 2, in.Jobs[10:]); err != nil {
		t.Fatal(err)
	}
	res, err := h2.Close("wd")
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(maskTimes(wantRes[0]))
	bj, _ := json.Marshal(maskTimes(res))
	if !bytes.Equal(aj, bj) {
		t.Fatalf("canceled-ack run differs from replay:\n%s\nvs\n%s", aj, bj)
	}
}

// TestStampedWindowSurvivesCheckpoint pins the compaction path: once a
// checkpoint truncates the stamped records, the window must come back
// from checkpoint metadata alone.
func TestStampedWindowSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st, CheckpointEvery: 40})
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.5}
	in := workload.Poisson(workload.Config{N: 200, M: 1, Alpha: 2.5, Seed: 11, ValueScale: 3})
	s, err := h.Create("ck", spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < len(in.Jobs); i += 20 {
		end := i + 20
		if end > len(in.Jobs) {
			end = len(in.Jobs)
		}
		if _, _, _, err := s.SubmitStamped(ctx, "prod", uint64(i/20+1), in.Jobs[i:end]); err != nil {
			t.Fatalf("batch %d: %v", i/20, err)
		}
	}
	if err := waitAdmitted(ctx, s); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); st.Stats().Checkpoints == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint happened; the test would not cover compaction")
		}
		time.Sleep(time.Millisecond)
	}
	td, err := os.ReadDir(filepath.Join(dir, "tenants"))
	if err != nil || len(td) != 1 {
		t.Fatalf("tenant dirs: %v, %v", td, err)
	}
	crash(t, h, st)

	h2, st2, _ := recoverHost(t, dir, Config{CheckpointEvery: 40})
	defer st2.Close()
	s2, err := h2.Get("ck")
	if err != nil {
		t.Fatal(err)
	}
	// The last acked sequence survives compaction via checkpoint meta.
	last := uint64((len(in.Jobs) + 19) / 20)
	if acc, _, dup, err := s2.SubmitStamped(ctx, "prod", last, in.Jobs[len(in.Jobs)-20:]); err != nil || !dup || acc != 20 {
		t.Fatalf("post-checkpoint retry: acc=%d dup=%v err=%v", acc, dup, err)
	}
	res, err := h2.Close("ck")
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(maskTimes(wantRes[0]))
	bj, _ := json.Marshal(maskTimes(res))
	if !bytes.Equal(aj, bj) {
		t.Fatalf("post-checkpoint exactly-once run differs from replay:\n%s\nvs\n%s", aj, bj)
	}
}

// TestOversizedProducerIDRefused pins the producer-id bound at the
// wire: an id longer than a WAL record can carry is refused with 400
// at once, before the dedup window or the ring sees it, and an id of
// exactly the bound is served. Admitted, the oversized batch would
// fail its WAL append, park its ack on a log position that never
// arrives, and poison the session for every later request and its
// final Result.
func TestOversizedProducerIDRefused(t *testing.T) {
	store, err := wal.Open(t.TempDir(), wal.Options{FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	h := NewHost(Config{WAL: store})
	handler := NewHandler(h)
	if _, err := h.Create("t", engine.Spec{Name: "oa", M: 1, Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("p", wal.MaxProducer+1)
	start := time.Now()
	code, raw := postArrivals(t, handler, "t", long, "1", ndjsonLine(mkJob(0, 0)))
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "producer id longer than") {
		t.Fatalf("oversized producer id answered %d %s after %v, want 400 at once", code, raw, time.Since(start))
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("oversized producer id refused after %v, want at once", d)
	}
	if code, raw := postArrivals(t, handler, "t", long[:wal.MaxProducer], "1", ndjsonLine(mkJob(1, 1))); code != http.StatusOK {
		t.Fatalf("producer id of exactly %d bytes answered %d %s", wal.MaxProducer, code, raw)
	}
	if code, raw := postArrivals(t, handler, "t", "p", "1", ndjsonLine(mkJob(2, 2))); code != http.StatusOK {
		t.Fatalf("stamped request after the refusal answered %d %s", code, raw)
	}
	if code, raw := postArrivals(t, handler, "t", "", "", ndjsonLine(mkJob(3, 3))); code != http.StatusOK {
		t.Fatalf("unstamped request after the refusal answered %d %s", code, raw)
	}
	res, err := h.Close("t")
	if err != nil {
		t.Fatalf("close after the refusal: %v", err)
	}
	if res.Schedule == nil || res.Rejected != 0 {
		t.Fatalf("result after the refusal = %+v", res)
	}
}
