package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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

// crash simulates a kill: appliers are stopped after draining what
// was queued (so the "crash point" is deterministic — everything
// admitted is logged), no close records are written, no tenant dirs
// removed, and the store is shut. What is on disk is exactly what a
// SIGKILL at an idle moment leaves.
func crash(t testing.TB, h *Host, st *wal.Store) {
	t.Helper()
	for _, id := range h.SessionIDs() {
		s, err := h.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := waitAdmitted(context.Background(), s); err != nil {
			t.Fatalf("waiting out %s before crash: %v", id, err)
		}
		s.closed.Do(func() { close(s.closeCh) })
		s.queue.close()
		<-s.done
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitAdmitted parks until everything the session has admitted so far
// is durable.
func waitAdmitted(ctx context.Context, s *Session) error {
	s.queue.mu.Lock()
	pos := s.base + s.queue.enq
	s.queue.mu.Unlock()
	return s.waitDurable(ctx, pos)
}

// recoverHost opens a fresh store over dir and rebuilds a host from it.
func recoverHost(t *testing.T, dir string, cfg Config) (*Host, *wal.Store, wal.RecoveryStats) {
	t.Helper()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = st
	h := NewHost(cfg)
	stats, err := h.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return h, st, stats
}

// TestHostWALRecoverDifferential is the package-level crash
// differential: sessions fed through a WAL-backed host, killed, and
// recovered must match the uninterrupted in-memory run byte for byte
// — mid-stream snapshots and final verified Results alike.
func TestHostWALRecoverDifferential(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st})

	tenants := []struct {
		id   string
		spec engine.Spec
		in   *job.Instance
	}{
		{"pd-1", engine.Spec{Name: "pd", M: 1, Alpha: 2.2}, workload.Poisson(workload.Config{N: 60, M: 1, Alpha: 2.2, Seed: 7, ValueScale: 2})},
		{"oa-1", engine.Spec{Name: "oa", M: 1, Alpha: 2}, workload.Poisson(workload.Config{N: 40, M: 1, Alpha: 2, Seed: 8})},
	}
	for _, tn := range tenants {
		s, err := h.Create(tn.id, tn.spec)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, tn.in)
	}
	crash(t, h, st)

	h2, st2, stats := recoverHost(t, dir, Config{})
	defer st2.Close()
	if stats.Sessions != len(tenants) {
		t.Fatalf("recovered %d sessions, want %d (stats %+v)", stats.Sessions, len(tenants), stats)
	}
	for _, tn := range tenants {
		s2, err := h2.Get(tn.id)
		if err != nil {
			t.Fatalf("recovered session %s: %v", tn.id, err)
		}
		// Mid-stream state: byte-identical snapshot to a fresh run fed
		// the same arrivals.
		ref, err := engine.NewLive(tn.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ApplyBatch(tn.in.Jobs); err != nil {
			t.Fatal(err)
		}
		want := ref.Snapshot().AppendJSON(nil)
		got := s2.Snapshot().Snapshot.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s recovered snapshot differs:\n got %s\nwant %s", tn.id, got, want)
		}
		// Final state: byte-identical verified Result to batch replay.
		res, err := h2.Close(tn.id)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{tn.in}, tn.spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(maskTimes(wantRes[0]))
		bj, _ := json.Marshal(maskTimes(res))
		if !bytes.Equal(aj, bj) {
			t.Fatalf("%s recovered result differs from replay:\n%s\nvs\n%s", tn.id, aj, bj)
		}
	}
	// Closing recovered sessions retired their logs: a third boot finds
	// a clean slate.
	_, st3, stats3 := recoverHost(t, dir, Config{})
	defer st3.Close()
	if stats3.Sessions != 0 {
		t.Fatalf("after closing recovered sessions, next boot still finds %d", stats3.Sessions)
	}
}

// TestHostWALCheckpointRecovery drives a session across several
// checkpoint/truncate cycles, crashes, and requires the same
// byte-identical recovery — now from checkpoint + tail instead of a
// full log.
func TestHostWALCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st, CheckpointEvery: 40})
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.5}
	in := workload.Poisson(workload.Config{N: 200, M: 1, Alpha: 2.5, Seed: 11, ValueScale: 3})

	s, err := h.Create("ckpt", spec)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, in)
	if err := waitAdmitted(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	// waitAdmitted covers the append, not the apply: on a starved
	// scheduler (one core under -race) the applier may still be inside
	// its final ApplyBatch here, with maybeCheckpoint yet to run. A
	// checkpoint is inevitable — 200 arrivals since the last cut with
	// CheckpointEvery 40 — so poll for it instead of racing it.
	for deadline := time.Now().Add(10 * time.Second); st.Stats().Checkpoints == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint happened; the test would not cover compaction")
		}
		time.Sleep(time.Millisecond)
	}
	// Compaction really truncated: segment 1 must be gone.
	td, err := os.ReadDir(filepath.Join(dir, "tenants"))
	if err != nil || len(td) != 1 {
		t.Fatalf("tenant dirs: %v, %v", td, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tenants", td[0].Name(), "00000001.wal")); !os.IsNotExist(err) {
		t.Fatal("checkpoint did not truncate segment 1")
	}
	crash(t, h, st)

	h2, st2, stats := recoverHost(t, dir, Config{CheckpointEvery: 40})
	defer st2.Close()
	if stats.Sessions != 1 || stats.Arrivals != 200 {
		t.Fatalf("stats = %+v, want 1 session with all 200 arrivals", stats)
	}
	res, err := h2.Close("ckpt")
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
		t.Fatalf("post-checkpoint recovery differs from replay:\n%s\nvs\n%s", aj, bj)
	}
}

// TestHostWALErrorStateRecovery pins that a refused arrival is part of
// the durable history: after a crash the recovered session is in the
// same error state, failing submits fast and surfacing the same
// refusal at close.
func TestHostWALErrorStateRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st, CheckpointEvery: 4})
	s, err := h.Create("poison", engine.Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	good := make([]job.Job, 6)
	for i := range good {
		good[i] = job.Job{ID: i + 1, Release: float64(i), Deadline: float64(i) + 20, Work: 1, Value: 4}
	}
	if _, _, err := s.SubmitBatch(ctx, good); err != nil {
		t.Fatal(err)
	}
	// Duplicate ID: refused by the engine, but logged all the same.
	dup := []job.Job{{ID: 3, Release: 10, Deadline: 30, Work: 1, Value: 4}}
	if _, _, err := s.SubmitBatch(ctx, dup); err != nil {
		t.Fatal(err) // queued fine; the refusal happens at apply
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.firstErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("refusal never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	crash(t, h, st)

	h2, st2, stats := recoverHost(t, dir, Config{CheckpointEvery: 4})
	defer st2.Close()
	if stats.Sessions != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	s2, err := h2.Get("poison")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.SubmitBatch(ctx, good[:1]); err == nil {
		t.Fatal("recovered error state does not fail submits fast")
	}
	if _, err := h2.Close("poison"); err == nil || !strings.Contains(err.Error(), "duplicate job ID 3") {
		t.Fatalf("recovered close error = %v, want the original duplicate-ID refusal", err)
	}
}

// TestHostWALCloseRetiresLog pins the clean-shutdown side: a closed
// session leaves nothing behind, and a drained host recovers to zero
// sessions.
func TestHostWALCloseRetiresLog(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st})
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2}
	in := workload.Poisson(workload.Config{N: 20, M: 1, Alpha: 2, Seed: 3, ValueScale: 2})
	s, err := h.Create("bye", spec)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, in)
	if _, err := h.Close("bye"); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "tenants")); err != nil || len(ents) != 0 {
		t.Fatalf("closed session left tenant dirs: %v, %v", ents, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, st2, stats := recoverHost(t, dir, Config{})
	defer st2.Close()
	if stats.Sessions != 0 || stats.Removed != 0 {
		t.Fatalf("stats after clean close = %+v, want nothing to recover", stats)
	}
}

// TestHostWALDuplicateAfterRecovery: a recovered tenant occupies its
// id — Create must refuse it as a duplicate, WAL-backed or not.
func TestHostWALDuplicateAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st})
	spec := engine.Spec{Name: "oa", M: 1, Alpha: 2}
	s, err := h.Create("dup", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBatch(context.Background(), []job.Job{{ID: 1, Release: 0, Deadline: 9, Work: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	crash(t, h, st)
	h2, st2, _ := recoverHost(t, dir, Config{})
	defer st2.Close()
	if _, err := h2.Create("dup", spec); err == nil {
		t.Fatal("create over a recovered tenant must refuse")
	} else if got := fmt.Sprint(err); !strings.Contains(got, "already exists") {
		t.Fatalf("unexpected duplicate error: %v", err)
	}
}
