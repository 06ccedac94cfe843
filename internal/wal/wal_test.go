package wal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/job"
)

func mkJobs(base, n int) []job.Job {
	js := make([]job.Job, n)
	for i := range js {
		id := base + i
		js[i] = job.Job{ID: id, Release: float64(id), Deadline: float64(id) + 10, Work: 1.5, Value: 5}
	}
	return js
}

func tenantDir(root, tenant string) string {
	return filepath.Join(root, "tenants", encTenant(tenant))
}

// replayAll recovers every tenant of a store, collecting the replayed
// arrivals per tenant and the resumed logs.
func replayAll(t *testing.T, st *Store) (map[string][]job.Job, map[string]*Log, map[string]*Recovered, RecoveryStats) {
	t.Helper()
	got := map[string][]job.Job{}
	logs := map[string]*Log{}
	recs := map[string]*Recovered{}
	stats, err := st.Recover(func(r *Recovered) error {
		collect := func(js []job.Job) error {
			got[r.Tenant] = append(got[r.Tenant], append([]job.Job(nil), js...)...)
			return nil
		}
		if err := r.ReplayCheckpoint(collect); err != nil {
			return err
		}
		if err := r.ReplayTail(func(js []job.Job, _ Stamp) error { return collect(js) }); err != nil {
			return err
		}
		l, err := r.Resume()
		if err != nil {
			return err
		}
		logs[r.Tenant] = l
		recs[r.Tenant] = r
		return nil
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return got, logs, recs, stats
}

// TestAppendRecoverRoundTrip pins the basic durability loop: open a
// tenant, log batches, close the store as a crash would (no tenant
// removal), recover, and get the open payload and every arrival back
// in order — then keep appending on the resumed log.
func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := []byte(`{"id":"t-1","spec":{"name":"oa"}}`)
	l, err := st.Create("t-1", open)
	if err != nil {
		t.Fatal(err)
	}
	var want []job.Job
	for i := 0; i < 5; i++ {
		js := mkJobs(i*10, 7)
		pos, err := l.AppendStamped("", 0, js)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, js...)
		if pos != uint64(len(want)) {
			t.Fatalf("AppendStamped pos = %d, want %d", pos, len(want))
		}
		// Sync mode: the position is durable before AppendStamped returns.
		if err := l.WaitDurable(context.Background(), pos); err != nil {
			t.Fatalf("WaitDurable(%d): %v", pos, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, logs, recs, stats := replayAll(t, st2)
	if stats.Sessions != 1 || stats.Arrivals != uint64(len(want)) || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v, want 1 session, %d arrivals, no torn bytes", stats, len(want))
	}
	if string(recs["t-1"].Open) != string(open) {
		t.Fatalf("open payload = %s, want %s", recs["t-1"].Open, open)
	}
	if !reflect.DeepEqual(got["t-1"], want) {
		t.Fatalf("replayed %d arrivals, want %d identical", len(got["t-1"]), len(want))
	}
	l2 := logs["t-1"]
	if l2.Arrivals() != uint64(len(want)) {
		t.Fatalf("resumed arrivals = %d, want %d", l2.Arrivals(), len(want))
	}
	if _, err := l2.AppendStamped("", 0, mkJobs(1000, 3)); err != nil {
		t.Fatalf("append on resumed log: %v", err)
	}
}

// TestGroupFsync runs the syncer path: appends are acked durable
// within an interval, and a context deadline is honored when the
// syncer never fires.
func TestGroupFsync(t *testing.T) {
	st, err := Open(t.TempDir(), Options{FsyncInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := st.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	pos, err := l.AppendStamped("", 0, mkJobs(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.WaitDurable(ctx, pos); err != nil {
		t.Fatalf("WaitDurable under group fsync: %v", err)
	}
	if got := st.Stats().Fsyncs; got == 0 {
		t.Fatal("no fsyncs counted after a durable ack")
	}

	// A syncer that cannot fire in time surfaces the caller's deadline.
	st2, err := Open(t.TempDir(), Options{FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	l2, err := st2.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	pos2, err := l2.AppendStamped("", 0, mkJobs(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if err := l2.WaitDurable(ctx2, pos2); err != context.DeadlineExceeded {
		t.Fatalf("WaitDurable = %v, want context.DeadlineExceeded", err)
	}
}

// TestTornTail truncates the final record mid-frame: recovery must
// stop at the last valid record, count the dropped bytes, and resume
// a log that accepts further appends — never replay half a record.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{})
	l, err := st.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendStamped("", 0, mkJobs(0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendStamped("", 0, mkJobs(10, 3)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	seg := filepath.Join(tenantDir(dir, "t"), segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2, _ := Open(dir, Options{})
	defer st2.Close()
	got, logs, _, stats := replayAll(t, st2)
	if len(got["t"]) != 3 || got["t"][0].ID != 0 {
		t.Fatalf("replayed %d arrivals after torn tail, want the first batch of 3", len(got["t"]))
	}
	// The whole half-written record is dropped, not just the missing 5
	// bytes: a partial frame can never be replayed.
	if stats.TornBytes == 0 || stats.TornTenants != 1 {
		t.Fatalf("stats = %+v, want the torn record counted in 1 tenant", stats)
	}
	if _, err := logs["t"].AppendStamped("", 0, mkJobs(10, 3)); err != nil {
		t.Fatalf("append after torn-tail truncation: %v", err)
	}
}

// TestBitFlipTail flips a byte inside the final record: same contract
// as a truncated tail — the CRC rejects it and recovery truncates.
func TestBitFlipTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{})
	l, err := st.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendStamped("", 0, mkJobs(0, 2))
	l.AppendStamped("", 0, mkJobs(10, 2))
	st.Close()

	seg := filepath.Join(tenantDir(dir, "t"), segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, _ := Open(dir, Options{})
	defer st2.Close()
	got, _, _, stats := replayAll(t, st2)
	if len(got["t"]) != 2 {
		t.Fatalf("replayed %d arrivals after tail bit-flip, want 2", len(got["t"]))
	}
	if stats.TornBytes == 0 {
		t.Fatal("tail bit-flip not counted as torn bytes")
	}
}

// TestBitFlipMidLog flips a byte in a sealed (non-final) segment:
// that cannot be a torn write, so recovery must refuse outright.
func TestBitFlipMidLog(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{SegmentBytes: 64}) // force rotation per batch
	l, err := st.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.AppendStamped("", 0, mkJobs(i*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	td := tenantDir(dir, "t")
	names, _ := os.ReadDir(td)
	if len(names) < 3 {
		t.Fatalf("expected several segments, got %d files", len(names))
	}
	seg := filepath.Join(td, segName(2))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	os.WriteFile(seg, data, 0o644)

	st2, _ := Open(dir, Options{})
	defer st2.Close()
	_, err = st2.Recover(func(r *Recovered) error {
		if err := r.ReplayCheckpoint(func([]job.Job) error { return nil }); err != nil {
			return err
		}
		if err := r.ReplayTail(func([]job.Job, Stamp) error { return nil }); err != nil {
			return err
		}
		_, err := r.Resume()
		return err
	})
	if err == nil {
		t.Fatal("recovery accepted mid-log corruption; must refuse")
	}
}

// TestCheckpointTruncate pins compaction: a checkpoint supersedes the
// old segments (they are deleted), recovery replays checkpoint history
// plus tail, and a second cycle works on the resumed log.
func TestCheckpointTruncate(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{})
	l, err := st.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var all []job.Job
	for i := 0; i < 3; i++ {
		js := mkJobs(i*10, 4)
		l.AppendStamped("", 0, js)
		all = append(all, js...)
	}
	meta := []byte(`{"id":"t","snap":"s1"}`)
	if err := l.Checkpoint(meta, all); err != nil {
		t.Fatal(err)
	}
	if got := l.SinceCheckpoint(); got != 0 {
		t.Fatalf("SinceCheckpoint after checkpoint = %d, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(tenantDir(dir, "t"), segName(1))); !os.IsNotExist(err) {
		t.Fatal("checkpoint did not delete the superseded segment")
	}
	post := mkJobs(100, 4)
	l.AppendStamped("", 0, post)
	all = append(all, post...)
	st.Close()

	st2, _ := Open(dir, Options{})
	got, logs, recs, stats := replayAll(t, st2)
	if string(recs["t"].CkptMeta) != string(meta) {
		t.Fatalf("checkpoint meta = %s, want %s", recs["t"].CkptMeta, meta)
	}
	if recs["t"].Open != nil {
		t.Fatal("open payload should be superseded by the checkpoint")
	}
	if !reflect.DeepEqual(got["t"], all) {
		t.Fatalf("replayed %d arrivals, want %d identical", len(got["t"]), len(all))
	}
	if stats.Arrivals != uint64(len(all)) {
		t.Fatalf("stats.Arrivals = %d, want %d", stats.Arrivals, len(all))
	}

	// Second cycle on the resumed log.
	l2 := logs["t"]
	if err := l2.Checkpoint(meta, all); err != nil {
		t.Fatalf("checkpoint on resumed log: %v", err)
	}
	more := mkJobs(200, 2)
	l2.AppendStamped("", 0, more)
	all = append(all, more...)
	st2.Close()

	st3, _ := Open(dir, Options{})
	defer st3.Close()
	got3, _, _, _ := replayAll(t, st3)
	if !reflect.DeepEqual(got3["t"], all) {
		t.Fatalf("after second checkpoint cycle: replayed %d arrivals, want %d", len(got3["t"]), len(all))
	}
}

// TestCheckpointMisaligned refuses a checkpoint whose history does not
// match the logged arrival count.
func TestCheckpointMisaligned(t *testing.T) {
	st, _ := Open(t.TempDir(), Options{})
	defer st.Close()
	l, err := st.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendStamped("", 0, mkJobs(0, 3))
	if err := l.Checkpoint(nil, mkJobs(0, 2)); err == nil {
		t.Fatal("checkpoint accepted misaligned history")
	}
}

// TestCloseAndRemove removes the tenant directory; a crash between
// the durable close record and the removal recovers to "swept", not
// to a zombie session.
func TestCloseAndRemove(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{})
	l, err := st.Create("gone", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	l.AppendStamped("", 0, mkJobs(0, 2))
	if err := l.CloseAndRemove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tenantDir(dir, "gone")); !os.IsNotExist(err) {
		t.Fatal("CloseAndRemove left the tenant directory")
	}

	// Simulate the crash window: close record durable, dir still there.
	l2, err := st.Create("zombie", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	l2.AppendStamped("", 0, mkJobs(0, 2))
	l2.mu.Lock()
	l2.scratch = appendFrame(l2.scratch[:0], recClose, nil)
	l2.f.Write(l2.scratch)
	l2.f.Sync()
	l2.f.Close()
	l2.closed = true
	l2.mu.Unlock()
	st.Close()

	st2, _ := Open(dir, Options{})
	defer st2.Close()
	got, _, _, stats := replayAll(t, st2)
	if len(got) != 0 || stats.Removed != 1 {
		t.Fatalf("closed tenant not swept: replayed %v, stats %+v", got, stats)
	}
	if _, err := os.Stat(tenantDir(dir, "zombie")); !os.IsNotExist(err) {
		t.Fatal("recovery left the closed tenant's directory")
	}
}

// TestExportImport round-trips a tenant (checkpoint + live tail)
// through the migration stream into a second store, whose recovery
// must replay the identical arrival sequence.
func TestExportImport(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, _ := Open(srcDir, Options{})
	defer src.Close()
	l, err := src.Create("mig", []byte(`{"id":"mig"}`))
	if err != nil {
		t.Fatal(err)
	}
	var all []job.Job
	pre := mkJobs(0, 6)
	l.AppendStamped("", 0, pre)
	all = append(all, pre...)
	if err := l.Checkpoint([]byte(`{"id":"mig"}`), all); err != nil {
		t.Fatal(err)
	}
	post := mkJobs(100, 3)
	l.AppendStamped("", 0, post)
	all = append(all, post...)

	var buf bytes.Buffer
	if err := src.Export("mig", &buf); err != nil {
		t.Fatal(err)
	}

	dst, _ := Open(dstDir, Options{})
	defer dst.Close()
	if err := dst.Import("mig", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := dst.Import("mig", bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("second import of the same tenant must refuse")
	}
	got, _, recs, _ := replayAll(t, dst)
	if !reflect.DeepEqual(got["mig"], all) {
		t.Fatalf("imported replay: %d arrivals, want %d identical", len(got["mig"]), len(all))
	}
	if string(recs["mig"].CkptMeta) != `{"id":"mig"}` {
		t.Fatalf("imported checkpoint meta = %s", recs["mig"].CkptMeta)
	}

	// A flipped byte in the stream is caught at import, atomically.
	tampered := append([]byte(nil), buf.Bytes()...)
	tampered[len(tampered)-20] ^= 0x01
	dst2, _ := Open(t.TempDir(), Options{})
	defer dst2.Close()
	if err := dst2.Import("mig", bytes.NewReader(tampered)); err == nil {
		t.Fatal("import accepted a tampered stream")
	}
}

// TestSegmentRotation drives the log across many small segments and
// recovers every arrival back.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir, Options{SegmentBytes: 256})
	l, err := st.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var all []job.Job
	for i := 0; i < 20; i++ {
		js := mkJobs(i*10, 3)
		if _, err := l.AppendStamped("", 0, js); err != nil {
			t.Fatal(err)
		}
		all = append(all, js...)
	}
	st.Close()
	st2, _ := Open(dir, Options{})
	defer st2.Close()
	got, _, _, _ := replayAll(t, st2)
	if !reflect.DeepEqual(got["t"], all) {
		t.Fatalf("rotation replay: %d arrivals, want %d identical", len(got["t"]), len(all))
	}
}

// TestAppendBatchAllocs pins the hot append path allocation-free in
// steady state (group-fsync mode, scratch warm, log already dirty).
func TestAppendBatchAllocs(t *testing.T) {
	st, _ := Open(t.TempDir(), Options{FsyncInterval: time.Hour, SegmentBytes: 1 << 30})
	defer st.Close()
	l, err := st.Create("t", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	js := mkJobs(0, 8)
	if _, err := l.AppendStamped("", 0, js); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := l.AppendStamped("", 0, js); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.01 {
		t.Errorf("AppendStamped allocates %.3f per batch in steady state, want 0", avg)
	}
}

// TestStampedRoundTrip pins the idempotent-producer journal shape:
// stamped and unstamped batches interleave in one log, and recovery
// hands every stamp back with its jobs, in order, so the serve layer
// can rebuild its dedup window byte-identically.
func TestStampedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create("s", []byte(`{"id":"s"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendStamped("p1", 1, mkJobs(0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendStamped("", 0, mkJobs(3, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendStamped("p2", 7, mkJobs(5, 1)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var stamps []Stamp
	var got []job.Job
	_, err = st2.Recover(func(r *Recovered) error {
		if err := r.ReplayCheckpoint(func(js []job.Job) error {
			t.Fatal("no checkpoint was written")
			return nil
		}); err != nil {
			return err
		}
		if err := r.ReplayTail(func(js []job.Job, s Stamp) error {
			stamps = append(stamps, s)
			got = append(got, append([]job.Job(nil), js...)...)
			return nil
		}); err != nil {
			return err
		}
		_, err := r.Resume()
		return err
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	want := []Stamp{{Producer: "p1", Seq: 1}, {}, {Producer: "p2", Seq: 7}}
	if !reflect.DeepEqual(stamps, want) {
		t.Fatalf("stamps = %+v, want %+v", stamps, want)
	}
	if !reflect.DeepEqual(got, mkJobs(0, 6)) {
		t.Fatalf("replayed %d arrivals, want the 6 appended ones back byte-identical", len(got))
	}
}
