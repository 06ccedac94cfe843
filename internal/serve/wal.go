// The host's durability face: what the serve layer writes into the
// WAL's opaque payloads and how it rebuilds sessions from them.
//
// The WAL stores bytes; this file owns their meaning. A session-open
// record is {"id","spec"} (rendered with the engine's hand encoders,
// byte-identical to encoding/json). A checkpoint's meta is
// {"id","spec","snapshot"} where snapshot is the engine state at the
// cut — not replayed at recovery, but byte-compared against the
// snapshot of the rebuilt session, so a divergent replay refuses to
// serve instead of silently rewriting history.
//
// Recovery ordering: Host.Recover must run after NewHost and before
// any traffic. Each surviving tenant's checkpoint history and log
// tail are streamed through engine.Live.ApplyBatch exactly as the
// applier fed them — same batch boundaries, same refusals — so the
// rebuilt session is byte-identical to the uninterrupted run (modulo
// wall-clock timings), which the crash e2e pins.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/promtext"
	"repro/internal/wal"
)

// walOpen mirrors the session-open payload for decoding.
type walOpen struct {
	ID   string      `json:"id"`
	Spec engine.Spec `json:"spec"`
}

// walCkptMeta mirrors a checkpoint's meta payload for decoding.
// Snapshot stays raw: it is compared byte-for-byte, never re-encoded.
type walCkptMeta struct {
	ID        string          `json:"id"`
	Spec      engine.Spec     `json:"spec"`
	Snapshot  json.RawMessage `json:"snapshot"`
	Producers []ckptProducer  `json:"producers,omitempty"`
}

// ckptProducer is one producer's dedup-window entry in a checkpoint's
// meta: compaction folds stamped records into plain history batches,
// so the window they carried must survive in the meta or a replayed
// duplicate would re-apply after a post-checkpoint crash.
type ckptProducer struct {
	ID       string `json:"id"`
	Seq      uint64 `json:"seq"`
	Accepted int    `json:"accepted"`
}

// appendOpenJSON renders the session-open payload.
func appendOpenJSON(dst []byte, id string, spec engine.Spec) []byte {
	dst = append(dst, `{"id":`...)
	dst = job.AppendString(dst, id)
	dst = append(dst, `,"spec":`...)
	dst = spec.AppendJSON(dst)
	return append(dst, '}')
}

// appendCkptMeta renders a checkpoint's meta payload. Producer windows
// are sorted by id so the meta bytes are deterministic; an empty
// window keeps the pre-dedup byte shape.
func appendCkptMeta(dst []byte, id string, spec engine.Spec, snap engine.Snapshot, wins map[string]walWindow) []byte {
	dst = append(dst, `{"id":`...)
	dst = job.AppendString(dst, id)
	dst = append(dst, `,"spec":`...)
	dst = spec.AppendJSON(dst)
	dst = append(dst, `,"snapshot":`...)
	dst = snap.AppendJSON(dst)
	if len(wins) > 0 {
		ids := make([]string, 0, len(wins))
		for p := range wins {
			ids = append(ids, p)
		}
		sort.Strings(ids)
		dst = append(dst, `,"producers":[`...)
		for i, p := range ids {
			if i > 0 {
				dst = append(dst, ',')
			}
			w := wins[p]
			dst = append(dst, `{"id":`...)
			dst = job.AppendString(dst, p)
			dst = append(dst, `,"seq":`...)
			dst = strconv.AppendUint(dst, w.Seq, 10)
			dst = append(dst, `,"accepted":`...)
			dst = strconv.AppendInt(dst, int64(w.Accepted), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// maybeCheckpoint compacts the session's log when enough arrivals
// accumulated since the last cut. Called by the applier after a clean
// batch, so "logged" and "accepted" agree; any refusal anywhere in
// the stream disables checkpointing for good (the full log must stay
// replayable into the exact error state). Runs on the applier
// goroutine — the checkpoint's file IO stalls this one tenant, never
// the host.
func (s *Session) maybeCheckpoint() {
	every := s.host.cfg.CheckpointEvery
	if s.wlog == nil || every <= 0 || s.wlog.SinceCheckpoint() < uint64(every) {
		return
	}
	if s.firstErr() != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// s.logged is applier-owned and maybeCheckpoint runs on the
	// applier, so the windows written here exactly cover the logged
	// history the checkpoint compacts — never a submitted batch still
	// in the ring, which a crash is allowed to forget.
	meta := appendCkptMeta(nil, s.ID, s.Spec, s.run.Snapshot(), s.logged)
	if err := s.wlog.Checkpoint(meta, s.run.History()); err != nil {
		s.recordErr(fmt.Errorf("checkpoint: %w", err))
	}
}

// waitDurable parks until the absolute log position pos — the one a
// submit returned — is covered by an fsync: the ack-after-durable gate
// the arrivals handler passes through before answering 200. A
// duplicate's position is the original's, already durable or about to
// be.
func (s *Session) waitDurable(ctx context.Context, pos uint64) error {
	if s.wlog == nil {
		return nil
	}
	return s.wlog.WaitDurable(ctx, pos)
}

// Recover rebuilds every session the WAL's data directory survives
// with, registering them on the host exactly as Create would. It must
// run before the host serves traffic and refuses (with an error) on
// any corruption short of a torn tail — the daemon exits rather than
// serve rewritten history.
func (h *Host) Recover() (wal.RecoveryStats, error) {
	if h.cfg.WAL == nil {
		return wal.RecoveryStats{}, nil
	}
	return h.cfg.WAL.Recover(h.recoverOne)
}

// Adopt attaches one tenant whose log was just imported into the
// host's WAL store (wal.Store.Import) — the target half of a live
// migration: the tenant's checkpoint and tail replay through the same
// integrity-gated path as boot-time recovery, and the session goes
// live on this host exactly as if it had always run here.
func (h *Host) Adopt(id string) (*Session, error) {
	if h.cfg.WAL == nil {
		return nil, fmt.Errorf("serve: adopting %q: host has no WAL", id)
	}
	if err := h.cfg.WAL.RecoverTenant(id, h.recoverOne); err != nil {
		return nil, err
	}
	return h.Get(id)
}

// recoverOne rebuilds one surviving tenant from its Recovered handle —
// the shared body of boot-time Recover and per-tenant Adopt.
func (h *Host) recoverOne(r *wal.Recovered) error {
	var id string
	var spec engine.Spec
	var wantSnap []byte
	wins := make(map[string]walWindow)
	if r.CkptMeta != nil {
		var m walCkptMeta
		if err := json.Unmarshal(r.CkptMeta, &m); err != nil {
			return fmt.Errorf("serve: recovering %q: checkpoint meta: %w", r.Tenant, err)
		}
		id, spec, wantSnap = m.ID, m.Spec, m.Snapshot
		// The dedup window at the cut: compaction folded the stamped
		// records into plain history batches, so the meta carries it.
		for _, p := range m.Producers {
			wins[p.ID] = walWindow{Seq: p.Seq, Accepted: p.Accepted}
		}
	} else {
		var m walOpen
		if err := json.Unmarshal(r.Open, &m); err != nil {
			return fmt.Errorf("serve: recovering %q: open record: %w", r.Tenant, err)
		}
		id, spec = m.ID, m.Spec
	}
	if id != r.Tenant {
		return fmt.Errorf("serve: recovering %q: log claims to belong to %q", r.Tenant, id)
	}
	run, err := h.reg.NewLive(spec)
	if err != nil {
		return fmt.Errorf("serve: recovering %q: %w", id, err)
	}
	// Replay with the recorded batch boundaries; a refused arrival
	// is replayed state (the uninterrupted run refused it too), not
	// a recovery failure.
	var firstErr error
	apply := func(js []job.Job) error {
		if _, err := run.ApplyBatch(js); err != nil && firstErr == nil {
			firstErr = err
		}
		return nil
	}
	if err := r.ReplayCheckpoint(apply); err != nil {
		return err
	}
	if wantSnap != nil {
		// Integrity gate: the session rebuilt from checkpointed
		// history must reproduce the exact snapshot stored at the
		// cut. Checkpoints only ever cover clean streams, so a
		// refusal here is corruption too.
		if firstErr != nil {
			return fmt.Errorf("serve: recovering %q: checkpointed history refused an arrival: %v", id, firstErr)
		}
		if got := run.Snapshot().AppendJSON(nil); !bytes.Equal(got, wantSnap) {
			return fmt.Errorf("serve: recovering %q: checkpoint integrity check failed: replayed snapshot %s != stored %s", id, got, wantSnap)
		}
	}
	if err := r.ReplayTail(func(js []job.Job, st wal.Stamp) error {
		if st.Producer != "" {
			// Tail stamps advance the window past the checkpoint's cut —
			// the same admission order the original run journaled.
			wins[st.Producer] = walWindow{Seq: st.Seq, Accepted: len(js)}
		}
		return apply(js)
	}); err != nil {
		return err
	}
	l, err := r.Resume()
	if err != nil {
		return err
	}
	if _, err := h.open(func() (*Session, error) {
		s := h.newSession(id, spec, run, l, wins)
		s.err = firstErr
		return s, nil
	}); err != nil {
		// Leave the log closed, not registered: at boot the daemon exits
		// on this error; on an Adopt the tenant's files stay importable
		// for a retry instead of being pinned by a zombie open log.
		_ = l.Close()
		return fmt.Errorf("serve: recovering %q: %w", id, err)
	}
	return nil
}

// WriteWalMetrics renders the WAL section of the /metrics scrape; a
// host without a WAL writes nothing.
func (h *Host) WriteWalMetrics(w io.Writer) error {
	store := h.cfg.WAL
	if store == nil {
		return nil
	}
	st := store.Stats()
	bp := scrapePool.Get().(*[]byte)
	b := (*bp)[:0]
	b = promtext.AppendUint(b, "schedd_wal_appends_total", "Batches appended to the write-ahead log.", "counter", st.Appends)
	b = promtext.AppendUint(b, "schedd_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", "counter", st.AppendBytes)
	b = promtext.AppendUint(b, "schedd_wal_fsyncs_total", "Group-commit fsyncs issued.", "counter", st.Fsyncs)
	b = promtext.AppendUint(b, "schedd_wal_checkpoints_total", "Checkpoint/truncate compactions completed.", "counter", st.Checkpoints)
	b = promtext.AppendUint(b, "schedd_wal_recovered_sessions", "Sessions rebuilt by the last recovery pass.", "gauge", uint64(st.Recovery.Sessions))
	b = promtext.AppendUint(b, "schedd_wal_recovered_arrivals", "Arrivals replayed by the last recovery pass.", "gauge", st.Recovery.Arrivals)
	b = promtext.AppendUint(b, "schedd_wal_recovery_torn_bytes", "Unacked torn-tail bytes truncated by the last recovery pass.", "gauge", uint64(st.Recovery.TornBytes))
	b = promtext.AppendUint(b, "schedd_wal_recovery_swept_tenants", "Closed or aborted tenant logs swept by the last recovery pass.", "gauge", uint64(st.Recovery.Removed))
	b = promtext.AppendHistogram(b, "schedd_wal_fsync_seconds", "Group-commit fsync latency.", store.FsyncLatency())

	_, err := w.Write(b)
	*bp = b[:0]
	scrapePool.Put(bp)
	return err
}
