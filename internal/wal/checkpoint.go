// Checkpointing: the log's compaction primitive. A session is a
// deterministic function of (spec, accepted arrivals...), so the
// checkpoint persists exactly that — an opaque meta payload the serve
// layer fills with {id, spec, snapshot-at-cut} plus the full accepted
// history re-framed as batch records — and every segment at or below
// the cut becomes garbage. The snapshot inside meta is not replayed;
// recovery rebuilds the session from the history and byte-compares
// its snapshot against the stored one, turning "did replay diverge?"
// into an integrity check instead of a trust assumption.
//
// The file is written cold (tmp + fsync + rename + dir fsync), so a
// crash anywhere mid-checkpoint leaves either the old state (tmp
// swept at recovery) or the new one (stale segments swept at
// recovery) — never a half-checkpoint.

package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/job"
)

// ckptHeader is the first record of a checkpoint file. Meta is opaque
// to the WAL; Arrivals is the cumulative count the history encodes,
// and Seg is the cut: every segment numbered <= Seg is superseded.
type ckptHeader struct {
	Seg      uint64          `json:"seg"`
	Arrivals uint64          `json:"arrivals"`
	Meta     json.RawMessage `json:"meta"`
}

// Checkpoint compacts the log: history must be the session's full
// accepted arrival sequence (engine.Live.History) and must align with
// the logged arrival count — the serve layer guarantees alignment by
// checkpointing only from the applier, only when every logged arrival
// was accepted. On return the checkpoint is durable and the
// superseded segments are deleted; the log keeps appending to a fresh
// tail segment.
func (l *Log) Checkpoint(meta []byte, history []job.Job) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if uint64(len(history)) != l.arrivals {
		return fmt.Errorf("wal: checkpoint misaligned: %d history jobs vs %d logged arrivals", len(history), l.arrivals)
	}
	// Cut below the active segment. A non-empty active segment is
	// sealed first so the checkpoint covers everything logged; an
	// already-empty one (rotation just happened) becomes the tail.
	cut := l.seg
	if l.size > int64(len(segMagic)) {
		if err := l.rotateLocked(); err != nil {
			l.sticky = err
			l.notifyLocked()
			return err
		}
	} else if cut > 0 {
		cut--
	}

	if len(meta) == 0 {
		meta = []byte("null")
	}
	hdr, err := json.Marshal(ckptHeader{Seg: cut, Arrivals: l.arrivals, Meta: meta})
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := filepath.Join(l.dir, "checkpoint.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	werr := func() error {
		if _, err := f.Write([]byte(ckptMagic)); err != nil {
			return err
		}
		b := appendFrame(l.scratch[:0], recCkpt, hdr)
		if _, err := f.Write(b); err != nil {
			return err
		}
		for off := 0; off < len(history); off += ckptChunk {
			end := off + ckptChunk
			if end > len(history) {
				end = len(history)
			}
			b = appendBatchFrame(l.scratch[:0], "", 0, history[off:end])
			if _, err := f.Write(b); err != nil {
				return err
			}
		}
		b = appendFrame(l.scratch[:0], recCkptEnd, nil)
		if _, err := f.Write(b); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, "checkpoint")); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}

	// The rename is the commit point; everything below is cleanup that
	// recovery redoes if a crash interrupts it.
	for n := cut; n >= 1; n-- {
		path := filepath.Join(l.dir, segName(n))
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				break // older segments were removed by a prior checkpoint
			}
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.ckptAt = l.arrivals
	l.store.checkpoints.Add(1)
	return nil
}

// parseCkpt reads and structurally validates a checkpoint file: magic,
// a header record, zero or more batch records, a terminator, nothing
// after. Any damage refuses recovery — the file was written atomically,
// so a bad checkpoint is disk corruption, not a torn write.
func parseCkpt(path string) (*ckptHeader, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, nil, fmt.Errorf("wal: %s: bad checkpoint magic", path)
	}
	body := data[len(ckptMagic):]
	var hdr *ckptHeader
	done := false
	valid, damage, err := walkFrames(body, func(typ byte, payload []byte) error {
		switch {
		case done:
			return fmt.Errorf("record after checkpoint terminator")
		case hdr == nil:
			if typ != recCkpt {
				return fmt.Errorf("checkpoint starts with record type %d, want header", typ)
			}
			h := new(ckptHeader)
			if err := json.Unmarshal(payload, h); err != nil {
				return fmt.Errorf("checkpoint header: %w", err)
			}
			hdr = h
		case typ == recBatch:
		case typ == recCkptEnd:
			done = true
		default:
			return fmt.Errorf("unexpected record type %d in checkpoint", typ)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	if damage != nil {
		return nil, nil, fmt.Errorf("wal: %s: corrupt at byte %d: %w", path, len(ckptMagic)+valid, damage)
	}
	if hdr == nil || !done {
		return nil, nil, fmt.Errorf("wal: %s: incomplete checkpoint", path)
	}
	return hdr, body, nil
}
