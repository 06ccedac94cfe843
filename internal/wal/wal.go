// Package wal is schedd's durability subsystem: a per-tenant
// segmented write-ahead log of accepted arrival batches, group-fsynced
// off the appliers' drain path, with checkpoint/truncate compaction
// and byte-identical crash recovery.
//
// Layout. Every tenant owns a directory under <dir>/tenants/ (the
// tenant id hex-encoded, so arbitrary ids cannot escape the tree):
//
//	tenants/<hex(id)>/
//	  00000001.wal     segment: magic, then framed records
//	  00000002.wal     ...
//	  checkpoint       compacted prefix (atomic tmp+rename)
//
// A record is [length u32][crc32c u32][type u8][payload]; length
// counts type+payload, the CRC (Castagnoli) covers type+payload. The
// first record of segment 1 is the session-open record (an opaque
// payload the caller uses for its Spec), arrival batches are NDJSON
// payloads via job.AppendNDJSON, and a close record marks a cleanly
// finished session. A torn tail — a crash mid-write — fails the CRC
// or the length and is truncated on recovery, never replayed; the
// same damage anywhere before the final segment's tail is corruption
// and refuses recovery instead of silently skipping records.
//
// Durability contract. AppendStamped buffers nothing: the record is
// written to the segment with one write syscall, and the returned
// position becomes durable only after an fsync covers it. A dedicated
// syncer goroutine batches fsyncs across all dirty tenants every
// FsyncInterval — group commit — so the appliers' drain path never
// waits on the disk, and callers that need the ack-after-durable
// guarantee park in WaitDurable until the watermark passes their
// position. FsyncInterval <= 0 degenerates to synchronous appends
// (every AppendStamped fsyncs before returning): the simple mode tests
// use.
//
// The payloads the WAL does not interpret (open records, checkpoint
// meta) belong to the serving layer; this package deals in bytes and
// job batches only, so it sits below internal/serve next to
// internal/job.
package wal

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/job"
	"repro/internal/stats"
)

// Record types. recOpen/recBatch/recStamped/recClose live in
// segments; recCkpt/recCkptEnd frame the checkpoint file;
// recFile/recExportEnd frame an Export stream.
const (
	recOpen      = 1
	recBatch     = 2
	recClose     = 3
	recCkpt      = 4
	recCkptEnd   = 5
	recFile      = 6
	recExportEnd = 7
	recStamped   = 8 // producer-stamped batch: [u16 producer len][producer][u64 seq][NDJSON]
)

const (
	segMagic   = "SWAL0001"
	ckptMagic  = "SCKP0001"
	expMagic   = "SEXP0001"
	frameSize  = 9       // length u32 + crc u32 + type u8
	maxRecord  = 1 << 30 // sanity bound on one record's length field
	maxTenant  = 100     // id bytes; hex doubles it, filenames cap at 255
	ckptChunk  = 4096    // jobs per checkpoint batch record
	defSegSize = 4 << 20
)

// MaxProducer is the longest producer id, in bytes, a stamped record
// can carry: its length travels as a u16.
const MaxProducer = 1<<16 - 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors.
var (
	ErrClosed    = errors.New("wal: log is closed")
	ErrStoreDown = errors.New("wal: store is closed")
	ErrExists    = errors.New("wal: tenant log already exists")
)

// Options sizes a store. The zero value gets synchronous appends and
// 4 MiB segments.
type Options struct {
	// FsyncInterval is the group-commit period of the syncer
	// goroutine; <= 0 means every append fsyncs before returning.
	FsyncInterval time.Duration
	// SegmentBytes is the rotation threshold (default 4 MiB). A record
	// larger than a whole segment still goes in one segment: records
	// are never split across files.
	SegmentBytes int64
}

// Store owns one data directory of per-tenant logs plus the shared
// group-fsync syncer.
type Store struct {
	dir string // <root>/tenants
	opt Options

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool

	dirtyMu sync.Mutex
	dirty   []*Log
	spare   []*Log

	stop chan struct{}
	done chan struct{}

	// Counters the /metrics scrape renders (see AppendPrometheus).
	appends     atomic.Uint64
	appendBytes atomic.Uint64
	fsyncs      atomic.Uint64
	checkpoints atomic.Uint64
	fsyncLat    stats.AtomicHistogram

	// recovered is set once by Recover, before serving starts.
	recovered RecoveryStats
}

// Open opens (creating if needed) the store rooted at dir and starts
// the syncer when the options ask for group commit.
func Open(dir string, opt Options) (*Store, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defSegSize
	}
	tdir := filepath.Join(dir, "tenants")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{
		dir:  tdir,
		opt:  opt,
		logs: make(map[string]*Log),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if opt.FsyncInterval > 0 {
		go s.syncLoop()
	} else {
		close(s.done)
	}
	return s, nil
}

// Close stops the syncer after a final group fsync and closes every
// open log (their data stays on disk for the next boot's recovery —
// a clean daemon drain removes tenant dirs itself, via each log's
// CloseAndRemove).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()

	if s.opt.FsyncInterval > 0 {
		close(s.stop)
		<-s.done
	}
	var err error
	for _, l := range logs {
		if cerr := l.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// encTenant maps an arbitrary tenant id onto a filesystem-safe
// directory name, reversibly.
func encTenant(id string) string { return hex.EncodeToString([]byte(id)) }

func decTenant(name string) (string, error) {
	b, err := hex.DecodeString(name)
	if err != nil {
		return "", fmt.Errorf("wal: tenant dir %q is not a hex id: %w", name, err)
	}
	return string(b), nil
}

// segName renders the n-th segment's file name.
func segName(n uint64) string { return fmt.Sprintf("%08d.wal", n) }

// syncDir fsyncs a directory so freshly created/renamed entries are
// durable, not just the file contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Create opens a fresh log for the tenant and makes its open record —
// the opaque payload the caller will need to rebuild the session, in
// practice the serve layer's {id, spec} JSON — durable before
// returning. A tenant directory that already exists is refused: the
// host's duplicate-session admission owns that case.
func (s *Store) Create(tenant string, open []byte) (*Log, error) {
	if len(tenant) > maxTenant {
		return nil, fmt.Errorf("wal: tenant id longer than %d bytes", maxTenant)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStoreDown
	}
	if _, dup := s.logs[tenant]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, tenant)
	}
	s.mu.Unlock()

	dir := filepath.Join(s.dir, encTenant(tenant))
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("%w: %q", ErrExists, tenant)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		store:  s,
		tenant: tenant,
		dir:    dir,
		seg:    1,
		notify: make(chan struct{}),
	}
	if err := l.openSegment(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l.scratch = appendFrame(l.scratch[:0], recOpen, open)
	if _, err := l.f.Write(l.scratch); err != nil {
		l.f.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.size += int64(len(l.scratch))
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		l.f.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := s.register(l); err != nil {
		l.f.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return l, nil
}

func (s *Store) register(l *Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreDown
	}
	if _, dup := s.logs[l.tenant]; dup {
		return fmt.Errorf("%w: %q", ErrExists, l.tenant)
	}
	s.logs[l.tenant] = l
	return nil
}

func (s *Store) unregister(tenant string) {
	s.mu.Lock()
	delete(s.logs, tenant)
	s.mu.Unlock()
}

// markDirty queues the log for the next group fsync. Steady state
// appends find the log already dirty and pay one flag check.
func (s *Store) markDirty(l *Log) {
	s.dirtyMu.Lock()
	s.dirty = append(s.dirty, l)
	s.dirtyMu.Unlock()
}

// syncLoop is the group-commit syncer: every tick it swaps out the
// dirty list and fsyncs each log once, advancing durable watermarks
// and waking waiters. Batching across tenants means a thousand
// sessions appending within one interval cost a thousand fsyncs per
// interval, not per batch.
func (s *Store) syncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.syncDirty()
		case <-s.stop:
			s.syncDirty()
			return
		}
	}
}

func (s *Store) syncDirty() {
	s.dirtyMu.Lock()
	batch := s.dirty
	s.dirty = s.spare[:0]
	s.spare = batch
	s.dirtyMu.Unlock()
	for _, l := range batch {
		l.syncNow()
	}
}

// Stats is a point-in-time view of the store's counters.
type Stats struct {
	Appends     uint64
	AppendBytes uint64
	Fsyncs      uint64
	Checkpoints uint64
	Recovery    RecoveryStats
}

// FsyncLatency snapshots the fsync latency histogram (seconds) for
// the /metrics scrape.
func (s *Store) FsyncLatency() stats.Histogram { return s.fsyncLat.Snapshot() }

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Appends:     s.appends.Load(),
		AppendBytes: s.appendBytes.Load(),
		Fsyncs:      s.fsyncs.Load(),
		Checkpoints: s.checkpoints.Load(),
		Recovery:    s.recovered,
	}
}

// Log is one tenant's append log. A single writer (the session's
// applier goroutine) appends; the syncer and any number of
// WaitDurable callers synchronize through the log's mutex.
type Log struct {
	store  *Store
	tenant string
	dir    string

	mu       sync.Mutex
	f        *os.File
	seg      uint64 // active segment index
	size     int64  // bytes written to the active segment
	scratch  []byte // reused frame build buffer
	arrivals uint64 // jobs appended over the log's lifetime
	ckptAt   uint64 // arrivals covered by the checkpoint
	durable  uint64 // jobs covered by an fsync
	dirty    bool
	sticky   error // first write/sync error; the log is dead after it
	closed   bool
	notify   chan struct{} // closed+replaced when durable advances
}

// Tenant returns the id the log belongs to.
func (l *Log) Tenant() string { return l.tenant }

// Arrivals returns the number of jobs ever appended (including any
// replayed by recovery).
func (l *Log) Arrivals() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.arrivals
}

// SinceCheckpoint returns the arrivals appended after the latest
// checkpoint — the serve layer's checkpoint-due trigger.
func (l *Log) SinceCheckpoint() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.arrivals - l.ckptAt
}

func (l *Log) usableLocked() error {
	if l.sticky != nil {
		return l.sticky
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// openSegment creates the active segment file, writes its magic and
// makes the new directory entry durable.
func (l *Log) openSegment() error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.size = int64(len(segMagic))
	return nil
}

// rotateLocked seals the active segment — fsyncing it so every record
// it holds is durable — and opens the next one. Called with l.mu held.
// Off the steady-state append path: once per SegmentBytes of log.
//
//schedlint:coldpath
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Everything written so far lives in sealed, fsynced segments.
	l.advanceDurableLocked(l.arrivals)
	l.seg++
	return l.openSegment()
}

// appendFrame appends one framed record to dst.
//
//schedlint:hotpath
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc backfilled below
	at := len(dst)
	dst = append(dst, typ)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[at-4:at], crc32.Checksum(dst[at:], castagnoli))
	return dst
}

// appendBatchFrame builds a batch record around the jobs' NDJSON
// encoding without an intermediate payload buffer. A stamped batch
// (non-empty producer) carries its producer id and sequence in front
// of the jobs, so replay rebuilds the dedup window from the same bytes
// that rebuild the session.
//
//schedlint:hotpath
func appendBatchFrame(dst []byte, producer string, seq uint64, js []job.Job) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, 0) // length backfilled
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc backfilled
	at := len(dst)
	if producer == "" {
		dst = append(dst, recBatch)
	} else {
		dst = append(dst, recStamped)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(producer)))
		dst = append(dst, producer...)
		dst = binary.LittleEndian.AppendUint64(dst, seq)
	}
	dst = job.AppendNDJSON(dst, js)
	binary.LittleEndian.PutUint32(dst[at-8:at-4], uint32(len(dst)-at))
	binary.LittleEndian.PutUint32(dst[at-4:at], crc32.Checksum(dst[at:], castagnoli))
	return dst
}

// AppendStamped logs one drained arrival batch with a single write
// syscall and returns the log position after it (cumulative arrival
// count). The position is NOT yet durable: callers that promised
// durability to a client park in WaitDurable. A producer stamp
// (producer, seq) is journaled with the jobs so recovery can rebuild
// the dedup window byte-identically; an empty producer writes a plain
// batch record through the same code. The record is built in the
// log's reused scratch buffer — the steady-state append path allocates
// nothing.
//
//schedlint:hotpath
func (l *Log) AppendStamped(producer string, seq uint64, js []job.Job) (uint64, error) {
	if len(js) == 0 {
		return l.Arrivals(), nil
	}
	if len(producer) > MaxProducer {
		return 0, fmt.Errorf("wal: producer id longer than %d bytes", MaxProducer) //schedlint:allowalloc rejected-input path, never steady state
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	l.scratch = appendBatchFrame(l.scratch[:0], producer, seq, js)
	if l.size > int64(len(segMagic)) && l.size+int64(len(l.scratch)) > l.store.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.sticky = err
			l.notifyLocked()
			return 0, err
		}
	}
	if _, err := l.f.Write(l.scratch); err != nil {
		l.sticky = fmt.Errorf("wal: %w", err) //schedlint:allowalloc terminal error path, log is dead
		l.notifyLocked()
		return 0, l.sticky
	}
	l.size += int64(len(l.scratch))
	l.arrivals += uint64(len(js))
	l.store.appends.Add(1)
	l.store.appendBytes.Add(uint64(len(l.scratch)))
	if l.store.opt.FsyncInterval <= 0 {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	} else if !l.dirty {
		l.dirty = true
		l.store.markDirty(l)
	}
	return l.arrivals, nil
}

// syncNow is the syncer's per-log step: fsync the active segment and
// advance the durable watermark to everything written before the call.
func (l *Log) syncNow() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dirty = false
	if l.closed || l.sticky != nil {
		return
	}
	l.syncLocked()
}

// syncLocked fsyncs the active segment under l.mu (so rotation and
// close cannot race the file handle) and publishes the new watermark.
// Reached from the steady-state append path only in synchronous mode,
// where the fsync dominates any allocation.
//
//schedlint:coldpath
func (l *Log) syncLocked() error {
	w := l.arrivals
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.sticky = fmt.Errorf("wal: %w", err)
		l.notifyLocked()
		return l.sticky
	}
	l.store.fsyncs.Add(1)
	l.store.fsyncLat.Observe(time.Since(start).Seconds())
	l.advanceDurableLocked(w)
	return nil
}

func (l *Log) advanceDurableLocked(w uint64) {
	if w > l.durable {
		l.durable = w
		l.notifyLocked()
	}
}

// notifyLocked wakes every WaitDurable parked on the log — the
// watermark moved, or the log died and they must stop waiting. Runs
// per fsync or per failure, never per append.
//
//schedlint:coldpath
func (l *Log) notifyLocked() {
	close(l.notify)
	l.notify = make(chan struct{})
}

// WaitDurable parks until the durable watermark reaches pos (a value
// AppendStamped returned), the ctx dies, or the log fails. This is the
// ack-after-durable edge: the HTTP layer answers an arrivals request
// only after the last arrival it queued passes this gate.
func (l *Log) WaitDurable(ctx context.Context, pos uint64) error {
	for {
		l.mu.Lock()
		if l.durable >= pos {
			l.mu.Unlock()
			return nil
		}
		if err := l.usableLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Sync forces an immediate fsync of the active segment — Export's
// quiesce point and a test hook.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.syncLocked()
}

// Close seals the log without touching its data: the active segment
// is fsynced and closed, waiters are released, and the tenant's state
// stays on disk for the next boot's recovery. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if l.sticky == nil {
		err = l.syncLocked()
	}
	l.closed = true
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.notifyLocked()
	l.store.unregister(l.tenant)
	return err
}

// CloseAndRemove finalises a cleanly closed session: a close record
// is appended and made durable (so a crash between here and the
// directory removal still recovers to "closed", not to a zombie
// session), then the tenant's directory is deleted.
func (l *Log) CloseAndRemove() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	var err error
	if l.sticky == nil {
		l.scratch = appendFrame(l.scratch[:0], recClose, nil)
		if _, werr := l.f.Write(l.scratch); werr != nil {
			err = fmt.Errorf("wal: %w", werr)
		} else {
			l.size += int64(len(l.scratch))
			err = l.syncLocked()
		}
	} else {
		err = l.sticky
	}
	l.closed = true
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	l.notifyLocked()
	l.mu.Unlock()

	l.store.unregister(l.tenant)
	if rerr := os.RemoveAll(l.dir); err == nil && rerr != nil {
		err = fmt.Errorf("wal: %w", rerr)
	}
	return err
}
