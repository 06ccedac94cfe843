// Package serve is the session host behind the schedd daemon: a
// sharded map of tenant → live engine session, created on demand from
// a registry Spec, with admission control (max sessions, bounded
// per-session backlog), per-tenant serialized arrival application,
// graceful drain on shutdown and a Prometheus-rendered metrics core.
//
// Concurrency model: tenant lookups hash into power-of-two shards so
// unrelated tenants never contend on one lock; within a tenant, a
// single applier goroutine drains a bounded arrival queue into the
// engine.Live run, so the policy — which is not synchronized — only
// ever sees one goroutine. Submitting to a full queue blocks, which
// is the backpressure the HTTP layer propagates to clients by simply
// not reading more of their request body.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/pool"
	"repro/internal/wal"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	ErrDraining   = errors.New("serve: host is draining")
	ErrNotFound   = errors.New("serve: no such session")
	ErrDuplicate  = errors.New("serve: session already exists")
	ErrAdmission  = errors.New("serve: session limit reached")
	ErrClosing    = errors.New("serve: session is closing")
	ErrOverloaded = errors.New("serve: overloaded")
	ErrSeqGap     = errors.New("serve: producer sequence gap")
	ErrTooLarge   = errors.New("serve: stamped batch exceeds the backlog bound")
)

// Config sizes the host. The zero value gets sensible defaults.
type Config struct {
	// Shards is the number of map shards, rounded up to a power of two
	// (default 16).
	Shards int
	// MaxSessions bounds concurrently live sessions (default 1024).
	MaxSessions int
	// MaxBacklog bounds each session's queued-but-unapplied arrivals;
	// submits beyond it block (default 256).
	MaxBacklog int
	// Registry resolves session specs (default engine.DefaultRegistry).
	Registry *engine.Registry
	// WAL, when non-nil, makes every session durable: the applier logs
	// each drained batch before applying it, arrivals are acknowledged
	// only after their batch is fsynced (the store's group-commit
	// interval), and Recover rebuilds sessions byte-identical after a
	// crash. Nil keeps the host purely in-memory.
	WAL *wal.Store
	// CheckpointEvery compacts a session's log (checkpoint + truncate)
	// after this many arrivals since the last checkpoint. 0 disables
	// checkpointing; ignored without WAL. A session whose stream ever
	// refused an arrival is never checkpointed again, so the full log
	// stays replayable into the exact error state.
	CheckpointEvery int
	// ShedAfter bounds how long a submit may park on a full queue
	// before the host sheds it with ErrOverloaded (429 + Retry-After at
	// the HTTP layer) instead of stalling the client forever. 0 (the
	// default) keeps the legacy behavior: park until space, ctx death
	// or close. Per-tenant fair by construction — each session parks on
	// its own queue, so one tenant's saturation sheds only that
	// tenant's submits.
	ShedAfter time.Duration
	// MaxProducers bounds each session's dedup window: distinct
	// producer ids tracked per tenant (default 256). A saturated window
	// sheds new producers with ErrOverloaded rather than growing
	// without bound.
	MaxProducers int
	// ClosedResults sizes the host's cache of final Results for closed
	// sessions (default 128), which makes DELETE idempotent: a client
	// whose close ack was lost on the wire retries and receives the
	// same verified Result instead of a 404. Negative disables.
	ClosedResults int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round up to a power of two so shardOf is a mask, not a modulo.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxBacklog <= 0 {
		c.MaxBacklog = 256
	}
	if c.MaxProducers <= 0 {
		c.MaxProducers = 256
	}
	if c.ClosedResults == 0 {
		c.ClosedResults = 128
	}
	if c.Registry == nil {
		c.Registry = engine.DefaultRegistry()
	}
	return c
}

// shard is one slice of the tenant map.
type shard struct {
	mu       sync.Mutex //schedlint:nocallout
	sessions map[string]*Session
}

// Host hosts live sessions for many tenants. Create a Host with
// NewHost; the zero value is not usable.
type Host struct {
	cfg     Config
	reg     *engine.Registry
	shards  []shard
	metrics *Metrics
	// backlog aggregates every session queue's depth so the /metrics
	// scrape never walks the shards.
	backlog atomic.Int64

	mu       sync.Mutex //schedlint:nocallout admission: live count + draining flag
	live     int
	draining bool
	// creating tracks creates that reserved a slot but have not yet
	// registered their session; Drain waits for it after flipping
	// draining, so no session can slip past the drain snapshot.
	creating sync.WaitGroup

	// closed is the bounded FIFO cache of final Results, keyed by
	// tenant id: the idempotent-close window. A DELETE retried after a
	// lost ack finds its Result here instead of a 404.
	closedMu    sync.Mutex
	closedRes   map[string]*engine.Result
	closedOrder []string

	nextID atomic.Uint64
}

// NewHost builds a host from the config.
func NewHost(cfg Config) *Host {
	cfg = cfg.withDefaults()
	h := &Host{
		cfg: cfg, reg: cfg.Registry,
		shards:  make([]shard, cfg.Shards),
		metrics: newMetrics(),
	}
	for i := range h.shards {
		h.shards[i].sessions = make(map[string]*Session)
	}
	if cfg.ClosedResults > 0 {
		h.closedRes = make(map[string]*engine.Result)
	}
	return h
}

// cacheClosed remembers a closed session's final Result (bounded FIFO)
// so a retried DELETE can be answered idempotently.
func (h *Host) cacheClosed(id string, res *engine.Result) {
	if h.closedRes == nil || res == nil {
		return
	}
	h.closedMu.Lock()
	if _, dup := h.closedRes[id]; !dup {
		h.closedOrder = append(h.closedOrder, id)
		if len(h.closedOrder) > h.cfg.ClosedResults {
			evict := h.closedOrder[0]
			h.closedOrder = h.closedOrder[1:]
			delete(h.closedRes, evict)
		}
	}
	h.closedRes[id] = res
	h.closedMu.Unlock()
}

// ClosedResult returns the cached final Result of a recently closed
// session, if the idempotent-close window still holds it.
func (h *Host) ClosedResult(id string) (*engine.Result, bool) {
	if h.closedRes == nil {
		return nil, false
	}
	h.closedMu.Lock()
	res, ok := h.closedRes[id]
	h.closedMu.Unlock()
	return res, ok
}

// Metrics returns the host's metrics core.
func (h *Host) Metrics() *Metrics { return h.metrics }

// Registry returns the registry sessions are resolved against.
func (h *Host) Registry() *engine.Registry { return h.reg }

func (h *Host) shardOf(id string) *shard {
	f := fnv.New32a()
	f.Write([]byte(id))
	return &h.shards[f.Sum32()&uint32(len(h.shards)-1)]
}

// Session is one tenant's live run: a bounded arrival ring drained in
// batches by a dedicated applier goroutine into an engine.Live.
type Session struct {
	// ID is the tenant identifier the session is registered under.
	ID string
	// Spec is the spec the session was created from.
	Spec engine.Spec

	host  *Host
	queue *arrq
	done  chan struct{} // applier exited

	closeCh chan struct{} // closed when closing begins; releases parked submitters
	closed  sync.Once     // guards closeCh

	mu  sync.Mutex // serializes the run against Snapshot/Close
	run *engine.Live

	// wlog is the session's write-ahead log (nil on an in-memory host).
	// Only the applier appends to it, so the logged order is the applied
	// order; base is the log's arrival count when the session attached
	// (zero when fresh, the replayed count when recovered), which maps
	// the queue's enqueue positions onto log positions for durable acks.
	wlog *wal.Log
	base uint64

	// producers is the handler-side dedup window: per producer id, the
	// highest *submitted* sequence with its accepted count and
	// durable-ack log position. A retry whose seq is at or below the
	// window is acked from it without re-applying. Guarded by pmu; each
	// producer entry then serializes its own requests through its own
	// lock (a producer's batches are logically serial — one in flight —
	// so a timed-out original and its retry never race the window).
	pmu       sync.Mutex //schedlint:nocallout dedup window: map get/insert only
	producers map[string]*producer

	// logged is the applier-side dedup window: per producer, the highest
	// sequence actually written to the WAL. Only the applier goroutine
	// touches it (newSession seeds it before the goroutine starts), so the
	// checkpoint — which also runs on the applier — records windows that
	// exactly match the logged history at the cut, never a submitted-
	// but-unlogged batch a crash would lose.
	logged map[string]walWindow

	// err is guarded separately from the run: the applier holds mu for
	// the whole of a (possibly slow) batch apply, and submits must be
	// able to fail fast on a recorded error without waiting for it.
	errMu sync.Mutex
	err   error // first refused arrival; later submits fail fast with it
}

// producer is one producer's slot in the handler-side dedup window.
type producer struct {
	mu       sync.Mutex // serializes same-producer submits (incl. retries of an in-flight batch)
	seq      uint64     // highest submitted sequence; 0 = none yet
	accepted int        // line count of that batch, replayed in duplicate acks
	pos      uint64     // absolute log position of its last job — the durable-ack gate
}

// walWindow is the durable half of a producer's window: what the WAL
// (and so recovery) knows.
type walWindow struct {
	Seq      uint64
	Accepted int
}

// Create opens a session for the tenant id (a fresh "s-<n>" id when
// empty) from the spec. Admission control refuses once MaxSessions
// tenants are live, and a draining host refuses everything.
func (h *Host) Create(id string, spec engine.Spec) (*Session, error) {
	var wlog *wal.Log
	s, err := h.open(func() (*Session, error) {
		run, err := h.reg.NewLive(spec)
		if err != nil {
			return nil, err
		}
		if id == "" {
			id = fmt.Sprintf("s-%d", h.nextID.Add(1))
		}
		if h.cfg.WAL != nil {
			// The open record — everything recovery needs to rebuild the
			// session shell — is durable before the create is acknowledged.
			wlog, err = h.cfg.WAL.Create(id, appendOpenJSON(make([]byte, 0, 128), id, spec))
			if err != nil {
				if errors.Is(err, wal.ErrExists) {
					return nil, fmt.Errorf("%w: %q", ErrDuplicate, id)
				}
				return nil, err
			}
		}
		return h.newSession(id, spec, run, wlog, nil), nil
	})
	if err != nil && wlog != nil {
		_ = wlog.CloseAndRemove() // the id was taken; nothing was ever logged
	}
	return s, err
}

// open is the one session registration path, shared by Create and
// recovery: reserve an admission slot, build the session outside every
// host lock (a policy build or WAL create may be slow), register it
// under its id and start its applier. A failed build or a taken id
// releases the slot.
func (h *Host) open(build func() (*Session, error)) (*Session, error) {
	h.mu.Lock()
	if h.draining {
		h.mu.Unlock()
		return nil, ErrDraining
	}
	if h.live >= h.cfg.MaxSessions {
		h.mu.Unlock()
		h.metrics.admissionRefused()
		return nil, fmt.Errorf("%w (%d live)", ErrAdmission, h.cfg.MaxSessions)
	}
	h.live++ // reserve the slot before the (possibly slow) build
	// The Add happens under h.mu strictly before draining can flip, so
	// Drain's Wait observes every reservation that beat the flag.
	h.creating.Add(1)
	h.mu.Unlock()
	defer h.creating.Done()

	s, err := build()
	if err == nil {
		sh := h.shardOf(s.ID)
		sh.mu.Lock()
		if _, dup := sh.sessions[s.ID]; dup {
			err = fmt.Errorf("%w: %q", ErrDuplicate, s.ID)
		} else {
			sh.sessions[s.ID] = s
		}
		sh.mu.Unlock()
	}
	if err != nil {
		h.mu.Lock()
		h.live--
		h.mu.Unlock()
		return nil, err
	}
	go s.apply()
	h.metrics.sessionOpened()
	return s, nil
}

// newSession builds an unregistered session around a run and its log.
// wins seeds both halves of the dedup window: everything a log already
// holds is durable, so every known producer's ack position is the log's
// current length.
func (h *Host) newSession(id string, spec engine.Spec, run *engine.Live, wlog *wal.Log, wins map[string]walWindow) *Session {
	s := &Session{
		ID: id, Spec: spec, host: h,
		queue:     newArrq(h.cfg.MaxBacklog, &h.backlog),
		done:      make(chan struct{}),
		closeCh:   make(chan struct{}),
		run:       run,
		wlog:      wlog,
		producers: make(map[string]*producer, len(wins)),
		logged:    make(map[string]walWindow, len(wins)),
	}
	if wlog != nil {
		s.base = wlog.Arrivals()
	}
	for p, w := range wins {
		s.producers[p] = &producer{seq: w.Seq, accepted: w.Accepted, pos: s.base}
		s.logged[p] = w
	}
	return s
}

// Get returns the tenant's live session.
func (h *Host) Get(id string) (*Session, error) {
	sh := h.shardOf(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// remove unregisters the session; idempotent.
func (h *Host) remove(id string) bool {
	sh := h.shardOf(id)
	sh.mu.Lock()
	_, ok := sh.sessions[id]
	delete(sh.sessions, id)
	sh.mu.Unlock()
	if ok {
		h.mu.Lock()
		h.live--
		h.mu.Unlock()
		h.metrics.sessionClosed()
	}
	return ok
}

// Close drains and finalises the tenant's session: queued arrivals are
// applied, the policy plans, the schedule is verified, and the final
// Result is returned. The session is unregistered in every case.
func (h *Host) Close(id string) (*engine.Result, error) {
	return h.CloseCtx(context.Background(), id)
}

// CloseCtx is Close with a deadline: a done ctx abandons the wait for
// the applier (the session stays unregistered; its goroutine exits
// whenever the policy returns).
func (h *Host) CloseCtx(ctx context.Context, id string) (*engine.Result, error) {
	s, err := h.Get(id)
	if err != nil {
		return nil, err
	}
	if !h.remove(id) {
		// A concurrent Close won the race to unregister.
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	res, err := s.finish(ctx)
	if err == nil {
		// The idempotent-close window: a retried DELETE whose ack was
		// lost on the wire replays the same verified Result.
		h.cacheClosed(id, res)
	}
	return res, err
}

// Detach seals a session for migration: the tenant is unregistered
// (new submits 404), parked submitters are released, the applier
// drains what was already queued — so everything acked is in the log —
// and the log is closed *keeping* its directory, ready for
// wal.Store.Export. The engine run is abandoned, not finalized: the
// target rebuilds it from the exported log, byte-identical, and this
// host's copy was never asked for a final Result. After the target
// acknowledges the import, the caller drops the source state with the
// WAL store's Remove. A done ctx abandons the wait (the session stays
// unregistered; the log stays open and recovers at next boot).
func (h *Host) Detach(ctx context.Context, id string) error {
	if h.cfg.WAL == nil {
		return fmt.Errorf("serve: detach of %q: host has no WAL to export from", id)
	}
	s, err := h.Get(id)
	if err != nil {
		return err
	}
	if !h.remove(id) {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if err := s.seal(ctx); err != nil {
		return fmt.Errorf("serve: detach of %q abandoned: %w", id, err)
	}
	if err := s.wlog.Close(); err != nil {
		return fmt.Errorf("serve: detach of %q: %w", id, err)
	}
	return nil
}

// Backlog returns the total queued-but-undrained arrivals across all
// sessions (the /metrics backlog gauge). It reads one atomic — the
// metrics scrape takes no shard or session lock.
func (h *Host) Backlog() int {
	if n := h.backlog.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// SessionIDs returns the live tenant ids, sorted.
func (h *Host) SessionIDs() []string {
	var ids []string
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for id := range sh.sessions {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}

// DrainResult is one session's outcome from a host drain.
type DrainResult struct {
	ID     string         `json:"id"`
	Result *engine.Result `json:"result,omitempty"`
	Err    string         `json:"error,omitempty"`
}

// Drain gracefully shuts the host down: new sessions and new arrivals
// are refused, every live session is closed (queued arrivals applied,
// schedules verified) on a bounded worker pool, and all final results
// are flushed back, sorted by tenant id. A done ctx abandons sessions
// not yet closed — they are reported with ctx's error — so a stuck
// policy cannot hold shutdown hostage. Drain is idempotent; later
// calls find no sessions.
func (h *Host) Drain(ctx context.Context) ([]DrainResult, error) {
	h.mu.Lock()
	h.draining = true
	h.mu.Unlock()
	// Creates that passed the draining check before the flag flipped
	// may still be registering; wait them out so the snapshot below
	// sees every session that was ever promised to a client.
	h.creating.Wait()

	ids := h.SessionIDs()
	round := make([]DrainResult, len(ids))
	err := pool.RunCtx(ctx, len(ids), 0, func(i int) error {
		res, err := h.CloseCtx(ctx, ids[i])
		if errors.Is(err, ErrNotFound) {
			// A concurrent DELETE closed it; handled elsewhere.
			return nil
		}
		round[i] = DrainResult{ID: ids[i], Result: res}
		if err != nil {
			round[i].Err = err.Error()
			return fmt.Errorf("session %q: %w", ids[i], err)
		}
		return nil
	})
	out := make([]DrainResult, 0, len(round))
	for i := range round {
		if round[i].ID == "" && ctx.Err() != nil {
			// The cancelled pool never started this slot.
			round[i] = DrainResult{ID: ids[i], Err: context.Cause(ctx).Error()}
		}
		if round[i].ID != "" {
			out = append(out, round[i])
		}
	}
	return out, err
}

// apply is the session's applier goroutine: it alone feeds the run,
// so arrival application is serialized per tenant. Each wakeup drains
// *everything* queued and applies it as one engine.Live.ApplyBatch
// call — one lock acquisition, one latency measurement and, for
// batch-aware policies, one coalesced replan per same-release group,
// instead of all of those per job. Under load the
// queue refills while a batch is being applied, so ingest and
// application pipeline instead of ping-ponging. The applier keeps
// draining after an error (recording only the first) so that blocked
// submitters are never stranded on a full queue.
func (s *Session) apply() {
	defer close(s.done)
	scratch := make([]job.Job, 0, s.host.cfg.MaxBacklog)
	for {
		batch, st, done := s.queue.drainTo(scratch[:0])
		if len(batch) > 0 {
			if s.wlog != nil {
				// Log the raw drained batch — refusals included, so replay
				// reproduces them — before the engine sees it. A stamped
				// batch drains whole and is journaled with its (producer,
				// seq), so recovery rebuilds the dedup window from the
				// same record that rebuilds the session. The append hits
				// the page cache only; durability is the group fsync's
				// job, and acks wait on it, not here. A dead log fails
				// the batch without applying it: state the WAL never saw
				// must not exist in memory either.
				if _, err := s.wlog.AppendStamped(st.producer, st.seq, batch); err != nil {
					s.recordErr(err)
					s.host.metrics.arrivalsFailed(len(batch))
					continue
				}
			}
			if st.producer != "" {
				// Applier-owned: the durable window the next checkpoint
				// meta records. Tracks logged state only, never a
				// submitted batch still in the ring.
				s.logged[st.producer] = walWindow{Seq: st.seq, Accepted: len(batch)}
			}
			s.mu.Lock()
			start := time.Now()
			applied, err := s.run.ApplyBatch(batch)
			d := time.Since(start)
			// Counted before mu is released: a Snapshot that shows
			// these arrivals applied is then never ahead of the
			// applied-arrivals counter.
			s.host.metrics.arrivalsApplied(applied, d)
			s.mu.Unlock()
			if err != nil {
				s.recordErr(err)
				s.host.metrics.arrivalsFailed(len(batch) - applied)
			} else {
				s.maybeCheckpoint()
			}
			continue // the queue may have refilled while we applied
		}
		if done {
			return
		}
		s.queue.waitData()
	}
}

func (s *Session) recordErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// SubmitBatch queues a run of arrivals, blocking while the queue is
// full (the MaxBacklog backpressure bound), and returns how many were
// queued and the log position of the last one — the point the durable
// ack waits on. It stops early — reporting the queued prefix — when the
// ctx dies, the session starts closing, or an earlier arrival was
// refused (fail-fast on the recorded error). The ingest handler decodes
// up to a batch of NDJSON lines and queues them all under one ring
// lock here, which with the batch-draining applier makes the
// per-arrival synchronization cost O(1/batch) instead of O(1).
func (s *Session) SubmitBatch(ctx context.Context, js []job.Job) (int, uint64, error) {
	return s.admit(ctx, js, "", 0)
}

// admit is the admission loop behind SubmitBatch and SubmitStamped: it
// pushes js — an unstamped run as far as it fits, a stamped batch
// whole — and parks on a full ring until the applier frees space, the
// caller gives up, the session starts closing (closeCh releases parked
// submitters even when a stuck policy never frees space), or — with
// ShedAfter set — the shed deadline passes and the host degrades with
// 429 instead of an unbounded stall. It returns how many jobs were
// queued and the absolute log position of the last one.
func (s *Session) admit(ctx context.Context, js []job.Job, producer string, seq uint64) (queued int, pos uint64, err error) {
	var shed <-chan time.Time
	for {
		if err := s.firstErr(); err != nil {
			return queued, pos, err
		}
		k, end, closed := s.queue.push(js, producer, seq)
		if closed {
			return queued, pos, fmt.Errorf("%w: %q", ErrClosing, s.ID)
		}
		if k > 0 {
			queued += k
			pos = s.base + end
			js = js[k:]
		}
		if len(js) == 0 {
			return queued, pos, nil
		}
		if shed == nil && s.host.cfg.ShedAfter > 0 {
			// An unstopped timer is collected once unreferenced (Go 1.23+).
			shed = time.After(s.host.cfg.ShedAfter)
		}
		select {
		case <-s.queue.space:
		case <-ctx.Done():
			return queued, pos, ctx.Err()
		case <-s.closeCh:
			return queued, pos, fmt.Errorf("%w: %q", ErrClosing, s.ID)
		case <-shed:
			s.host.metrics.shedRecorded()
			return queued, pos, fmt.Errorf("%w: %q backlog full for %v", ErrOverloaded, s.ID, s.host.cfg.ShedAfter)
		}
	}
}

// lookupProducer reads the dedup window — the per-request cost of an
// idempotent submit. A map read on a string the HTTP layer already
// holds: no allocation, no new lock beyond pmu.
//
//schedlint:hotpath
func (s *Session) lookupProducer(prod string) *producer {
	s.pmu.Lock()
	p := s.producers[prod]
	s.pmu.Unlock()
	return p
}

// newProducer admits a producer into the dedup window, shedding when
// the window is saturated. Once per producer lifetime — cold.
//
//schedlint:coldpath
func (s *Session) newProducer(prod string) (*producer, error) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if p := s.producers[prod]; p != nil {
		return p, nil
	}
	if len(s.producers) >= s.host.cfg.MaxProducers {
		s.host.metrics.shedRecorded()
		return nil, fmt.Errorf("%w: %q dedup window full (%d producers)", ErrOverloaded, s.ID, s.host.cfg.MaxProducers)
	}
	p := &producer{}
	s.producers[prod] = p
	return p, nil
}

// SubmitStamped queues one producer-stamped batch exactly-once: a
// sequence at or below the producer's window is a duplicate delivery
// (client retry, redirect body replay, post-crash resend) and is acked
// from the window — accepted count and durable position of the
// original — without touching the queue; the next sequence is admitted
// atomically (whole batch, one WAL record downstream) and advances the
// window; anything further ahead is a client bug, refused with
// ErrSeqGap. dup reports the suppressed case; pos is the log position
// the caller must WaitDurable on before acking.
func (s *Session) SubmitStamped(ctx context.Context, prod string, seq uint64, js []job.Job) (accepted int, pos uint64, dup bool, err error) {
	if len(prod) > wal.MaxProducer {
		// Refused before the window or the ring sees it: the WAL could
		// never log the batch, and an admitted batch it cannot log
		// would fail the session and strand this request's ack.
		return 0, 0, false, fmt.Errorf("serve: producer id longer than %d bytes", wal.MaxProducer)
	}
	if seq == 0 {
		return 0, 0, false, fmt.Errorf("%w: producer %q sequence must start at 1", ErrSeqGap, prod)
	}
	p := s.lookupProducer(prod)
	if p == nil {
		if p, err = s.newProducer(prod); err != nil {
			return 0, 0, false, err
		}
	}
	// One producer, one lock: a retry racing its still-in-flight
	// original parks here and then reads the settled window.
	p.mu.Lock()
	defer p.mu.Unlock()
	if seq <= p.seq {
		s.host.metrics.dedupSuppressed()
		return p.accepted, p.pos, true, nil
	}
	if seq != p.seq+1 {
		return 0, 0, false, fmt.Errorf("%w: producer %q sent seq %d after %d", ErrSeqGap, prod, seq, p.seq)
	}
	if len(js) == 0 {
		// An empty batch is a no-op: advance the window (the retry acks
		// as a duplicate) without queueing. Nothing reaches the WAL, so
		// a crash forgets it — and replaying a no-op is still a no-op.
		p.seq, p.accepted = seq, 0
		return 0, p.pos, false, nil
	}
	if len(js) > s.host.cfg.MaxBacklog {
		return 0, 0, false, fmt.Errorf("%w: %d jobs > backlog %d", ErrTooLarge, len(js), s.host.cfg.MaxBacklog)
	}
	if _, pos, err = s.admit(ctx, js, prod, seq); err != nil {
		return 0, 0, false, err
	}
	p.seq, p.accepted, p.pos = seq, len(js), pos
	return len(js), pos, false, nil
}

func (s *Session) firstErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Backlog returns the session's queued-but-undrained arrival count.
func (s *Session) Backlog() int { return s.queue.length() }

// SessionSnapshot is a session's observable state: identity, backlog
// and the embedded mid-stream engine snapshot.
type SessionSnapshot struct {
	ID      string `json:"id"`
	Policy  string `json:"policy"`
	Backlog int    `json:"backlog"`
	engine.Snapshot
}

// Snapshot observes the live run between arrivals without disturbing
// it. Arrivals still queued are visible as Backlog, not in the
// engine's arrival count. That count is never ahead of the host's
// applied-arrivals counter (schedd_arrivals_total): the applier
// records each batch there before it releases the run.
func (s *Session) Snapshot() SessionSnapshot {
	s.mu.Lock()
	snap := s.run.Snapshot()
	s.mu.Unlock()
	return SessionSnapshot{ID: s.ID, Policy: s.Spec.Name, Backlog: s.queue.length(), Snapshot: snap}
}

// finish seals the queue, waits for the applier to drain it, and
// closes the run. An arrival error surfaces here (alongside any
// close/verification error); the result is returned only for a fully
// clean session. A done ctx abandons the wait, so one stuck policy
// cannot hold a host drain hostage.
func (s *Session) finish(ctx context.Context) (*engine.Result, error) {
	if err := s.seal(ctx); err != nil {
		return nil, fmt.Errorf("session %q: close abandoned: %w", s.ID, err)
	}

	// The session is over either way: retire its log — close record
	// made durable first, then the tenant directory removed — so a
	// restart does not resurrect a session whose final answer was
	// already delivered. (An abandoned wait above keeps the log: the
	// applier may still be running, and the next boot recovers it.)
	var walErr error
	if s.wlog != nil {
		walErr = s.wlog.CloseAndRemove()
	}
	if err := s.firstErr(); err != nil {
		return nil, fmt.Errorf("session %q: arrival refused: %w", s.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.run.Close()
	if err != nil {
		return nil, fmt.Errorf("session %q: %w", s.ID, err)
	}
	if walErr != nil {
		return nil, fmt.Errorf("session %q: retiring wal: %w", s.ID, walErr)
	}
	return res, nil
}

// seal ends a session's intake, for Close and Detach alike: parked
// submitters are released, the ring refuses pushes from here on (no
// channel close/send race to choreograph), and seal waits for the
// applier to drain what remains. A done ctx abandons the wait and
// returns its cause.
func (s *Session) seal(ctx context.Context) error {
	s.closed.Do(func() { close(s.closeCh) })
	s.queue.close()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
