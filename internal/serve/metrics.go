// The host's metrics core: a handful of counters and gauges plus the
// shared log-bucket latency histogram, rendered in Prometheus text
// exposition format. No client library — the format is a page of
// strconv appends, and keeping it in-tree means the daemon has zero
// dependencies beyond the standard library.
//
// Every hot-path update is a plain atomic, and batched: the applier
// reports a whole drained batch with two atomic adds and one O(1)
// histogram update (ObserveN), so metrics cost per arrival vanishes
// as batches grow. The scrape is a lock-free fast path too: it reads
// the atomics, renders into a pooled buffer with strconv (no fmt, no
// reflection) and writes once — a monitoring system polling /metrics
// steals no throughput from ingest.

package serve

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/promtext"
	"repro/internal/stats"
)

// Metrics aggregates the host's counters. All methods are safe for
// concurrent use; the write paths are lock-free.
type Metrics struct {
	start time.Time

	sessionsLive   atomic.Int64
	sessionsTotal  atomic.Uint64
	sessionsClosed atomic.Uint64
	arrivalErrors  atomic.Uint64
	refused        atomic.Uint64
	// latency is the amortized per-arrival apply latency in seconds.
	// Its Count() is also the applied-arrivals counter — every applied
	// arrival is observed exactly once — so there is no separate
	// arrivals atomic.
	latency stats.AtomicHistogram
	// dedup counts batches the idempotent-producer window suppressed
	// (duplicate deliveries acked from the watermark); shed counts
	// submits degraded with 429 instead of stalling.
	dedup atomic.Uint64
	shed  atomic.Uint64
}

func newMetrics() *Metrics { return &Metrics{start: time.Now()} }

func (m *Metrics) sessionOpened() {
	m.sessionsLive.Add(1)
	m.sessionsTotal.Add(1)
}

func (m *Metrics) sessionClosed() {
	m.sessionsLive.Add(-1)
	m.sessionsClosed.Add(1)
}

func (m *Metrics) admissionRefused() { m.refused.Add(1) }

// arrivalsApplied records a drained batch: n arrivals applied in d of
// policy time. Each arrival is charged the batch's amortized
// per-arrival latency, so the histogram's count stays one entry per
// arrival (not per batch) and quantiles remain comparable across
// batch sizes.
//
//schedlint:hotpath
func (m *Metrics) arrivalsApplied(n int, d time.Duration) {
	if n <= 0 {
		return
	}
	m.latency.ObserveN(d.Seconds()/float64(n), uint64(n))
}

//schedlint:hotpath
func (m *Metrics) arrivalsFailed(n int) {
	if n > 0 {
		m.arrivalErrors.Add(uint64(n))
	}
}

// dedupSuppressed records one duplicate batch acked from the window
// without re-applying.
//
//schedlint:hotpath
func (m *Metrics) dedupSuppressed() { m.dedup.Add(1) }

// shedRecorded records one submit degraded to 429 (full backlog past
// the shed deadline, or a saturated dedup window).
//
//schedlint:hotpath
func (m *Metrics) shedRecorded() { m.shed.Add(1) }

// DedupSuppressed returns the duplicate-batches-suppressed counter.
func (m *Metrics) DedupSuppressed() uint64 { return m.dedup.Load() }

// Sheds returns the shed-submits counter.
func (m *Metrics) Sheds() uint64 { return m.shed.Load() }

// SessionsLive returns the live-session gauge.
func (m *Metrics) SessionsLive() int64 { return m.sessionsLive.Load() }

// Arrivals returns the applied-arrivals counter (the latency
// histogram's observation count — one entry per applied arrival).
func (m *Metrics) Arrivals() uint64 { return m.latency.Count() }

// Latency returns a snapshot of the arrival-latency histogram,
// mergeable with any other stats.Histogram.
func (m *Metrics) Latency() stats.Histogram { return m.latency.Snapshot() }

// scrapePool recycles the render buffers of /metrics responses.
var scrapePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// WritePrometheus renders every metric in Prometheus text exposition
// format. backlog is sampled by the caller (the host owns the
// aggregate gauge). The render takes no locks and allocates nothing
// beyond the pooled buffer.
//
//schedlint:hotpath
func (m *Metrics) WritePrometheus(w io.Writer, backlog int) error {
	bp := scrapePool.Get().(*[]byte)
	b := m.appendPrometheus((*bp)[:0], backlog)
	_, err := w.Write(b)
	*bp = b[:0]
	scrapePool.Put(bp)
	return err
}

// quantileGauges drives the p50/p99 gauge block of the scrape; a
// fixed package-level array so the render loop touches no fresh slice
// header (schedlint/hotalloc flags composite literals in hot code).
var quantileGauges = [...]struct {
	name string
	q    float64
}{{"schedd_arrival_latency_seconds_p50", 0.5}, {"schedd_arrival_latency_seconds_p99", 0.99}}

//schedlint:hotpath
func (m *Metrics) appendPrometheus(b []byte, backlog int) []byte {
	live := m.sessionsLive.Load()
	total, closed := m.sessionsTotal.Load(), m.sessionsClosed.Load()
	arrErrs, refused := m.arrivalErrors.Load(), m.refused.Load()
	lat := m.latency.Snapshot()
	arrivals := lat.Count()
	uptime := time.Since(m.start).Seconds()

	var rate float64
	if uptime > 0 {
		rate = float64(arrivals) / uptime
	}
	b = promtext.AppendInt(b, "schedd_sessions_live", "Sessions currently hosted.", "gauge", live)
	b = promtext.AppendUint(b, "schedd_sessions_opened_total", "Sessions ever created.", "counter", total)
	b = promtext.AppendUint(b, "schedd_sessions_closed_total", "Sessions closed (drained or deleted).", "counter", closed)
	b = promtext.AppendUint(b, "schedd_admission_refused_total", "Session creations refused by admission control.", "counter", refused)
	b = promtext.AppendUint(b, "schedd_arrivals_total", "Arrivals applied to live sessions.", "counter", arrivals)
	b = promtext.AppendUint(b, "schedd_arrival_errors_total", "Arrivals the policy or validator refused.", "counter", arrErrs)
	b = promtext.AppendUint(b, "schedd_dedup_suppressed_total", "Duplicate stamped batches acked from the dedup window without re-applying.", "counter", m.DedupSuppressed())
	b = promtext.AppendUint(b, "schedd_shed_total", "Submits shed with 429 under overload instead of stalling.", "counter", m.Sheds())
	b = promtext.AppendInt(b, "schedd_backlog", "Arrivals queued but not yet applied, across all sessions.", "gauge", int64(backlog))
	b = promtext.AppendFloat(b, "schedd_arrivals_per_second", "Applied arrival rate over the process lifetime.", "gauge", rate)
	b = promtext.AppendFloat(b, "schedd_uptime_seconds", "Seconds since the host started.", "gauge", uptime)

	b = promtext.AppendHistogram(b, "schedd_arrival_latency_seconds",
		"Amortized policy apply latency per arrival (batch time / batch size).", lat)
	// p50/p99 as plain gauges so dashboards (and the e2e test) need no
	// histogram math.
	for _, q := range quantileGauges {
		v := 0.0
		if lat.Count() > 0 {
			v = lat.Quantile(q.q)
		}
		b = promtext.AppendGauge(b, q.name, v)
	}
	return b
}
