// The per-session arrival queue behind the batched ingest path: a
// bounded ring of jobs with one consumer (the session's applier) and
// any number of producers (HTTP handlers). It replaces the old
// chan job.Job, which charged one channel send/receive — a futex-able
// synchronization point — to every arrival. The ring moves whole
// batches under one mutex acquisition on each side: producers push
// slices, the consumer drains everything queued per wakeup, and the
// buffered signal channels exist only to park and wake the edge cases
// (empty queue on the consumer side, full queue on the producer side)
// without spinning. A full queue admits nothing — that is the
// MaxBacklog backpressure bound the HTTP layer propagates by stalling
// the request body read.

package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/job"
)

// mark delimits one producer-stamped batch inside the ring: jobs
// [start, start+count) of the admission order belong to (producer,
// seq) and must drain — and hit the WAL — as one record, or a crash
// between its halves would split an idempotent batch and break
// exactly-once replay.
type mark struct {
	start    uint64 // enq position of the batch's first job
	count    int
	producer string
	seq      uint64
}

// stamp is drainTo's per-batch verdict: which producer the drained
// slice belongs to (empty for unstamped runs).
type stamp struct {
	producer string
	seq      uint64
}

// arrq is the bounded multi-producer single-consumer arrival ring.
type arrq struct {
	mu     sync.Mutex //schedlint:nocallout
	buf    []job.Job  // ring storage; buf[head:head+n) wrapping
	head   int
	n      int
	closed bool
	// enq counts every job ever admitted. The applier drains (and the
	// WAL logs) in admission order, so enq is also the log position of
	// the last admitted job — the durable-ack wait point push returns.
	enq uint64
	// deq counts every job ever drained; marks are consumed when deq
	// crosses them.
	deq uint64
	// marks is the FIFO of stamped-batch boundaries; mhead indexes the
	// next live mark (compacted when the FIFO empties).
	marks []mark
	mhead int

	// qlen mirrors n for lock-free Backlog reads; gauge is the host's
	// backlog counter, which feeds the lock-free /metrics backlog.
	qlen  atomic.Int64
	gauge *atomic.Int64

	// space and data are 1-buffered wake signals: a producer parks on
	// space when the ring is full, the consumer parks on data when it
	// is empty. All sends happen under mu (so close cannot race them);
	// data is closed by close() to release the consumer for good.
	space chan struct{}
	data  chan struct{}
}

func newArrq(capacity int, gauge *atomic.Int64) *arrq {
	return &arrq{
		buf:   make([]job.Job, capacity),
		gauge: gauge,
		space: make(chan struct{}, 1),
		data:  make(chan struct{}, 1),
	}
}

// push enqueues jobs under one lock and returns how many it took and
// the admission position of the last one taken. An unstamped run
// (producer "") is taken as far as it fits; a stamped batch is taken
// whole, behind a mark that keeps it together through drainTo, or not
// at all — the applier must see every job of a stamped batch before it
// can log the batch as a single WAL record. A full queue takes
// nothing; the caller parks on space. When capacity remains after a
// push, the space signal is forwarded so a second parked producer is
// not stranded behind the first one's wakeup.
//
//schedlint:hotpath
func (q *arrq) push(js []job.Job, producer string, seq uint64) (k int, pos uint64, closed bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, 0, true
	}
	k = len(q.buf) - q.n
	if k >= len(js) {
		k = len(js)
	} else if producer != "" {
		k = 0
	}
	if k > 0 {
		if producer != "" {
			q.marks = append(q.marks, mark{start: q.enq, count: k, producer: producer, seq: seq})
		}
		at := q.head + q.n
		for i := 0; i < k; i++ {
			p := at + i
			if p >= len(q.buf) {
				p -= len(q.buf)
			}
			q.buf[p] = js[i]
		}
		q.n += k
		q.enq += uint64(k)
		q.qlen.Store(int64(q.n))
		select {
		case q.data <- struct{}{}:
		default:
		}
		if q.n < len(q.buf) {
			select {
			case q.space <- struct{}{}:
			default:
			}
		}
	}
	pos = q.enq
	q.mu.Unlock()
	// Updating the backlog gauge outside the queue lock keeps the
	// critical section call-free (the gauge may momentarily lag the
	// queue, which a gauge is allowed to do).
	if k > 0 {
		q.gauge.Add(int64(k))
	}
	return k, pos, false
}

// drainTo moves the queued jobs into dst without blocking, stopping
// at stamped-batch boundaries: an unstamped run never crosses into a
// mark, and a stamped batch drains whole and alone (its atomic push
// guarantees it is fully present) with its stamp returned, because the
// batch must land in the WAL as exactly one record. done reports
// closed-and-empty — the applier's exit condition.
//
//schedlint:hotpath
func (q *arrq) drainTo(dst []job.Job) (out []job.Job, st stamp, done bool) {
	q.mu.Lock()
	k := q.n
	if q.mhead < len(q.marks) {
		m := &q.marks[q.mhead]
		if q.deq < m.start {
			// Unstamped run first: stop short of the mark.
			if gap := int(m.start - q.deq); k > gap {
				k = gap
			}
		} else {
			// The mark is next: drain exactly its batch, whole.
			k = m.count
			st.producer = m.producer
			st.seq = m.seq
			q.mhead++
			if q.mhead == len(q.marks) {
				q.marks = q.marks[:0]
				q.mhead = 0
			}
		}
	}
	for i := 0; i < k; i++ {
		p := q.head + i
		if p >= len(q.buf) {
			p -= len(q.buf)
		}
		dst = append(dst, q.buf[p])
	}
	if k > 0 {
		q.head += k
		if q.head >= len(q.buf) {
			q.head -= len(q.buf)
		}
		q.n -= k
		q.deq += uint64(k)
		q.qlen.Store(int64(q.n))
		select {
		case q.space <- struct{}{}:
		default:
		}
	}
	done = q.closed && q.n == 0
	q.mu.Unlock()
	if k > 0 {
		q.gauge.Add(int64(-k))
	}
	return dst, st, done
}

// waitData parks the consumer until a push signals or the queue
// closes. Spurious wakeups are fine: the applier re-drains and parks
// again.
func (q *arrq) waitData() { <-q.data }

// close seals the queue: producers are refused from now on and the
// consumer is released once it drains what remains. Idempotent.
func (q *arrq) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.data)
	}
	q.mu.Unlock()
}

// length returns the queued-but-undrained count without locking.
func (q *arrq) length() int { return int(q.qlen.Load()) }
