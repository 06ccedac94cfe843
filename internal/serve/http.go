// The HTTP face of the host — the API cmd/schedd exposes:
//
//	POST   /v1/sessions                  create a session from a Spec
//	POST   /v1/sessions/{id}/arrivals    stream arrivals (NDJSON)
//	GET    /v1/sessions/{id}/snapshot    observe the live plan
//	DELETE /v1/sessions/{id}             close → final verified Result
//	GET    /v1/sessions                  list live tenant ids
//	GET    /v1/registry                  the policy registry
//	GET    /metrics                      Prometheus text format
//
// All request and response bodies reuse the engine's wire types
// (Spec, Snapshot, Result) — no parallel DTO layer. Errors come back
// as {"error": "..."} with a status the sentinel errors determine.
//
// The arrivals endpoint is the daemon's hot path and is built around
// batches end to end: one handler serves plain and producer-stamped
// requests alike. A pooled zero-allocation NDJSON decoder
// (internal/job) parses lines into a reused batch which is queued
// under one ring lock, the acknowledgement waits for the log position
// the submit returned, and it is rendered by hand into a pooled
// buffer. The body is strict NDJSON — one job object per line. A
// plain body is read no faster than the session's bounded queue
// admits, so a slow policy stalls the read and TCP flow control
// carries the backpressure to the client; a stamped body is decoded
// whole first, because it is the unit of exactly-once delivery.
// Snapshot responses share the pooled hand-rolled encoding. Close
// streams its Result from engine.WriteCloseJSON in chunks of at most
// 64 KiB from a pooled buffer, so a 10^5-job Result is never held
// whole; the cold endpoints (create, registry) keep encoding/json.

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/job"
)

// NewHandler returns the daemon's HTTP handler over the host.
func NewHandler(h *Host) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		handleCreate(h, w, r)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/arrivals", func(w http.ResponseWriter, r *http.Request) {
		handleArrivals(h, w, r)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		handleSnapshot(h, w, r)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleClose(h, w, r)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": h.SessionIDs()})
	})
	mux.HandleFunc("GET /v1/registry", func(w http.ResponseWriter, r *http.Request) {
		handleRegistry(h, w)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := h.Metrics().WritePrometheus(w, h.Backlog()); err != nil {
			return
		}
		_ = h.WriteWalMetrics(w)
	})
	return mux
}

// statusOf maps host errors onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicate), errors.Is(err, ErrClosing), errors.Is(err, ErrSeqGap):
		return http.StatusConflict
	case errors.Is(err, ErrAdmission), errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, engine.ErrUnencodable):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// retryAfter stamps shedding responses (429/503) with the standard
// back-off hint the resilient client honors.
func retryAfter(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; all we can do is cut the connection short.
		return
	}
}

func writeError(w http.ResponseWriter, err error) {
	status := statusOf(err)
	retryAfter(w, status)
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// --- pooled hand-rolled responses (hot path) ---

// respPool recycles response render buffers for the hot endpoints.
var respPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeRaw sends a pre-rendered JSON body and returns the buffer to
// the pool.
func writeRaw(w http.ResponseWriter, status int, bp *[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	w.WriteHeader(status)
	_, _ = w.Write(*bp)
	*bp = (*bp)[:0]
	respPool.Put(bp)
}

// appendJSONString renders a JSON string literal through the wire
// format's single escaper, job.AppendString (moved there so the WAL's
// spec/snapshot encoders share it) — still byte-identical to the cold
// path's writeJSON, pinned by test.
func appendJSONString(b []byte, s string) []byte { return job.AppendString(b, s) }

// createRequest is the body of POST /v1/sessions.
type createRequest struct {
	// ID is the tenant id; empty means the host assigns one.
	ID string `json:"id,omitempty"`
	// Spec selects and parameterises the policy (engine wire format).
	Spec engine.Spec `json:"spec"`
}

// createResponse acknowledges a created session.
type createResponse struct {
	ID     string `json:"id"`
	Policy string `json:"policy"`
}

func handleCreate(h *Host, w http.ResponseWriter, r *http.Request) {
	var req createRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("decoding create request: %w", err))
		return
	}
	s, err := h.Create(req.ID, req.Spec)
	if err != nil {
		// Idempotent create: a retried POST whose first response was
		// lost hits ErrDuplicate. If the live session's spec matches the
		// request byte-for-byte it is the same create, acked 200.
		if errors.Is(err, ErrDuplicate) && req.ID != "" {
			if live, gerr := h.Get(req.ID); gerr == nil &&
				string(live.Spec.AppendJSON(nil)) == string(req.Spec.AppendJSON(nil)) {
				writeJSON(w, http.StatusOK, createResponse{ID: live.ID, Policy: live.Spec.Name})
				return
			}
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, createResponse{ID: s.ID, Policy: s.Spec.Name})
}

// arrivalsResponse acknowledges a consumed arrival stream.
type arrivalsResponse struct {
	ID       string `json:"id"`
	Accepted int    `json:"accepted"`
	Deduped  bool   `json:"deduped,omitempty"`
	Error    string `json:"error,omitempty"`
}

// writeArrivals renders the acknowledgement by hand into a pooled
// buffer — the per-request response cost of the ingest hot path.
// deduped marks a replayed stamped batch acked from the window.
func writeArrivals(w http.ResponseWriter, status int, id string, accepted int, deduped bool, errMsg string) {
	retryAfter(w, status)
	bp := respPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"id":`...)
	b = appendJSONString(b, id)
	b = append(b, `,"accepted":`...)
	b = strconv.AppendInt(b, int64(accepted), 10)
	if deduped {
		b = append(b, `,"deduped":true`...)
	}
	if errMsg != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, errMsg)
	}
	b = append(b, '}', '\n')
	*bp = b
	writeRaw(w, status, bp)
}

// ingestBatch is how many decoded arrivals are buffered before a
// SubmitBatch. It bounds the handler's read-ahead past what the
// session queue has admitted (together with the decoder's read
// window), so backpressure still stalls the body read.
const ingestBatch = 512

// batchPool recycles the decoded-arrival scratch between requests.
var batchPool = sync.Pool{New: func() any {
	b := make([]job.Job, 0, ingestBatch)
	return &b
}}

// handleArrivals consumes a strict NDJSON stream (one job.Job per
// line) and queues the jobs on the session. The response reports how
// many arrivals were accepted (queued, and on a WAL-backed host on
// disk); a refused arrival or malformed line stops the stream there.
//
// An unstamped body streams: it is submitted ingestBatch lines at a
// time, read no faster than the bounded queue admits — a slow policy
// or a full backlog stalls the read, and TCP flow control carries that
// backpressure to the client. A body stamped with X-Producer-Id and
// X-Producer-Seq is the unit of idempotency instead: it is decoded
// whole before anything is submitted, so a truncated or malformed body
// consumes no sequence number and applies nothing — the client then
// retries the entire batch under the same (producer, seq) and the
// dedup window guarantees at-most-once application. A stamped body
// longer than MaxBacklog lines, which the ring could never admit
// whole, is refused with 413 before the rest is read.
func handleArrivals(h *Host, w http.ResponseWriter, r *http.Request) {
	s, err := h.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	prod := r.Header.Get("X-Producer-Id")
	var seq uint64
	if prod != "" {
		if seq, err = strconv.ParseUint(r.Header.Get("X-Producer-Seq"), 10, 64); err != nil {
			writeArrivals(w, http.StatusBadRequest, s.ID, 0, false,
				fmt.Sprintf("bad X-Producer-Seq: %v", err))
			return
		}
	}
	dec := job.GetDecoder(r.Body)
	defer job.PutDecoder(dec)
	bp := batchPool.Get().(*[]job.Job)
	batch := (*bp)[:0]
	defer func() {
		*bp = batch[:0]
		batchPool.Put(bp)
	}()

	accepted, dup := 0, false
	var pos uint64 // log position the durable ack waits on
	submit := func() error {
		var n int
		var err error
		if prod != "" {
			n, pos, dup, err = s.SubmitStamped(r.Context(), prod, seq, batch)
		} else if len(batch) > 0 {
			n, pos, err = s.SubmitBatch(r.Context(), batch)
		}
		accepted += n
		batch = batch[:0]
		return err
	}
	for {
		if prod != "" && len(batch) > s.host.cfg.MaxBacklog {
			writeArrivals(w, http.StatusRequestEntityTooLarge, s.ID, 0, false,
				fmt.Sprintf("stamped batch exceeds backlog bound %d", s.host.cfg.MaxBacklog))
			return
		}
		batch = append(batch, job.Job{})
		if err := dec.Next(&batch[len(batch)-1]); err != nil {
			batch = batch[:len(batch)-1]
			if err == io.EOF {
				break
			}
			line := accepted + len(batch)
			// A stream queues the lines that preceded the malformed one,
			// then reports it; a submit failure takes precedence (it
			// carries the session's state, e.g. closing). A stamped body
			// submits nothing.
			if prod == "" {
				if serr := submit(); serr != nil {
					writeArrivals(w, statusOf(serr), s.ID, accepted, false, serr.Error())
					return
				}
			}
			writeArrivals(w, http.StatusBadRequest, s.ID, accepted, false,
				fmt.Sprintf("decoding arrival %d: %v", line, err))
			return
		}
		if prod == "" && len(batch) == ingestBatch {
			if serr := submit(); serr != nil {
				writeArrivals(w, statusOf(serr), s.ID, accepted, false, serr.Error())
				return
			}
		}
	}
	if serr := submit(); serr != nil {
		writeArrivals(w, statusOf(serr), s.ID, accepted, false, serr.Error())
		return
	}
	// Durable ack: on a WAL-backed host the 200 means "on disk", so park
	// until an fsync covers the last arrival this request queued — or,
	// for a duplicate, the original's.
	if pos > 0 {
		if derr := s.waitDurable(r.Context(), pos); derr != nil {
			writeArrivals(w, http.StatusInternalServerError, s.ID, accepted, dup,
				fmt.Sprintf("durability not confirmed: %v", derr))
			return
		}
	}
	writeArrivals(w, http.StatusOK, s.ID, accepted, dup, "")
}

func handleSnapshot(h *Host, w http.ResponseWriter, r *http.Request) {
	s, err := h.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	snap := s.Snapshot()
	bp := respPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"id":`...)
	b = appendJSONString(b, snap.ID)
	b = append(b, `,"policy":`...)
	b = appendJSONString(b, snap.Policy)
	b = append(b, `,"backlog":`...)
	b = strconv.AppendInt(b, int64(snap.Backlog), 10)
	b = append(b, `,"at":`...)
	b = job.AppendFloat(b, snap.At)
	b = append(b, `,"arrivals":`...)
	b = strconv.AppendInt(b, int64(snap.Arrivals), 10)
	b = append(b, `,"pending":`...)
	b = strconv.AppendInt(b, int64(snap.Pending), 10)
	b = append(b, `,"pendingWork":`...)
	b = job.AppendFloat(b, snap.PendingWork)
	b = append(b, `,"speed":`...)
	b = job.AppendFloat(b, snap.Speed)
	if snap.Buffered {
		b = append(b, `,"buffered":true`...)
	}
	b = append(b, '}', '\n')
	*bp = b
	writeRaw(w, http.StatusOK, bp)
}

func handleClose(h *Host, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := h.Close(id)
	if err != nil {
		// Idempotent close: a retried DELETE whose first response was
		// lost finds the session gone — ack it again from the host's
		// closed-result cache instead of 404ing the retry.
		if errors.Is(err, ErrNotFound) {
			if cached, ok := h.ClosedResult(id); ok {
				writeResult(w, id, cached)
				return
			}
		}
		writeError(w, err)
		return
	}
	writeResult(w, id, res)
}

// writeResult streams a close response, {"id":…,"result":…}. The
// encoder refuses a Result JSON cannot carry before its first write,
// so the refusal still gets its own status; the implicit 200 goes out
// with the first chunk.
func writeResult(w http.ResponseWriter, id string, res *engine.Result) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := engine.WriteCloseJSON(w, id, res); errors.Is(err, engine.ErrUnencodable) {
		writeError(w, err)
	}
}

// registryEntry is one row of GET /v1/registry.
type registryEntry struct {
	Name    string   `json:"name"`
	Summary string   `json:"summary"`
	MRange  string   `json:"mRange"`
	Model   string   `json:"model"`
	Mode    string   `json:"mode"`
	Params  []string `json:"params,omitempty"`
}

func handleRegistry(h *Host, w http.ResponseWriter) {
	var out []registryEntry
	for _, reg := range h.Registry().All() {
		out = append(out, registryEntry{
			Name: reg.Name, Summary: reg.Summary,
			MRange: reg.Caps.MRange(), Model: reg.Caps.Model(), Mode: reg.Caps.Mode(),
			Params: reg.Params,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"policies": out})
}
