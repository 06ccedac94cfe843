package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/wal"
	"repro/internal/workload"
)

// mkJob builds a valid arrival with the given id and release.
func mkJob(id int, rel float64) job.Job {
	return job.Job{ID: id, Release: rel, Deadline: rel + 10, Work: 0.1, Value: 1}
}

// ndjsonLine renders one arrival line.
func ndjsonLine(j job.Job) []byte {
	return append(job.AppendJSON(nil, j), '\n')
}

// TestIngestBackpressureStallsBodyRead pins the no-unbounded-buffering
// guarantee of the batched path: with the policy stuck and the
// session queue full, the arrivals handler must stop reading the
// request body after its bounded read-ahead (decoder window plus one
// decode batch) — it must not slurp the stream into memory. Once the
// policy is released, every line is applied.
func TestIngestBackpressureStallsBodyRead(t *testing.T) {
	reg, gate := blockingRegistry(t)
	h := NewHost(Config{MaxBacklog: 8, Registry: reg})
	if _, err := h.Create("slow", engine.Spec{Name: "blocking", M: 1, Alpha: 2}); err != nil {
		t.Fatal(err)
	}

	const total = 5000
	pr, pw := io.Pipe()
	var written atomic.Int64
	go func() {
		for i := 0; i < total; i++ {
			line := ndjsonLine(mkJob(i, float64(i)))
			if _, err := pw.Write(line); err != nil {
				return
			}
			written.Add(int64(len(line)))
		}
		pw.Close()
	}()

	req := httptest.NewRequest("POST", "/v1/sessions/slow/arrivals", pr)
	rec := httptest.NewRecorder()
	doneServing := make(chan struct{})
	go func() {
		NewHandler(h).ServeHTTP(rec, req)
		close(doneServing)
	}()

	// Wait for the writer to stall: the written count must go quiet.
	deadline := time.Now().Add(10 * time.Second)
	var last int64 = -1
	for {
		cur := written.Load()
		if cur == last && cur > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("body writer never stalled against the blocked policy")
		}
		last = cur
		time.Sleep(50 * time.Millisecond)
	}
	// Bounded read-ahead: the decoder window (16 KiB at a time) plus
	// one decode batch of lines, with generous slack. The old bound to
	// beat is "everything": ~350 KiB for this stream.
	if stalled := written.Load(); stalled > 96<<10 {
		t.Fatalf("handler buffered %d bytes of a stalled stream; want bounded read-ahead", stalled)
	}
	select {
	case <-doneServing:
		t.Fatalf("handler returned while the stream was stalled: %s", rec.Body.String())
	default:
	}

	close(gate) // release the policy: everything must drain through
	<-doneServing
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), fmt.Sprintf(`"accepted":%d`, total)) {
		t.Fatalf("after release: %d %s", rec.Code, rec.Body.String())
	}
	res, err := h.Close("slow")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != total {
		t.Fatalf("policy saw %d arrivals, want %d", res.Rejected, total)
	}
}

// TestDrainAppliesEveryQueuedBatch pins graceful drain against the
// batched applier: arrivals queued (but unapplied) when the drain
// begins must all reach the policy before the final result is
// flushed.
func TestDrainAppliesEveryQueuedBatch(t *testing.T) {
	reg, gate := blockingRegistry(t)
	h := NewHost(Config{MaxBacklog: 64, Registry: reg})
	s, err := h.Create("drainy", engine.Spec{Name: "blocking", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	// First job parks the applier; the rest sit queued in one batch.
	const n = 40
	batch := make([]job.Job, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, mkJob(i, float64(i)))
	}
	if k, _, err := s.SubmitBatch(context.Background(), batch); k != n || err != nil {
		t.Fatalf("SubmitBatch = %d, %v", k, err)
	}

	drained := make(chan []DrainResult, 1)
	drainErr := make(chan error, 1)
	go func() {
		res, err := h.Drain(context.Background())
		drained <- res
		drainErr <- err
	}()
	// The drain must wait on the stuck applier, not abandon it.
	select {
	case <-drained:
		t.Fatal("drain finished while the policy was still stuck")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	res := <-drained
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(res) != 1 || res[0].Result == nil {
		t.Fatalf("drain results: %+v", res)
	}
	if res[0].Result.Rejected != n {
		t.Fatalf("drained result saw %d arrivals, want %d (queued batch dropped?)", res[0].Result.Rejected, n)
	}
}

// TestConcurrentSubmitCloseRace hammers SubmitBatch from several
// goroutines while the session is closed mid-stream — the race-
// detector e2e for the ring queue, the closeCh release and the
// batch-draining applier. Every submitter must return promptly with
// nil or ErrClosing, and the close must produce a verified result
// covering everything that was queued.
func TestConcurrentSubmitCloseRace(t *testing.T) {
	h := NewHost(Config{MaxBacklog: 16})
	_, err := h.Create("racy", engine.Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := h.Get("racy")

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Same release everywhere keeps arbitrary interleavings
				// release-ordered; IDs are disjoint per worker.
				batch := []job.Job{
					mkJob(w*1_000_000+2*i, 0),
					mkJob(w*1_000_000+2*i+1, 0),
				}
				if _, _, err := s.SubmitBatch(context.Background(), batch); err != nil {
					if !errors.Is(err, ErrClosing) {
						t.Errorf("worker %d: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	res, err := h.Close("racy")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("close during concurrent submits: %v", err)
	}
	if res.Schedule == nil {
		t.Fatal("close returned no schedule")
	}
	if h.Metrics().SessionsLive() != 0 {
		t.Fatalf("sessions live = %d", h.Metrics().SessionsLive())
	}
}

// TestMixedSubmittersShareOneRing drives stamped and unstamped
// submitters at one durable session at once, through a ring small
// enough that they park on each other. Every submit must return the
// log position of its own last job, so once it is durable a crash
// loses none of that submitter's arrivals; every stamped batch must
// drain whole, so recovery rebuilds each producer's window from its
// one record; and every arrival is applied exactly once.
func TestMixedSubmittersShareOneRing(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(Config{WAL: st, MaxBacklog: 8})
	s, err := h.Create("mix", engine.Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	const workers, batches, size = 4, 30, 5
	// acked[w][b] is the position the submit of worker w's batch b
	// returned; the batch's last job must sit exactly there in the log.
	var acked [workers][batches]uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			prod := fmt.Sprintf("p%d", w)
			for b := 0; b < batches; b++ {
				// Same release everywhere keeps any interleaving
				// release-ordered; IDs are disjoint per worker.
				js := make([]job.Job, size)
				for i := range js {
					js[i] = mkJob(w*1_000_000+b*size+i, 0)
				}
				var pos uint64
				var err error
				if w%2 == 0 {
					_, pos, _, err = s.SubmitStamped(ctx, prod, uint64(b+1), js)
				} else {
					_, pos, err = s.SubmitBatch(ctx, js)
				}
				if err == nil {
					err = s.waitDurable(ctx, pos)
				}
				if err != nil {
					t.Errorf("worker %d batch %d: %v", w, b, err)
					return
				}
				acked[w][b] = pos
			}
		}(w)
	}
	wg.Wait()
	crash(t, h, st)

	h2, st2, _ := recoverHost(t, dir, Config{MaxBacklog: 8})
	defer st2.Close()
	s2, err := h2.Get("mix")
	if err != nil {
		t.Fatal(err)
	}
	logged := map[int]uint64{} // job ID → 1-based log position
	for i, j := range s2.run.History() {
		logged[j.ID] = uint64(i + 1)
	}
	if len(logged) != workers*batches*size {
		t.Fatalf("recovered %d arrivals, want %d", len(logged), workers*batches*size)
	}
	for w := range acked {
		for b, pos := range acked[w] {
			if last := w*1_000_000 + b*size + size - 1; logged[last] != pos {
				t.Fatalf("worker %d batch %d: acked at position %d, last job logged at %d", w, b, pos, logged[last])
			}
		}
	}
	ctx := context.Background()
	for w := 0; w < workers; w += 2 {
		last := make([]job.Job, size)
		if acc, _, dup, err := s2.SubmitStamped(ctx, fmt.Sprintf("p%d", w), batches, last); err != nil || !dup || acc != size {
			t.Fatalf("producer p%d retry after recovery: acc=%d dup=%v err=%v", w, acc, dup, err)
		}
	}
	if _, err := h2.Close("mix"); err != nil {
		t.Fatal(err)
	}
}

// TestIngestBatchedMatchesUnbatched pins the serving differential at
// the host layer: a stream of tied releases through the HTTP handler
// and the batch-draining applier (which coalesces replans per
// same-release group) must close to the schedule bytes of a one-job-
// at-a-time engine.Replay of the same trace.
func TestIngestBatchedMatchesUnbatched(t *testing.T) {
	in := &job.Instance{M: 1, Alpha: 2}
	stream := &bytes.Buffer{}
	for i := 0; i < 500; i++ {
		j := mkJob(i, float64(i/7))
		in.Jobs = append(in.Jobs, j)
		stream.Write(ndjsonLine(j))
	}
	srv := httptest.NewServer(NewHandler(NewHost(Config{})))
	defer srv.Close()
	a := &api{t: t, srv: srv}
	a.do("POST", "/v1/sessions", strings.NewReader(`{"id":"x","spec":{"name":"oa","m":1,"alpha":2}}`), 201, nil)
	var arr arrivalsResponse
	a.do("POST", "/v1/sessions/x/arrivals", bytes.NewReader(stream.Bytes()), 200, &arr)
	if arr.Accepted != 500 {
		t.Fatalf("accepted = %d", arr.Accepted)
	}
	var closed closeResponse
	a.do("DELETE", "/v1/sessions/x", nil, 200, &closed)

	p, err := engine.New(engine.Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Replay(in, p)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.MarshalIndent(maskTimes(closed.Result), "", " ")
	bj, _ := json.MarshalIndent(maskTimes(want), "", " ")
	if !bytes.Equal(aj, bj) {
		t.Fatalf("batched ingest and per-job replay disagree:\n%s\nvs\n%s", aj, bj)
	}
}

// discardWriter is a ResponseWriter that keeps only the status, so an
// allocation count sees the handler's allocations and not a recorder's.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestStampedIngestAllocsPerRequest is the allocation guard of the
// ingest hot path end to end: a 256-line request through NewHandler
// into a durable host (decode, admission, WAL append, OA apply,
// durable ack) costs a fixed number of allocations per request, not
// per arrival — stamped, as loadgen and the benchmark send it, and
// unstamped, as a plain curl does. The count is process-wide, so it
// includes the applier and the WAL syncer goroutines; one allocation
// per arrival anywhere on that path adds 256 per request.
func TestStampedIngestAllocsPerRequest(t *testing.T) {
	const lines, warm, runs = 256, 8, 20
	store, err := wal.Open(t.TempDir(), wal.Options{FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	h := NewHost(Config{WAL: store})
	handler := NewHandler(h)
	n := lines * (warm + runs + 1) // AllocsPerRun makes one extra call
	in := workload.HeavyTail(workload.Config{
		N: n, M: 1, Alpha: 2, Seed: 17, Horizon: float64(n) / 10, ValueScale: math.Inf(1),
	})
	in.Normalize()
	for _, shape := range []string{"stamped", "unstamped"} {
		if _, err := h.Create(shape, engine.Spec{Name: "oa", M: 1, Alpha: 2}); err != nil {
			t.Fatal(err)
		}
		var reqs []*http.Request
		for i := 0; i < n; i += lines {
			var body []byte
			for _, j := range in.Jobs[i : i+lines] {
				body = append(job.AppendJSON(body, j), '\n')
			}
			r := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+shape+"/arrivals", bytes.NewReader(body))
			if shape == "stamped" {
				r.Header.Set("X-Producer-Id", "p")
				r.Header.Set("X-Producer-Seq", strconv.Itoa(len(reqs)+1))
			}
			reqs = append(reqs, r)
		}
		w := &discardWriter{h: http.Header{}}
		post := func() {
			w.status = 0
			handler.ServeHTTP(w, reqs[0])
			if w.status != http.StatusOK {
				t.Fatalf("%s request answered %d", shape, w.status)
			}
			reqs = reqs[1:]
		}
		for i := 0; i < warm; i++ {
			post()
		}
		avg := testing.AllocsPerRun(runs, post)
		if avg > lines/4 {
			t.Errorf("%.1f allocs per %s %d-line request (%.3f per arrival), want a per-request constant",
				avg, shape, lines, avg/lines)
		}
		t.Logf("%.1f allocs per %s %d-line request", avg, shape, lines)
		if _, err := h.Close(shape); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON pins the hot-path string
// escaping byte-identical to the cold path's encoding/json — quotes,
// backslashes, control characters, HTML-sensitive runes, the JS line
// separators U+2028/U+2029, and invalid UTF-8 replacement.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `quote"back\`, "tab\tnl\ncr\r", "<html>&x", "bell\x01\x1f",
		"line\u2028sep\u2029end", "héllo🙂", "bad\xffutf8",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, s)
		if !bytes.Equal(want, got) {
			t.Fatalf("escaping divergence for %q:\nencoding/json %s\nhand-rolled   %s", s, want, got)
		}
	}
}
