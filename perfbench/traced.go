package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/wal"
)

// Schedd's defaults that the in-process passes mirror: the group-commit
// tick, the segment size and the checkpoint cadence (-fsync-interval,
// -wal-segment-bytes, -checkpoint-every), and the host's queue bound and
// shed budget (-max-backlog, -shed-after).
const (
	defaultFsyncInterval   = 5 * time.Millisecond
	defaultSegmentBytes    = 4 << 20
	defaultCheckpointEvery = 4096
	defaultMaxBacklog      = 256
	defaultShedAfter       = 2 * time.Second
)

// walOptions are the store options schedd opens its data dir with.
func walOptions() wal.Options {
	return wal.Options{FsyncInterval: defaultFsyncInterval, SegmentBytes: defaultSegmentBytes}
}

// traced runs one untraced round against the daemon for its /proc
// split, then the workload through each layer in-process with spans,
// then through serve.NewHandler without sockets. It writes the spans
// file under spanDir and returns the per-layer metrics.
func (b *bench) traced(ctx context.Context, spanDir string, o *ops) (map[string]metric, error) {
	st, bodies, err := b.round(ctx, filepath.Join(b.dir, "daemon"), o)
	if err != nil {
		return nil, fmt.Errorf("daemon round: %w", err)
	}
	if err := b.ref.verifyAll(b.sessions, bodies); err != nil {
		return nil, o.fail(fmt.Errorf("daemon round: %w", err))
	}
	if st.life1.writeBytes == 0 || st.appended == 0 {
		return nil, errZeroWrites
	}

	tr := newTracer()
	out, err := b.layers(ctx, tr, filepath.Join(b.dir, "layers"), o)
	if err != nil {
		return nil, fmt.Errorf("layered pass: %w", err)
	}
	if err := b.serveLayer(ctx, tr, filepath.Join(b.dir, "serve"), out, o); err != nil {
		return nil, fmt.Errorf("serve pass: %w", err)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: spans written to %s\n", path)

	out["wal.write_amplification"] = metric{float64(st.life1.writeBytes) / float64(st.appended), "ratio"}
	out["daemon.cpu_s_traffic"] = metric{st.life1.cpu.Seconds(), "s"}
	out["daemon.cpu_s_restart"] = metric{st.life2.cpu.Seconds(), "s"}
	out["daemon.write_bytes_traffic"] = metric{float64(st.life1.writeBytes), "bytes"}
	out["daemon.write_bytes_restart"] = metric{float64(st.life2.writeBytes), "bytes"}
	out["bench.client_cpu_s"] = metric{st.clientCPU.Seconds(), "s"}
	return out, nil
}

// ckptMeta is the checkpoint meta the serve layer writes: the session
// identity, its snapshot at the cut and the producer window.
type ckptMeta struct {
	ID        string          `json:"id"`
	Spec      engine.Spec     `json:"spec"`
	Snapshot  json.RawMessage `json:"snapshot"`
	Producers []ckptProducer  `json:"producers,omitempty"`
}

type ckptProducer struct {
	ID       string `json:"id"`
	Seq      uint64 `json:"seq"`
	Accepted int    `json:"accepted"`
}

// layered is one session's state in the layered pass.
type layered struct {
	s    *session
	log  *wal.Log
	live *engine.Live
}

// layers calls each layer in the order schedd does — decode, WAL
// append, apply, checkpoint at schedd's cadence, wait for the group
// fsync; snapshots at the workload's cadence; then, on a store reopened
// as after a crash, recovery with its replay, and close, verify and
// encode — with a span around every call.
func (b *bench) layers(ctx context.Context, tr *tracer, dir string, o *ops) (map[string]metric, error) {
	store, err := wal.Open(dir, walOptions())
	if err != nil {
		return nil, err
	}
	defer store.Close()
	ls := make([]*layered, len(b.sessions))
	for i, s := range b.sessions {
		open, _ := json.Marshal(map[string]any{"id": s.id, "spec": b.w.policy})
		l := &layered{s: s}
		err := tr.do("wal.create", 0, tr.req(), func() (err error) {
			l.log, err = store.Create(s.id, open)
			return err
		})
		if err != nil {
			return nil, err
		}
		if l.live, err = engine.NewLive(b.w.policy); err != nil {
			return nil, err
		}
		ls[i] = l
	}

	var ckptBytes [connections]int64
	var counts [connections]ops
	errs := make([]error, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ckptBytes[c], errs[c] = b.layeredStream(ctx, tr, dir, ls, c, &counts[c])
		}()
	}
	wg.Wait()
	var arrivals, requests int
	for _, s := range b.sessions {
		arrivals += len(s.trace.Jobs)
		requests += len(s.bodies)
	}
	for c := range counts {
		o.attempted += counts[c].attempted
		o.failed += counts[c].failed
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	ws := store.Stats()
	// The crash: the store stops without retiring any log, and a fresh
	// one recovers the same directory.
	if err := store.Close(); err != nil {
		return nil, err
	}
	store, err = wal.Open(dir, walOptions())
	if err != nil {
		return nil, err
	}
	defer store.Close()
	byID := make(map[string]*layered, len(ls))
	for _, l := range ls {
		byID[l.s.id] = l
	}
	recoverID, req := tr.id(), tr.req()
	t0 := time.Now()
	_, err = store.Recover(func(r *wal.Recovered) error {
		return b.replay(tr, recoverID, req, r, byID)
	})
	tr.add(recoverID, 0, req, "wal.recover", t0, time.Now())
	o.attempted++
	if err != nil {
		return nil, o.fail(fmt.Errorf("recovery: %w", err))
	}

	var resultBytes []int
	for i, l := range ls {
		o.attempted++
		n, err := b.closeLayered(tr, i, l)
		if err != nil {
			return nil, o.fail(err)
		}
		resultBytes = append(resultBytes, n)
	}

	perArrival := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(arrivals) }
	return map[string]metric{
		"job.decode_ns_per_line":           {perArrival(tr.total("job.decode")), "ns/line"},
		"wal.append_ns_per_arrival":        {perArrival(tr.total("wal.append")), "ns/arrival"},
		"wal.appended_bytes_per_arrival":   {float64(ws.AppendBytes) / float64(arrivals), "bytes/arrival"},
		"wal.durable_wait_ms_p50":          {ms(median(tr.durations("wal.wait_durable"))), "ms"},
		"wal.fsyncs_per_request":           {float64(ws.Fsyncs) / float64(requests), "fsyncs/request"},
		"wal.checkpoints":                  {float64(ws.Checkpoints), "count"},
		"wal.checkpoint_ms_total":          {ms(tr.total("wal.checkpoint")), "ms"},
		"wal.checkpoint_bytes_per_arrival": {float64(ckptBytes[0]+ckptBytes[1]) / float64(arrivals), "bytes/arrival"},
		"wal.recover_scan_ms":              {ms(tr.self(recoverID)), "ms"},
		"engine.apply_ns_per_arrival":      {perArrival(tr.total("engine.apply") - tr.covered(recoverID)), "ns/arrival"},
		"engine.snapshot_ms_p50":           {ms(median(tr.durations("engine.snapshot"))), "ms"},
		"engine.close_ms_p50":              {ms(median(tr.durations("engine.close"))), "ms"},
		"engine.result_encode_ms_p50":      {ms(median(tr.durations("engine.result_encode"))), "ms"},
		"engine.result_bytes":              {float64(median(resultBytes)), "bytes"},
		"sched.verify_ms":                  {ms(median(tr.durations("sched.verify"))), "ms"},
	}, nil
}

// layeredStream is the layered pass's counterpart of one connection:
// the same sessions, requests and order as stream. It returns the bytes
// of the checkpoint files it wrote.
func (b *bench) layeredStream(ctx context.Context, tr *tracer, dir string, ls []*layered, c int, o *ops) (int64, error) {
	var ckptBytes int64
	dec := job.NewDecoder(nil)
	batch := make([]job.Job, 0, b.w.lines)
	err := b.requests(c, func(i, r int) error {
		l := ls[i]
		o.attempted++
		req, root := tr.req(), tr.id()
		t0 := time.Now()
		batch = batch[:0]
		err := tr.do("job.decode", root, req, func() error {
			dec.Reset(bytes.NewReader(l.s.bodies[r]))
			for {
				var j job.Job
				if err := dec.Next(&j); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				batch = append(batch, j)
			}
		})
		var pos uint64
		if err == nil {
			err = tr.do("wal.append", root, req, func() (err error) {
				pos, err = l.log.AppendStamped("bench", uint64(r+1), batch)
				return err
			})
		}
		if err == nil {
			err = tr.do("engine.apply", root, req, func() error {
				n, err := l.live.ApplyBatch(batch)
				if err == nil && n != len(batch) {
					err = fmt.Errorf("applied %d of %d arrivals", n, len(batch))
				}
				return err
			})
		}
		if err == nil && l.log.SinceCheckpoint() >= defaultCheckpointEvery {
			err = tr.do("wal.checkpoint", root, req, func() error {
				meta, err := json.Marshal(ckptMeta{
					ID: l.s.id, Spec: b.w.policy, Snapshot: l.live.Snapshot().AppendJSON(nil),
					Producers: []ckptProducer{{ID: "bench", Seq: uint64(r + 1), Accepted: len(batch)}},
				})
				if err != nil {
					return err
				}
				return l.log.Checkpoint(meta, l.live.History())
			})
			if err == nil {
				fi, serr := os.Stat(filepath.Join(dir, "tenants", hex.EncodeToString([]byte(l.s.id)), "checkpoint"))
				if err = serr; err == nil {
					ckptBytes += fi.Size()
				}
			}
		}
		if err == nil {
			err = tr.do("wal.wait_durable", root, req, func() error { return l.log.WaitDurable(ctx, pos) })
		}
		tr.add(root, 0, req, "request", t0, time.Now())
		if err != nil {
			return o.fail(fmt.Errorf("session %s request %d: %w", l.s.id, r+1, err))
		}
		if (r+1)%b.w.snapEvery == 0 {
			o.attempted++
			_ = tr.do("engine.snapshot", 0, tr.req(), func() error {
				l.live.Snapshot()
				return nil
			})
		}
		return nil
	})
	return ckptBytes, err
}

// replay rebuilds one recovered session as schedd does: the checkpoint
// history, the integrity gate on its snapshot, then the log tail, each
// batch applied under an engine.apply span inside the recovery span.
func (b *bench) replay(tr *tracer, parent, req int64, r *wal.Recovered, byID map[string]*layered) error {
	l := byID[r.Tenant]
	if l == nil {
		return fmt.Errorf("recovered unknown tenant %q", r.Tenant)
	}
	live, err := engine.NewLive(b.w.policy)
	if err != nil {
		return err
	}
	apply := func(js []job.Job) error {
		return tr.do("engine.apply", parent, req, func() error {
			_, err := live.ApplyBatch(js)
			return err
		})
	}
	if err := r.ReplayCheckpoint(apply); err != nil {
		return err
	}
	if r.CkptMeta != nil {
		var m ckptMeta
		if err := json.Unmarshal(r.CkptMeta, &m); err != nil {
			return err
		}
		if got := live.Snapshot().AppendJSON(nil); !bytes.Equal(got, m.Snapshot) {
			return fmt.Errorf("tenant %q: replayed snapshot %s, checkpoint holds %s", r.Tenant, got, m.Snapshot)
		}
	}
	if err := r.ReplayTail(func(js []job.Job, _ wal.Stamp) error { return apply(js) }); err != nil {
		return err
	}
	if l.log, err = r.Resume(); err != nil {
		return err
	}
	l.live = live
	return nil
}

// closeLayered closes one recovered session — the engine's close, the
// log's retirement, the verifier on its own and the close response's
// encoding — and checks the Result against the reference. It returns
// the encoded response's size.
func (b *bench) closeLayered(tr *tracer, i int, l *layered) (int, error) {
	req, root := tr.req(), tr.id()
	t0 := time.Now()
	var res *engine.Result
	err := tr.do("engine.close", root, req, func() (err error) {
		res, err = l.live.Close()
		return err
	})
	if err == nil {
		err = tr.do("wal.retire", root, req, l.log.CloseAndRemove)
	}
	tr.add(root, 0, req, "close", t0, time.Now())
	if err != nil {
		return 0, fmt.Errorf("closing %s: %w", l.s.id, err)
	}
	in := &job.Instance{M: b.w.policy.M, Alpha: b.w.policy.Alpha, Jobs: l.s.trace.Jobs}
	if err := tr.do("sched.verify", 0, req, func() error { return sched.Verify(in, res.Schedule) }); err != nil {
		return 0, fmt.Errorf("verifying %s: %w", l.s.id, err)
	}
	var body []byte
	err = tr.do("engine.result_encode", 0, req, func() (err error) {
		body, err = json.Marshal(struct {
			ID     string         `json:"id"`
			Result *engine.Result `json:"result"`
		}{l.s.id, res})
		return err
	})
	if err != nil {
		return 0, err
	}
	got, err := canonical(res)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, b.ref.canon[i]) {
		return 0, fmt.Errorf("session %s: layered result differs from the in-process engine replay", l.s.id)
	}
	return len(body), nil
}

// serveLayer serves the same requests through serve.NewHandler with no
// sockets: creates, the closed loop's arrivals and snapshots, then on a
// host rebuilt from the same directory Host.Recover and the closes.
func (b *bench) serveLayer(ctx context.Context, tr *tracer, dir string, out map[string]metric, o *ops) error {
	cfg := func(store *wal.Store) serve.Config {
		return serve.Config{
			Shards: 16, MaxSessions: 1024, MaxBacklog: defaultMaxBacklog, ShedAfter: defaultShedAfter,
			WAL: store, CheckpointEvery: defaultCheckpointEvery,
		}
	}
	store, err := wal.Open(dir, walOptions())
	if err != nil {
		return err
	}
	defer store.Close()
	host := serve.NewHost(cfg(store))
	h := serve.NewHandler(host)
	for _, s := range b.sessions {
		body, _ := json.Marshal(map[string]any{"id": s.id, "spec": b.w.policy})
		if _, err := serveCall(ctx, tr, h, "serve.create", http.MethodPost, "/v1/sessions", body, nil, o); err != nil {
			return err
		}
	}
	errs := make([]error, connections)
	var counts [connections]ops
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = b.serveStream(ctx, tr, h, c, &counts[c])
		}()
	}
	wg.Wait()
	for c := range counts {
		o.attempted += counts[c].attempted
		o.failed += counts[c].failed
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, s := range b.sessions {
		sess, err := host.Get(s.id)
		if err != nil {
			return err
		}
		for sn := sess.Snapshot(); sn.Backlog > 0 || sn.Arrivals < len(s.trace.Jobs); sn = sess.Snapshot() {
			if time.Now().After(deadline) {
				return fmt.Errorf("session %s: backlog %d after 60s", s.id, sn.Backlog)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The crash: the store stops without retiring any log, and draining
	// the abandoned host only stops its appliers — its logs are already
	// closed, so nothing is removed.
	if err := store.Close(); err != nil {
		return err
	}
	_, _ = host.Drain(ctx) // every close fails on its closed log, by design

	store, err = wal.Open(dir, walOptions())
	if err != nil {
		return err
	}
	defer store.Close()
	host = serve.NewHost(cfg(store))
	o.attempted++
	if err := tr.do("serve.recover", 0, tr.req(), func() error {
		_, err := host.Recover()
		return err
	}); err != nil {
		return o.fail(err)
	}
	h = serve.NewHandler(host)
	for i, s := range b.sessions {
		body, err := serveCall(ctx, tr, h, "serve.close", http.MethodDelete, "/v1/sessions/"+s.id, nil, nil, o)
		if err != nil {
			return err
		}
		var cr closeResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			return o.fail(err)
		}
		got, err := json.Marshal(&cr.Result)
		if err != nil || !bytes.Equal(got, b.ref.canon[i]) {
			return o.fail(fmt.Errorf("session %s: served result differs from the in-process engine replay", s.id))
		}
	}
	recovered := tr.durations("serve.recover")
	out["serve.arrivals_ms_p50"] = metric{ms(median(tr.durations("serve.arrivals"))), "ms"}
	out["serve.snapshot_ms_p50"] = metric{ms(median(tr.durations("serve.snapshot"))), "ms"}
	out["serve.close_ms_p50"] = metric{ms(median(tr.durations("serve.close"))), "ms"}
	out["serve.recover_ms"] = metric{ms(recovered[len(recovered)-1]), "ms"}
	return nil
}

// serveStream is one connection's share of the closed loop, sent
// straight into the handler.
func (b *bench) serveStream(ctx context.Context, tr *tracer, h http.Handler, c int, o *ops) error {
	hdr := http.Header{"Content-Type": {"application/x-ndjson"}, "X-Producer-Id": {"bench"}}
	return b.requests(c, func(i, r int) error {
		s := b.sessions[i]
		hdr["X-Producer-Seq"] = []string{strconv.Itoa(r + 1)}
		body, err := serveCall(ctx, tr, h, "serve.arrivals", http.MethodPost, "/v1/sessions/"+s.id+"/arrivals", s.bodies[r], hdr, o)
		if err != nil {
			return err
		}
		var a ack
		if err := json.Unmarshal(body, &a); err != nil || a.Accepted != s.lines[r] || a.Deduped {
			return o.fail(fmt.Errorf("arrivals %s #%d: ack %s", s.id, r+1, bytes.TrimSpace(body)))
		}
		if (r+1)%b.w.snapEvery == 0 {
			_, err = serveCall(ctx, tr, h, "serve.snapshot", http.MethodGet, "/v1/sessions/"+s.id+"/snapshot", nil, nil, o)
		}
		return err
	})
}

// serveCall sends one request through the handler under a span and
// returns the answer's body, failing on a non-2xx status.
func serveCall(ctx context.Context, tr *tracer, h http.Handler, name, method, target string, body []byte, hdr http.Header, o *ops) ([]byte, error) {
	req := httptest.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	_ = tr.do(name, 0, tr.req(), func() error {
		h.ServeHTTP(rec, req)
		return nil
	})
	out := rec.Body.Bytes()
	return out, o.expect2xx(rec.Code, out, nil, name)
}
