package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/perfbench/check"
)

// connections is the closed loop's width: each connection sends its
// next request only after the previous one was answered.
const connections = 2

// roundStats is what one round of the four phases measured.
type roundStats struct {
	boot, restart time.Duration
	traffic       time.Duration // first create to last ack
	wall          time.Duration // exec of the first daemon to the end of the last close
	acked         int
	ack, snap     []time.Duration
	ackP99        []time.Duration // per block of consecutive acks, see blockP99
	close         []time.Duration
	life1, life2  usage
	appended      uint64 // schedd_wal_appended_bytes_total of the first life
	clientCPU     time.Duration
}

// ops counts HTTP requests: every request is one operation, and a
// non-2xx answer, a transport error or a failed check fails it.
type ops struct {
	attempted, failed int
}

// client returns an HTTP client holding at most one keep-alive
// connection, with no proxy: every request goes straight to loopback.
func client() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// call sends one request, reads the whole answer and returns its
// status, body and the time from send to the answer's last byte.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, hdr http.Header) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, b, d, nil
}

// expect2xx counts the request and turns a failure into an error.
func (o *ops) expect2xx(status int, body []byte, err error, what string) error {
	o.attempted++
	if err == nil && (status < 200 || status > 299) {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err != nil {
		o.failed++
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// fail counts a check that failed on an answered request.
func (o *ops) fail(err error) error {
	o.failed++
	return err
}

// samples is one connection's latencies; acks keep their completion
// time so a round's acks can be cut into consecutive blocks.
type samples struct {
	ack  []timed
	snap []time.Duration
}

type timed struct {
	end time.Time
	d   time.Duration
}

// ackBlock is the fewest consecutive acks one p99 is taken over, so
// that at least ten samples lie beyond it.
const ackBlock = 1024

// blockP99 cuts the acks, in completion order, into equal blocks of at
// least ackBlock and returns each block's 99th percentile. A burst of
// slow fsyncs then moves one block's figure, not the run's median.
func blockP99(acks []timed) []time.Duration {
	slices.SortFunc(acks, func(a, b timed) int { return a.end.Compare(b.end) })
	n := max(len(acks)/ackBlock, 1)
	out := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		blk := acks[k*len(acks)/n : (k+1)*len(acks)/n]
		ds := make([]time.Duration, len(blk))
		for i, a := range blk {
			ds[i] = a.d
		}
		out = append(out, percentile(ds, 99))
	}
	return out
}

type snapshot struct {
	Backlog  int `json:"backlog"`
	Arrivals int `json:"arrivals"`
}

type ack struct {
	Accepted int  `json:"accepted"`
	Deduped  bool `json:"deduped"`
}

type closeResponse struct {
	ID     string       `json:"id"`
	Result check.Result `json:"result"`
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// round boots schedd on the empty dir, streams every session's
// arrivals, checks the daemon's accounting, SIGKILLs and restarts it,
// then closes every session. It returns the close responses in session
// order; checking them is left to the caller, outside the timed phases.
func (b *bench) round(ctx context.Context, dir string, o *ops) (*roundStats, [][]byte, error) {
	st := &roundStats{}
	t0 := time.Now()
	d, boot, err := b.procs.start(ctx, b.bin, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	defer b.procs.kill(d)
	st.boot = boot
	ctl := client()
	defer ctl.CloseIdleConnections()

	// Traffic: create every session, then stream them in a closed loop.
	cpu0 := cpuTime()
	start := time.Now()
	for _, s := range b.sessions {
		body, _ := json.Marshal(map[string]any{"id": s.id, "spec": b.w.policy})
		status, resp, _, err := call(ctx, ctl, http.MethodPost, d.base+"/v1/sessions", body, nil)
		if err := o.expect2xx(status, resp, err, "create "+s.id); err != nil {
			return nil, nil, err
		}
	}
	acked := make([]int, len(b.sessions))
	ends := make([]time.Time, connections)
	errs := make([]error, connections)
	lat := make([]samples, connections)
	counts := make([]ops, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := client()
			defer hc.CloseIdleConnections()
			ends[c], errs[c] = b.stream(ctx, hc, d.base, c, acked, &lat[c], &counts[c])
		}()
	}
	wg.Wait()
	st.clientCPU = cpuTime() - cpu0
	var acks []timed
	last := start
	for c := range counts {
		o.attempted += counts[c].attempted
		o.failed += counts[c].failed
		acks = append(acks, lat[c].ack...)
		st.snap = append(st.snap, lat[c].snap...)
		if errs[c] != nil {
			return nil, nil, errs[c]
		}
		if ends[c].After(last) {
			last = ends[c]
		}
	}
	for _, a := range acks {
		st.ack = append(st.ack, a.d)
	}
	st.ackP99 = blockP99(acks)
	st.traffic = last.Sub(start)
	for _, n := range acked {
		st.acked += n
	}

	// Crash: once every arrival is applied the daemon's own count must
	// match the acks; then read /proc, SIGKILL and restart.
	for i, s := range b.sessions {
		if err := b.awaitApplied(ctx, ctl, d.base, s.id, acked[i], o); err != nil {
			return nil, nil, err
		}
	}
	m, err := scrape(ctx, ctl, d.base, "schedd_arrivals_total", "schedd_wal_appended_bytes_total")
	if err := o.expect2xx(http.StatusOK, nil, err, "scrape before kill"); err != nil {
		return nil, nil, err
	}
	if got := m["schedd_arrivals_total"]; got != uint64(st.acked) {
		return nil, nil, o.fail(fmt.Errorf("schedd_arrivals_total %d, client acked %d", got, st.acked))
	}
	st.appended = m["schedd_wal_appended_bytes_total"]
	if st.life1, err = readUsage(d.cmd.Process.Pid); err != nil {
		return nil, nil, err
	}
	b.procs.kill(d)
	ctl.CloseIdleConnections()

	d, st.restart, err = b.procs.start(ctx, b.bin, dir)
	if err != nil {
		return nil, nil, fmt.Errorf("restart: %w", err)
	}
	defer b.procs.kill(d)
	m, err = scrape(ctx, ctl, d.base, "schedd_wal_recovered_arrivals")
	if err := o.expect2xx(http.StatusOK, nil, err, "scrape after restart"); err != nil {
		return nil, nil, err
	}
	if got := m["schedd_wal_recovered_arrivals"]; got != uint64(st.acked) {
		return nil, nil, o.fail(fmt.Errorf("schedd_wal_recovered_arrivals %d, client acked %d", got, st.acked))
	}
	for i, s := range b.sessions {
		status, body, _, err := call(ctx, ctl, http.MethodGet, d.base+"/v1/sessions/"+s.id+"/snapshot", nil, nil)
		if err := o.expect2xx(status, body, err, "snapshot after restart"); err != nil {
			return nil, nil, err
		}
		var sn snapshot
		if err := json.Unmarshal(body, &sn); err != nil || sn.Arrivals != acked[i] {
			return nil, nil, o.fail(fmt.Errorf("session %s recovered %d arrivals, client acked %d (%v)", s.id, sn.Arrivals, acked[i], err))
		}
	}

	// Close: one session at a time on the restarted daemon.
	bodies := make([][]byte, len(b.sessions))
	for i, s := range b.sessions {
		status, body, dur, err := call(ctx, ctl, http.MethodDelete, d.base+"/v1/sessions/"+s.id, nil, nil)
		if err := o.expect2xx(status, body, err, "close "+s.id); err != nil {
			return nil, nil, err
		}
		st.close = append(st.close, dur)
		bodies[i] = body
	}
	st.wall = time.Since(t0)
	if st.life2, err = readUsage(d.cmd.Process.Pid); err != nil {
		return nil, nil, err
	}
	b.procs.kill(d)

	return st, bodies, nil
}

// requests calls fn for connection c's requests in closed-loop order:
// the connection's sessions (i mod connections = c) round-robin, each
// session's requests r in sequence. Every pass sends in this order.
func (b *bench) requests(c int, fn func(i, r int) error) error {
	for r := 0; ; r++ {
		sent := false
		for i := c; i < len(b.sessions); i += connections {
			if r >= len(b.sessions[i].bodies) {
				continue
			}
			sent = true
			if err := fn(i, r); err != nil {
				return err
			}
		}
		if !sent {
			return nil
		}
	}
}

// stream is one connection of the closed loop: one stamped arrivals
// request at a time, and a session's snapshot after every snapEvery-th
// request of it. It returns the time of its last ack.
func (b *bench) stream(ctx context.Context, hc *http.Client, base string, c int, acked []int, lat *samples, o *ops) (time.Time, error) {
	var last time.Time
	hdr := http.Header{"Content-Type": {"application/x-ndjson"}, "X-Producer-Id": {"bench"}}
	err := b.requests(c, func(i, r int) error {
		s := b.sessions[i]
		hdr["X-Producer-Seq"] = []string{strconv.Itoa(r + 1)}
		status, body, dur, err := call(ctx, hc, http.MethodPost, base+"/v1/sessions/"+s.id+"/arrivals", s.bodies[r], hdr)
		last = time.Now()
		if err := o.expect2xx(status, body, err, "arrivals "+s.id); err != nil {
			return err
		}
		lat.ack = append(lat.ack, timed{last, dur})
		var a ack
		if err := json.Unmarshal(body, &a); err != nil || a.Accepted != s.lines[r] || a.Deduped {
			return o.fail(fmt.Errorf("arrivals %s #%d: ack %s, want %d accepted and not deduped", s.id, r+1, bytes.TrimSpace(body), s.lines[r]))
		}
		acked[i] += a.Accepted
		if (r+1)%b.w.snapEvery == 0 {
			status, body, dur, err := call(ctx, hc, http.MethodGet, base+"/v1/sessions/"+s.id+"/snapshot", nil, nil)
			if err := o.expect2xx(status, body, err, "snapshot "+s.id); err != nil {
				return err
			}
			lat.snap = append(lat.snap, dur)
		}
		return nil
	})
	return last, err
}

// awaitApplied polls the session's snapshot until its queue is empty
// and every acked arrival is applied.
func (b *bench) awaitApplied(ctx context.Context, c *http.Client, base, id string, want int, o *ops) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body, _, err := call(ctx, c, http.MethodGet, base+"/v1/sessions/"+id+"/snapshot", nil, nil)
		if err := o.expect2xx(status, body, err, "snapshot before kill"); err != nil {
			return err
		}
		var sn snapshot
		if err := json.Unmarshal(body, &sn); err != nil {
			return o.fail(fmt.Errorf("snapshot %s: %w", id, err))
		}
		if sn.Backlog == 0 && sn.Arrivals == want {
			return nil
		}
		if sn.Arrivals > want || time.Now().After(deadline) {
			return o.fail(fmt.Errorf("session %s: backlog %d, %d arrivals applied, client acked %d", id, sn.Backlog, sn.Arrivals, want))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
