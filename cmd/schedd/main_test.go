package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/load"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// startDaemon boots a real daemon on a random localhost port, with
// the profiling endpoints mounted as an operator would for a perf
// investigation.
func startDaemon(t *testing.T, cfg serve.Config) *daemon {
	t.Helper()
	d := newDaemon(cfg, 30*time.Second, true)
	if err := d.listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- d.serveHTTP() }()
	t.Cleanup(func() {
		d.srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return d
}

// reverify re-checks every tenant's returned schedule client-side
// against the instance it streamed — the daemon already verified at
// close, this pins that the wire carried the real schedule.
func reverify(t *testing.T, rep *load.Report) {
	t.Helper()
	for _, tr := range rep.Results {
		if tr.Result == nil || tr.Result.Schedule == nil {
			t.Fatalf("tenant %s: no verified result (%+v)", tr.ID, tr.Result)
		}
		if err := sched.Verify(tr.Instance, tr.Result.Schedule); err != nil {
			t.Fatalf("tenant %s: returned schedule fails verification: %v", tr.ID, err)
		}
	}
}

// TestEndToEnd is the CI smoke test: schedd on a random port, loadgen
// with small K and n in scaled real time, a clean drain with results
// flushed, and non-empty metrics. It runs in -short mode.
func TestEndToEnd(t *testing.T) {
	d := startDaemon(t, serve.Config{MaxSessions: 64})
	base := "http://" + d.addr()

	rep, err := load.Run(context.Background(), load.Config{
		BaseURL: base,
		Spec:    engine.Spec{Name: "oa", M: 1, Alpha: 2.2},
		Gen:     workload.Bursty,
		Workload: workload.Config{
			N: 10, Seed: 7, ValueScale: 2, Horizon: 0.05,
		},
		Tenants: 8,
		Scale:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if rep.Tenants != 8 || rep.Arrivals != 80 {
		t.Fatalf("report: %d tenants, %d arrivals", rep.Tenants, rep.Arrivals)
	}
	if rep.Latency.Count() != 80 || rep.Throughput <= 0 {
		t.Fatalf("report stats: latency n=%d throughput=%v", rep.Latency.Count(), rep.Throughput)
	}
	reverify(t, rep)

	// Metrics are live and non-empty.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"schedd_arrivals_total 80", "schedd_sessions_closed_total 8", "schedd_arrival_latency_seconds_count 80"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics miss %q:\n%s", want, metrics)
		}
	}

	// The profiling endpoints answer when mounted (startDaemon opts in)
	// and the API still routes around them.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: %s", resp.Status)
	}

	// Leave one session open: the drain must close it, verify its
	// schedule and flush its result into the shutdown summary.
	straggler, err := d.host.Create("straggler", engine.Spec{Name: "pd", M: 1, Alpha: 2.2})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.Uniform(workload.Config{N: 6, M: 1, Alpha: 2.2, Seed: 3, ValueScale: 2})
	if err := workload.NewStream(in, 0).Play(context.Background(), func(j job.Job) error {
		_, _, err := straggler.SubmitBatch(context.Background(), []job.Job{j})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := d.shutdown(&out); err != nil {
		t.Fatalf("shutdown: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "straggler") || !strings.Contains(text, "drained 1 sessions") {
		t.Fatalf("drain summary:\n%s", text)
	}
	if ids := d.host.SessionIDs(); len(ids) != 0 {
		t.Fatalf("sessions survived drain: %v", ids)
	}
}

// TestPprofOffByDefault: without -pprof the debug endpoints must not
// exist — they expose process internals.
func TestPprofOffByDefault(t *testing.T) {
	d := newDaemon(serve.Config{MaxSessions: 4}, time.Second, false)
	if err := d.listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- d.serveHTTP() }()
	t.Cleanup(func() {
		d.srv.Close()
		<-errc
	})
	resp, err := http.Get("http://" + d.addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without -pprof")
	}
}

// TestEndToEndSoak100 is the acceptance soak: 100 concurrent tenants
// through one daemon, every session's final result schedule-verified
// both server- and client-side.
func TestEndToEndSoak100(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run skipped in -short mode")
	}
	d := startDaemon(t, serve.Config{MaxSessions: 256, Shards: 32})
	rep, err := load.Run(context.Background(), load.Config{
		BaseURL: "http://" + d.addr(),
		Spec:    engine.Spec{Name: "pd", M: 1, Alpha: 2.2},
		Gen:     workload.Poisson,
		Workload: workload.Config{
			N: 20, Seed: 42, ValueScale: 2,
		},
		Tenants: 100,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if rep.Tenants != 100 || rep.Arrivals != 100*20 {
		t.Fatalf("report: %d tenants, %d arrivals", rep.Tenants, rep.Arrivals)
	}
	reverify(t, rep)
	if live := d.host.Metrics().SessionsLive(); live != 0 {
		t.Fatalf("%d sessions still live after the run", live)
	}
	var out bytes.Buffer
	if err := d.shutdown(&out); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("%d arrivals served", rep.Arrivals)) {
		t.Fatalf("shutdown summary:\n%s", out.String())
	}
}
