package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

func TestRunAgainstLiveHost(t *testing.T) {
	srv := httptest.NewServer(serve.NewHandler(serve.NewHost(serve.Config{})))
	defer srv.Close()

	var out, errs bytes.Buffer
	err := run(context.Background(), []string{
		"-url", srv.URL, "-tenants", "3", "-n", "8", "-kind", "bursty",
		"-algo", "qoa", "-alpha", "2.5", "-scale", "0", "-v",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs.String())
	}
	text := out.String()
	for _, want := range []string{"3 tenants", "24 arrivals", "latency (s): n=24", "client allocs/arrival", "per-tenant results", "lg-2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output misses %q:\n%s", want, text)
		}
	}
}

func TestRunFlagAndKindErrors(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run(context.Background(), []string{"-kind", "nope"}, &out, &errs); err == nil ||
		!strings.Contains(err.Error(), "unknown workload kind") {
		t.Fatalf("bad kind: %v", err)
	}
	if err := run(context.Background(), []string{"-bogus"}, &out, &errs); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSurfacesServerRefusals(t *testing.T) {
	// A host with a one-session limit whose slot is already taken:
	// every tenant is refused admission, however the tenants
	// interleave; the error must carry the server's message.
	h := serve.NewHost(serve.Config{MaxSessions: 1})
	if _, err := h.Create("occupant", engine.Spec{Name: "oa", M: 1, Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHandler(h))
	defer srv.Close()
	var out, errs bytes.Buffer
	// -retries 0: a 429 is otherwise retried with back-off until the
	// retry budget runs out.
	err := run(context.Background(), []string{
		"-url", srv.URL, "-tenants", "3", "-n", "4", "-scale", "0", "-retries", "0",
	}, &out, &errs)
	if err == nil || !strings.Contains(err.Error(), "session limit reached") {
		t.Fatalf("want admission refusal surfaced, got %v", err)
	}
}

// TestRunBatchedThroughputMode drives the sustained-throughput path:
// NDJSON bodies of -batch arrivals per request against a live host,
// with the server-reported throughput line present (the handler's
// /metrics is live) and every arrival still accounted per-arrival in
// the latency histogram.
func TestRunBatchedThroughputMode(t *testing.T) {
	srv := httptest.NewServer(serve.NewHandler(serve.NewHost(serve.Config{})))
	defer srv.Close()

	var out, errs bytes.Buffer
	err := run(context.Background(), []string{
		"-url", srv.URL, "-tenants", "2", "-n", "100", "-kind", "heavytail",
		"-algo", "oa", "-alpha", "2", "-scale", "0", "-batch", "32",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs.String())
	}
	text := out.String()
	for _, want := range []string{"2 tenants", "200 arrivals", "latency (s): n=200", "server-reported:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output misses %q:\n%s", want, text)
		}
	}
}

// TestRunChaosMode routes the load through the in-process fault proxy
// with aggressive duplication and lost acks; producer stamping (on by
// default) must keep every tenant's run exactly-once — no partial
// accepts, no errors — and the chaos/resilience lines must report
// what happened.
func TestRunChaosMode(t *testing.T) {
	srv := httptest.NewServer(serve.NewHandler(serve.NewHost(serve.Config{ShedAfter: time.Second})))
	defer srv.Close()

	var out, errs bytes.Buffer
	err := run(context.Background(), []string{
		"-url", srv.URL, "-tenants", "2", "-n", "60", "-kind", "poisson",
		"-algo", "oa", "-alpha", "2.2", "-scale", "0", "-batch", "16",
		"-chaos", "duplicate=0.3,drop-response=0.15", "-chaos-seed", "7",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run under chaos: %v\nstderr: %s", err, errs.String())
	}
	text := out.String()
	for _, want := range []string{"2 tenants", "120 arrivals", "chaos: proxying", "resilience:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output misses %q:\n%s", want, text)
		}
	}
}
