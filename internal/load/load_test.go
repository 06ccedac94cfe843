package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// newTestTenant builds a tenantClient over an httptest server with the
// shared resilient client wired in, as Run would.
func newTestTenant(srv *httptest.Server) *tenantClient {
	cfg := Config{BaseURL: srv.URL, Client: srv.Client()}.withDefaults()
	var dups atomic.Uint64
	return &tenantClient{
		cfg: cfg, id: "t-0", base: srv.URL,
		rc:   client.New(client.Config{HTTPClient: cfg.Client}),
		dups: &dups,
	}
}

func TestGeneratorKinds(t *testing.T) {
	for _, kind := range []string{"uniform", "poisson", "diurnal", "bursty", "heavytail"} {
		gen, err := Generator(kind)
		if err != nil {
			t.Fatalf("Generator(%q): %v", kind, err)
		}
		in := gen(workload.Config{N: 3, Seed: 1})
		if len(in.Jobs) != 3 {
			t.Fatalf("Generator(%q) produced %d jobs, want 3", kind, len(in.Jobs))
		}
	}
	if _, err := Generator("zipf"); err == nil || !strings.Contains(err.Error(), "zipf") {
		t.Fatalf("Generator(zipf) error = %v, want unknown-kind error naming it", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Spec: engine.Spec{M: 4, Alpha: 2.5}, Tenants: 8, Workers: 99}.withDefaults()
	if c.Batch != 1 || c.Prefix != "lg" || c.Client == nil || c.Gen == nil {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.Workers != 8 {
		t.Fatalf("Workers = %d, want clamped to Tenants (8)", c.Workers)
	}
	if c.Workload.M != 4 || c.Workload.Alpha != 2.5 {
		t.Fatalf("Workload did not inherit Spec's M/Alpha: %+v", c.Workload)
	}
}

// TestPostBatchBody pins the request wire format: one NDJSON line per
// arrival, built with the zero-allocation codec, decodable by the
// daemon's own decoder.
func TestPostBatchBody(t *testing.T) {
	var got []job.Job
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dec := job.GetDecoder(r.Body)
		defer job.PutDecoder(dec)
		var j job.Job
		for {
			if err := dec.Next(&j); err != nil {
				break
			}
			got = append(got, j)
		}
		fmt.Fprintf(w, `{"accepted":%d}`, len(got))
	}))
	defer srv.Close()

	tc := newTestTenant(srv)
	batch := []job.Job{
		{ID: 7, Release: 0.5, Deadline: 1.5, Work: 0.25},
		{ID: 8, Release: 0.75, Deadline: 2, Work: 0.5},
	}
	var hist stats.Histogram
	if err := tc.postBatch(context.Background(), batch, &hist); err != nil {
		t.Fatalf("postBatch: %v", err)
	}
	if len(got) != len(batch) {
		t.Fatalf("daemon decoded %d arrivals, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Fatalf("arrival %d decoded as %+v, want %+v", i, got[i], batch[i])
		}
	}
	if hist.Count() != uint64(len(batch)) {
		t.Fatalf("latency histogram counted %d, want one entry per arrival (%d)", hist.Count(), len(batch))
	}
}

// TestPostBatchRejectionAttribution pins the failed-line attribution:
// a partial accept must name the first rejected arrival by job ID,
// decoded back out of the request body the client just sent.
func TestPostBatchRejectionAttribution(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"accepted":1,"error":"policy refused"}`)
	}))
	defer srv.Close()

	tc := newTestTenant(srv)
	batch := []job.Job{
		{ID: 41, Release: 0, Deadline: 1, Work: 0.1},
		{ID: 42, Release: 1, Deadline: 2, Work: 0.1},
		{ID: 43, Release: 2, Deadline: 3, Work: 0.1},
	}
	var hist stats.Histogram
	err := tc.postBatch(context.Background(), batch, &hist)
	if err == nil {
		t.Fatal("postBatch accepted a partial ack without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "job 42") {
		t.Fatalf("error %q does not name the first rejected arrival (job 42)", msg)
	}
	if !strings.Contains(msg, "policy refused") || !strings.Contains(msg, "1 of 3") {
		t.Fatalf("error %q should carry the server message and the accepted count", msg)
	}
}

func TestScrapeArrivalsTotal(t *testing.T) {
	metrics := "# TYPE schedd_arrivals_total counter\nschedd_arrivals_total 12345\nother 1\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, metrics)
	}))
	defer srv.Close()

	cfg := Config{BaseURL: srv.URL, Client: srv.Client()}.withDefaults()
	v, ok := scrapeArrivalsTotal(context.Background(), cfg, cfg.BaseURL)
	if !ok || v != 12345 {
		t.Fatalf("scrapeArrivalsTotal = %d, %v; want 12345, true", v, ok)
	}

	metrics = "schedd_arrivals_total not-a-number\n"
	if _, ok := scrapeArrivalsTotal(context.Background(), cfg, cfg.BaseURL); ok {
		t.Fatal("scrapeArrivalsTotal parsed a garbage counter")
	}

	cfg.BaseURL = srv.URL + "/missing"
	if _, ok := scrapeArrivalsTotal(context.Background(), cfg, cfg.BaseURL); ok {
		t.Fatal("scrapeArrivalsTotal reported ok for a 404 endpoint")
	}
}

// stubDaemon fakes just enough of schedd's HTTP surface for Run: it
// counts arrivals by decoding the NDJSON bodies and answers closes
// with a canned verified result.
type stubDaemon struct {
	arrivals atomic.Uint64
	rejected int
}

func (d *stubDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{}`)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/arrivals", func(w http.ResponseWriter, r *http.Request) {
		dec := job.GetDecoder(r.Body)
		defer job.PutDecoder(dec)
		var j job.Job
		n := 0
		for dec.Next(&j) == nil {
			n++
		}
		d.arrivals.Add(uint64(n))
		fmt.Fprintf(w, `{"accepted":%d}`, n)
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		res := engine.Result{Policy: "stub", Energy: 1, Rejected: d.rejected}
		_ = json.NewEncoder(w).Encode(map[string]any{"result": res})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "schedd_arrivals_total %d\n", d.arrivals.Load())
	})
	return mux
}

func TestRunAgainstStubDaemon(t *testing.T) {
	daemon := &stubDaemon{rejected: 1}
	srv := httptest.NewServer(daemon.handler())
	defer srv.Close()

	const tenants, jobsPerTenant = 3, 8
	rep, err := Run(context.Background(), Config{
		BaseURL:  srv.URL,
		Client:   srv.Client(),
		Spec:     engine.Spec{Name: "stub", M: 1, Alpha: 2},
		Workload: workload.Config{N: jobsPerTenant, Seed: 42},
		Tenants:  tenants,
		Batch:    3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Tenants != tenants || rep.Arrivals != tenants*jobsPerTenant {
		t.Fatalf("report counted %d tenants / %d arrivals, want %d / %d",
			rep.Tenants, rep.Arrivals, tenants, tenants*jobsPerTenant)
	}
	if got := daemon.arrivals.Load(); got != tenants*jobsPerTenant {
		t.Fatalf("daemon decoded %d arrivals, want %d", got, tenants*jobsPerTenant)
	}
	if rep.Rejected != tenants*daemon.rejected {
		t.Fatalf("Rejected = %d, want %d (aggregated across tenants)", rep.Rejected, tenants*daemon.rejected)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("Throughput = %v, want > 0", rep.Throughput)
	}
	if rep.ServerThroughput <= 0 {
		t.Fatalf("ServerThroughput = %v, want > 0 (scraped off the stub's /metrics)", rep.ServerThroughput)
	}
	if rep.Latency.Count() != uint64(rep.Arrivals) {
		t.Fatalf("latency histogram counted %d, want one entry per arrival (%d)", rep.Latency.Count(), rep.Arrivals)
	}
	if len(rep.Results) != tenants {
		t.Fatalf("Results has %d tenants, want %d", len(rep.Results), tenants)
	}
	for i, tr := range rep.Results {
		if tr.Result == nil {
			t.Fatalf("tenant %d has no verified result", i)
		}
		if want := fmt.Sprintf("lg-%d", i); tr.ID != want {
			t.Fatalf("tenant %d id = %q, want %q", i, tr.ID, want)
		}
		if tr.Arrivals != jobsPerTenant {
			t.Fatalf("tenant %d delivered %d arrivals, want %d", i, tr.Arrivals, jobsPerTenant)
		}
	}
}

// TestRunBatchLargerThanDefaultBacklog pins `loadgen -batch 512`
// against a daemon on default flags: a stamped batch longer than the
// backlog bound draws a 413 without using up its sequence number, the
// client halves it under the same sequence, and every arrival is still
// applied exactly once. The later cases take more than one halving.
func TestRunBatchLargerThanDefaultBacklog(t *testing.T) {
	for _, tc := range []struct {
		name              string
		batch, maxBacklog int
	}{
		{"batch512", 512, 0},
		{"batch1024", 1024, 0},
		{"batch512-backlog100", 512, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := serve.NewHost(serve.Config{MaxBacklog: tc.maxBacklog})
			srv := httptest.NewServer(serve.NewHandler(h))
			defer srv.Close()

			const tenants, jobsPerTenant = 2, 1500
			spec := engine.Spec{Name: "oa", M: 1, Alpha: 2}
			rep, err := Run(context.Background(), Config{
				BaseURL:  srv.URL,
				Client:   srv.Client(),
				Spec:     spec,
				Workload: workload.Config{N: jobsPerTenant, Seed: 5, ValueScale: math.Inf(1)},
				Tenants:  tenants,
				Batch:    tc.batch,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Arrivals != tenants*jobsPerTenant {
				t.Fatalf("delivered %d arrivals, want %d", rep.Arrivals, tenants*jobsPerTenant)
			}
			if got := h.Metrics().Arrivals(); got != tenants*jobsPerTenant {
				t.Fatalf("daemon applied %d arrivals, want %d", got, tenants*jobsPerTenant)
			}
			if rep.DupsSuppressed != 0 || h.Metrics().DedupSuppressed() != 0 {
				t.Fatalf("halving replayed a sequence: %d deduped acks, %d suppressed",
					rep.DupsSuppressed, h.Metrics().DedupSuppressed())
			}
			mask := func(r *engine.Result) []byte {
				cp := *r
				cp.MaxArrive, cp.TotalArrive, cp.PlanTime = 0, 0, 0
				b, _ := json.Marshal(&cp)
				return b
			}
			for i, tr := range rep.Results {
				want, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{tr.Instance}, spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mask(tr.Result), mask(want[0])) {
					t.Fatalf("tenant %d: served result differs from replay of its trace", i)
				}
			}
		})
	}
}

// TestRunMultiEndpoint pins the fleet mode: tenants spread round-robin
// across endpoints, the per-node breakdown accounts for every arrival,
// and the fleet numbers are the exact sum of the nodes.
func TestRunMultiEndpoint(t *testing.T) {
	d1, d2 := &stubDaemon{}, &stubDaemon{}
	s1 := httptest.NewServer(d1.handler())
	defer s1.Close()
	s2 := httptest.NewServer(d2.handler())
	defer s2.Close()

	const tenants, jobsPerTenant = 5, 6
	rep, err := Run(context.Background(), Config{
		Endpoints: []string{s1.URL, s2.URL},
		Spec:      engine.Spec{Name: "stub", M: 1, Alpha: 2},
		Workload:  workload.Config{N: jobsPerTenant, Seed: 9},
		Tenants:   tenants,
		Batch:     4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Arrivals != tenants*jobsPerTenant {
		t.Fatalf("fleet arrivals = %d, want %d", rep.Arrivals, tenants*jobsPerTenant)
	}
	if len(rep.PerNode) != 2 {
		t.Fatalf("PerNode has %d entries, want 2", len(rep.PerNode))
	}
	// Round-robin over 5 tenants: 3 on the first endpoint, 2 on the
	// second — and each daemon saw exactly its tenants' arrivals.
	if rep.PerNode[0].Tenants != 3 || rep.PerNode[1].Tenants != 2 {
		t.Fatalf("tenant split = %d/%d, want 3/2", rep.PerNode[0].Tenants, rep.PerNode[1].Tenants)
	}
	if got := d1.arrivals.Load(); got != uint64(rep.PerNode[0].Arrivals) {
		t.Fatalf("node 1 decoded %d arrivals, report says %d", got, rep.PerNode[0].Arrivals)
	}
	if got := d2.arrivals.Load(); got != uint64(rep.PerNode[1].Arrivals) {
		t.Fatalf("node 2 decoded %d arrivals, report says %d", got, rep.PerNode[1].Arrivals)
	}
	sum := rep.PerNode[0].Arrivals + rep.PerNode[1].Arrivals
	if sum != rep.Arrivals {
		t.Fatalf("per-node arrivals sum to %d, fleet says %d", sum, rep.Arrivals)
	}
	if rep.PerNode[0].Latency.Count()+rep.PerNode[1].Latency.Count() != rep.Latency.Count() {
		t.Fatal("per-node latency counts do not sum to the fleet merge")
	}
	// The server-side view sums both daemons' counters.
	if rep.ServerThroughput <= 0 {
		t.Fatalf("ServerThroughput = %v, want > 0 (summed across endpoints)", rep.ServerThroughput)
	}
	var out bytes.Buffer
	if err := rep.Render(&out, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "node "+s1.URL) || !strings.Contains(out.String(), "node "+s2.URL) {
		t.Fatalf("render missing the per-node breakdown:\n%s", out.String())
	}
}

func TestRenderReport(t *testing.T) {
	rep := &Report{
		Tenants:          2,
		Arrivals:         16,
		Rejected:         1,
		Elapsed:          123 * time.Millisecond,
		Throughput:       130.1,
		ServerThroughput: 128.4,
		Results: []TenantResult{
			{ID: "lg-0", Arrivals: 8, Result: &engine.Result{Energy: 2.5, Rejected: 1}},
			{ID: "lg-1", Arrivals: 8},
		},
	}
	var quiet bytes.Buffer
	if err := rep.Render(&quiet, false); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := quiet.String()
	for _, want := range []string{"2 tenants", "16 arrivals", "1 rejected", "server-reported: 128.4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("quiet render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "lg-0") {
		t.Fatalf("quiet render should not include the tenant table:\n%s", out)
	}

	var verbose bytes.Buffer
	if err := rep.Render(&verbose, true); err != nil {
		t.Fatalf("Render verbose: %v", err)
	}
	vout := verbose.String()
	for _, want := range []string{"lg-0", "lg-1", "per-tenant results"} {
		if !strings.Contains(vout, want) {
			t.Fatalf("verbose render missing %q:\n%s", want, vout)
		}
	}
}
