// Package load turns the workload generators into live traffic
// against a running schedd daemon: K concurrent tenants, each
// replaying a generated instance through workload.Stream in scaled
// wall-clock time over the HTTP API, then closing the session and
// collecting the final verified Result. It backs cmd/loadgen and
// doubles as the end-to-end test driver.
//
// Two delivery modes share one lifecycle: the default posts one
// arrival per request (per-arrival HTTP latency is the measurement),
// while Batch > 1 is the sustained-throughput mode — arrivals are
// encoded into NDJSON bodies with the zero-allocation job codec and
// posted Batch lines at a time, with the request/response buffers
// reused across the whole run. The report carries both the
// client-observed throughput and the server's own arrival counter
// over the same window, side by side, so a daemon bottleneck and a
// driver bottleneck cannot be confused.
package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Generator resolves a workload kind name to its generator, sharing
// tracegen's vocabulary.
func Generator(kind string) (func(workload.Config) *job.Instance, error) {
	switch kind {
	case "uniform":
		return workload.Uniform, nil
	case "poisson":
		return workload.Poisson, nil
	case "diurnal":
		return workload.Diurnal, nil
	case "bursty":
		return workload.Bursty, nil
	case "heavytail":
		return workload.HeavyTail, nil
	default:
		return nil, fmt.Errorf("load: unknown workload kind %q (want uniform, poisson, diurnal, bursty or heavytail)", kind)
	}
}

// Config shapes one load run.
type Config struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:8080".
	// Pointing it at a cluster controller also works as-is: arrivals
	// and snapshots come back as 307 redirects, and the client
	// re-sends the NDJSON body (a bytes.Reader, so replayable)
	// straight at the owning worker.
	BaseURL string
	// Endpoints, when non-empty, spreads tenants round-robin across
	// several daemons (tenant i drives Endpoints[i%len]) and the
	// report adds a per-node breakdown next to the fleet-merged view.
	// BaseURL is ignored when set.
	Endpoints []string
	// Client issues the HTTP requests (default http.DefaultClient).
	Client *http.Client
	// Spec is the policy every tenant's session is created from.
	Spec engine.Spec
	// Gen generates each tenant's instance (default workload.Poisson).
	Gen func(workload.Config) *job.Instance
	// Workload is the per-tenant shape; seeds are strided per tenant
	// exactly like workload.Fleet. M and Alpha follow Spec.
	Workload workload.Config
	// Tenants is the number of concurrent sessions K (default 1).
	Tenants int
	// Scale is the wall-clock duration of one unit of model time; 0
	// replays as fast as possible (see workload.NewStream).
	Scale time.Duration
	// Batch is how many arrivals each POST carries (default 1, the
	// per-arrival latency mode). Larger batches are the sustained-
	// throughput mode: NDJSON bodies built with the zero-allocation
	// codec, one request per Batch arrivals.
	Batch int
	// Workers bounds concurrently active tenants (default: all).
	Workers int
	// Prefix namespaces the tenant ids (default "lg").
	Prefix string
	// Unstamped turns producer stamping off. By default every arrival
	// request carries an idempotency stamp (producer = tenant id,
	// monotone sequence), which is what makes the resilient client's
	// retries of ambiguous outcomes exactly-once on the server.
	Unstamped bool
	// Retry tunes the resilient client's backoff loop; the zero value
	// uses internal/client defaults (4 retries, 50ms base, 2s cap).
	// The HTTPClient field is overridden by Config.Client when set.
	Retry client.Config
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Gen == nil {
		c.Gen = workload.Poisson
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Workers <= 0 || c.Workers > c.Tenants {
		c.Workers = c.Tenants
	}
	if c.Prefix == "" {
		c.Prefix = "lg"
	}
	c.Workload.M = c.Spec.M
	c.Workload.Alpha = c.Spec.Alpha
	return c
}

// TenantResult is one tenant's outcome.
type TenantResult struct {
	// ID is the session id the tenant ran under.
	ID string
	// Instance is the trace the tenant streamed (for re-verification).
	Instance *job.Instance
	// Arrivals counts delivered arrivals.
	Arrivals int
	// Result is the daemon's final verified result.
	Result *engine.Result
}

// Report aggregates one load run.
type Report struct {
	Tenants  int
	Arrivals int
	Rejected int
	Elapsed  time.Duration
	// Throughput is client-observed arrivals per wall-clock second:
	// acknowledged arrivals divided by the run's elapsed time.
	Throughput float64
	// ServerThroughput is the daemon's own story over the same window:
	// the delta of its schedd_arrivals_total counter divided by the
	// elapsed time. Zero when /metrics was unreachable (not a schedd).
	// Client and server throughput disagreeing is the signal to look
	// for a driver bottleneck (client) or a queueing backlog (server).
	ServerThroughput float64
	// Latency is the per-arrival HTTP round-trip histogram (seconds),
	// merged across tenants. In batch mode each arrival is charged its
	// request's amortized share, so the count stays one per arrival.
	Latency stats.Histogram
	// AllocsPerArrival is the client process's heap allocations per
	// delivered arrival over the run (runtime.MemStats mallocs delta
	// divided by arrivals) — a cheap canary for allocation regressions
	// anywhere in the driver stack. It counts the whole process, so
	// treat it as a trend line, not an exact attribution.
	AllocsPerArrival float64
	// Retries counts HTTP attempts beyond each request's first — the
	// resilient client riding out faults.
	Retries uint64
	// DupsSuppressed counts acks the server marked deduped: retried
	// deliveries whose original had already been applied, suppressed
	// by the idempotency window. Nonzero DupsSuppressed with correct
	// results is exactly-once working as designed.
	DupsSuppressed uint64
	// Shed429 counts 429/503 answers — the server shedding load
	// instead of stalling.
	Shed429 uint64
	// RetryAfterWaits counts backoff sleeps that honored a server
	// Retry-After hint rather than the local schedule.
	RetryAfterWaits uint64
	// NetErrors counts attempts that died on the wire (connection cut,
	// reset, truncated response) — the ambiguous outcomes that forced
	// idempotent retries.
	NetErrors uint64
	// Results holds every tenant's outcome, in tenant index order
	// (the numeric suffix of the ids).
	Results []TenantResult
	// PerNode breaks the run down by endpoint when Endpoints spread
	// tenants across several daemons; empty on single-endpoint runs.
	// The fleet-level fields above are the exact merge across nodes
	// (Latency merges losslessly; counts add).
	PerNode []NodeReport
}

// NodeReport is one endpoint's share of a multi-endpoint run.
type NodeReport struct {
	URL      string
	Tenants  int
	Arrivals int
	// Throughput is this node's acknowledged arrivals over the run's
	// shared wall-clock window.
	Throughput float64
	// Latency is the per-arrival round-trip histogram of this node's
	// tenants only.
	Latency stats.Histogram
}

// Run drives the full load: create K sessions, stream every tenant's
// arrivals at the configured time scale, close each session and
// collect its verified result. Tenants run concurrently on a bounded
// pool; a done ctx stops the remaining work. Partial failures do not
// abort other tenants — all errors come back joined.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	targets := cfg.Endpoints
	if len(targets) == 0 {
		targets = []string{cfg.BaseURL}
	}
	instances := workload.Fleet(cfg.Gen, cfg.Workload, cfg.Tenants)
	results := make([]TenantResult, cfg.Tenants)
	hists := make([]stats.Histogram, cfg.Tenants)

	serverBefore, serverOK := scrapeFleetArrivals(ctx, cfg, targets)
	// One resilient client for the whole run: its stats are the
	// report's resilience columns, and sharing the transport keeps
	// connection reuse across tenants.
	retry := cfg.Retry
	if cfg.Client != http.DefaultClient {
		retry.HTTPClient = cfg.Client
	}
	rc := client.New(retry)
	var dups atomic.Uint64
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	err := pool.RunCtx(ctx, cfg.Tenants, cfg.Workers, func(i int) error {
		id := fmt.Sprintf("%s-%d", cfg.Prefix, i)
		results[i] = TenantResult{ID: id, Instance: instances[i]}
		tc := &tenantClient{cfg: cfg, id: id, base: targets[i%len(targets)], rc: rc, dups: &dups}
		return tc.run(ctx, instances[i], &results[i], &hists[i])
	})
	rep := &Report{Tenants: cfg.Tenants, Elapsed: time.Since(start)}
	rep.Retries = rc.Stats.Retries.Load()
	rep.Shed429 = rc.Stats.Sheds.Load()
	rep.RetryAfterWaits = rc.Stats.RetryAfterWaits.Load()
	rep.NetErrors = rc.Stats.NetErrors.Load()
	rep.DupsSuppressed = dups.Load()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	for i := range results {
		rep.Arrivals += results[i].Arrivals
		if r := results[i].Result; r != nil {
			rep.Rejected += r.Rejected
		}
		rep.Latency.Merge(&hists[i])
	}
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.Throughput = float64(rep.Arrivals) / s
		if serverOK {
			if serverAfter, ok := scrapeFleetArrivals(ctx, cfg, targets); ok && serverAfter >= serverBefore {
				rep.ServerThroughput = float64(serverAfter-serverBefore) / s
			}
		}
	}
	if rep.Arrivals > 0 {
		rep.AllocsPerArrival = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(rep.Arrivals)
	}
	rep.Results = results
	if len(targets) > 1 {
		rep.PerNode = make([]NodeReport, len(targets))
		for n := range targets {
			rep.PerNode[n].URL = targets[n]
		}
		for i := range results {
			nr := &rep.PerNode[i%len(targets)]
			nr.Tenants++
			nr.Arrivals += results[i].Arrivals
			nr.Latency.Merge(&hists[i])
		}
		if s := rep.Elapsed.Seconds(); s > 0 {
			for n := range rep.PerNode {
				rep.PerNode[n].Throughput = float64(rep.PerNode[n].Arrivals) / s
			}
		}
	}
	return rep, err
}

// tenantClient is one tenant's connection state: the NDJSON body
// under construction (reused for every request of the tenant's life —
// the client-side mirror of the daemon's pooled decode/encode), the
// shared resilient client, and the tenant's producer sequence. The
// tenant id doubles as the producer id: one session, one producer,
// one monotone sequence — which is exactly the server's dedup-window
// contract.
type tenantClient struct {
	cfg  Config
	id   string
	base string // this tenant's endpoint
	rc   *client.Client
	dups *atomic.Uint64 // run-wide deduped-ack counter
	seq  uint64         // producer sequence; next batch is seq+1
	// fit caps a stamped request's length once the daemon has refused
	// a longer one with 413; 0 means no cap.
	fit  int
	body []byte
}

// run is one tenant's whole lifecycle against the daemon.
func (tc *tenantClient) run(ctx context.Context, in *job.Instance, out *TenantResult, hist *stats.Histogram) error {
	if err := tc.create(ctx); err != nil {
		return fmt.Errorf("tenant %s: create: %w", tc.id, err)
	}
	batch := make([]job.Job, 0, tc.cfg.Batch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := tc.postBatch(ctx, batch, hist); err != nil {
			return err
		}
		out.Arrivals += len(batch)
		batch = batch[:0]
		return nil
	}
	err := workload.NewStream(in, tc.cfg.Scale).Play(ctx, func(j job.Job) error {
		batch = append(batch, j)
		if len(batch) >= tc.cfg.Batch {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		return fmt.Errorf("tenant %s: stream: %w", tc.id, err)
	}
	res, err := tc.close(ctx)
	if err != nil {
		return fmt.Errorf("tenant %s: close: %w", tc.id, err)
	}
	out.Result = res
	return nil
}

// do issues one request through the resilient client — retries,
// backoff, Retry-After and redirects included — and returns the final
// response body. Non-2xx outcomes become errors carrying the server's
// message.
func (tc *tenantClient) do(ctx context.Context, method, path string, body []byte, headers map[string]string) ([]byte, error) {
	resp, err := tc.rc.Do(ctx, method, tc.base+path, body, headers)
	if err != nil {
		return nil, err
	}
	if resp.Status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.Status, bytes.TrimSpace(resp.Body))
	}
	return resp.Body, nil
}

func (tc *tenantClient) create(ctx context.Context) error {
	body, err := json.Marshal(map[string]any{"id": tc.id, "spec": tc.cfg.Spec})
	if err != nil {
		return err
	}
	// Create is retry-safe without a stamp: the server acks a
	// byte-identical duplicate create with 200.
	_, err = tc.do(ctx, http.MethodPost, "/v1/sessions", body, nil)
	return err
}

// postBatch delivers a batch of arrivals and charges each its
// amortized share of the round trip. Unless Unstamped, each request
// carries the tenant's producer stamp, so a retried delivery (lost
// ack, duplicated connection) is suppressed server-side and acked
// deduped — which this client counts but treats as success. A stamped
// request longer than the daemon's backlog bound (-max-backlog) draws
// a 413 before the daemon takes its sequence number, so the client
// halves it and resends under the same sequence; later requests are
// cut to the size that fit.
func (tc *tenantClient) postBatch(ctx context.Context, batch []job.Job, hist *stats.Histogram) error {
	path := "/v1/sessions/" + tc.id + "/arrivals"
	for len(batch) > 0 {
		n := len(batch)
		if tc.fit > 0 {
			n = min(n, tc.fit)
		}
		tc.body = tc.body[:0]
		for _, j := range batch[:n] {
			tc.body = job.AppendJSON(tc.body, j)
			tc.body = append(tc.body, '\n')
		}
		var headers map[string]string
		if !tc.cfg.Unstamped {
			headers = map[string]string{
				"X-Producer-Id":  tc.id,
				"X-Producer-Seq": strconv.FormatUint(tc.seq+1, 10),
			}
		}
		t0 := time.Now()
		resp, err := tc.rc.Do(ctx, http.MethodPost, tc.base+path, tc.body, headers)
		if err != nil {
			return err
		}
		if resp.Status == http.StatusRequestEntityTooLarge && headers != nil && n > 1 {
			tc.fit = n / 2
			continue
		}
		if headers != nil {
			tc.seq++
		}
		if resp.Status/100 != 2 {
			return fmt.Errorf("%s %s: status %d: %s", http.MethodPost, path, resp.Status, bytes.TrimSpace(resp.Body))
		}
		hist.ObserveN(time.Since(t0).Seconds()/float64(n), uint64(n))
		var ack struct {
			Accepted int    `json:"accepted"`
			Deduped  bool   `json:"deduped"`
			Error    string `json:"error"`
		}
		if err := json.Unmarshal(resp.Body, &ack); err != nil {
			return err
		}
		if ack.Deduped {
			tc.dups.Add(1)
		}
		if ack.Accepted != n {
			return fmt.Errorf("batch partially accepted (%d of %d): job %d: %s",
				ack.Accepted, n, tc.rejectedJobID(ack.Accepted), ack.Error)
		}
		batch = batch[n:]
	}
	return nil
}

// rejectedJobID decodes the request body it just sent back through
// the NDJSON decoder to name the first arrival the daemon did not
// accept — error reporting that costs nothing until something fails.
func (tc *tenantClient) rejectedJobID(accepted int) int {
	dec := job.GetDecoder(bytes.NewReader(tc.body))
	defer job.PutDecoder(dec)
	var j job.Job
	for i := 0; i <= accepted; i++ {
		if err := dec.Next(&j); err != nil {
			return -1
		}
	}
	return j.ID
}

func (tc *tenantClient) close(ctx context.Context) (*engine.Result, error) {
	// Close is retry-safe: a lost DELETE ack is re-served from the
	// daemon's closed-result cache on the retry.
	raw, err := tc.do(ctx, http.MethodDelete, "/v1/sessions/"+tc.id, nil, nil)
	if err != nil {
		return nil, err
	}
	var closed struct {
		Result *engine.Result `json:"result"`
	}
	if err := json.Unmarshal(raw, &closed); err != nil {
		return nil, err
	}
	if closed.Result == nil {
		return nil, fmt.Errorf("close returned no result")
	}
	return closed.Result, nil
}

// scrapeFleetArrivals sums the applied-arrival counter across every
// target's /metrics; ok is false when no target exposed one. A single
// daemon answers schedd_arrivals_total, a cluster controller answers
// the fleet-merged schedd_fleet_arrivals_total — both count the same
// thing, arrivals applied, so the sum is coherent either way.
func scrapeFleetArrivals(ctx context.Context, cfg Config, targets []string) (uint64, bool) {
	var total uint64
	any := false
	for _, base := range targets {
		if v, ok := scrapeArrivalsTotal(ctx, cfg, base); ok {
			total += v
			any = true
		}
	}
	return total, any
}

// scrapeArrivalsTotal reads one daemon's applied-arrival counter off
// /metrics; ok is false when the endpoint is unreachable or does not
// expose the counter.
func scrapeArrivalsTotal(ctx context.Context, cfg Config, base string) (uint64, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, false
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, false
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "schedd_arrivals_total ")
		if !ok {
			rest, ok = strings.CutPrefix(line, "schedd_fleet_arrivals_total ")
		}
		if ok {
			v, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// Render writes the human-readable report: the aggregate line plus a
// tenant table when verbose.
func (r *Report) Render(w io.Writer, verbose bool) error {
	if _, err := fmt.Fprintf(w,
		"loadgen: %d tenants, %d arrivals in %v (%.1f arrivals/s), %d rejected\n",
		r.Tenants, r.Arrivals, r.Elapsed.Round(time.Millisecond), r.Throughput, r.Rejected); err != nil {
		return err
	}
	if r.ServerThroughput > 0 {
		if _, err := fmt.Fprintf(w, "server-reported: %.1f arrivals/s (client-observed %.1f)\n",
			r.ServerThroughput, r.Throughput); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "latency (s): %s\nclient allocs/arrival: %.1f\n",
		r.Latency.String(), r.AllocsPerArrival); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"resilience: %d retries, %d duplicates suppressed, %d shed (429/503), %d retry-after waits, %d net errors\n",
		r.Retries, r.DupsSuppressed, r.Shed429, r.RetryAfterWaits, r.NetErrors); err != nil {
		return err
	}
	for _, nr := range r.PerNode {
		if _, err := fmt.Fprintf(w, "node %s: %d tenants, %d arrivals (%.1f arrivals/s), latency (s): %s\n",
			nr.URL, nr.Tenants, nr.Arrivals, nr.Throughput, nr.Latency.String()); err != nil {
			return err
		}
	}
	if !verbose {
		return nil
	}
	tbl := &stats.Table{
		Title:   "per-tenant results",
		Headers: []string{"tenant", "arrivals", "energy", "lost", "cost", "rejected"},
	}
	for _, tr := range r.Results {
		if tr.Result == nil {
			tbl.AddRow(tr.ID, tr.Arrivals, "-", "-", "-", "-")
			continue
		}
		tbl.AddRow(tr.ID, tr.Arrivals, tr.Result.Energy, tr.Result.LostValue, tr.Result.Cost, tr.Result.Rejected)
	}
	return tbl.Render(w)
}
