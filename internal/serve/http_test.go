package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/workload"
)

// api wraps an httptest server over a fresh host for walkthroughs.
type api struct {
	t   *testing.T
	srv *httptest.Server
}

func newAPI(t *testing.T, cfg Config) (*api, *Host) {
	t.Helper()
	h := NewHost(cfg)
	srv := httptest.NewServer(NewHandler(h))
	t.Cleanup(srv.Close)
	return &api{t: t, srv: srv}, h
}

// do issues a request and decodes the JSON response into out (unless
// out is nil), asserting the expected status.
func (a *api) do(method, path string, body io.Reader, wantStatus int, out any) {
	a.t.Helper()
	req, err := http.NewRequest(method, a.srv.URL+path, body)
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := a.srv.Client().Do(req)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		a.t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			a.t.Fatalf("%s %s: decoding %s: %v", method, path, raw, err)
		}
	}
}

// ndjson renders jobs as an NDJSON stream body.
func ndjson(t *testing.T, jobs []job.Job) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, j := range jobs {
		if err := enc.Encode(j); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func TestHTTPWalkthrough(t *testing.T) {
	a, _ := newAPI(t, Config{})
	in := workload.Diurnal(workload.Config{N: 25, M: 1, Alpha: 2.2, Seed: 5, ValueScale: 2})
	norm := in.Clone()
	norm.Normalize()

	// The registry lists the built-in policies.
	var reg struct {
		Policies []registryEntry `json:"policies"`
	}
	a.do("GET", "/v1/registry", nil, http.StatusOK, &reg)
	names := map[string]bool{}
	for _, p := range reg.Policies {
		names[p.Name] = true
	}
	if !names["pd"] || !names["oa"] || !names["yds"] {
		t.Fatalf("registry misses built-ins: %+v", reg.Policies)
	}

	// Create a session.
	var created createResponse
	a.do("POST", "/v1/sessions",
		strings.NewReader(`{"id":"acme","spec":{"name":"oa","m":1,"alpha":2.2}}`),
		http.StatusCreated, &created)
	if created.ID != "acme" || created.Policy != "oa" {
		t.Fatalf("created = %+v", created)
	}
	// A byte-identical duplicate create is a retried request: acked 200
	// (idempotent), not conflicted.
	var recreated createResponse
	a.do("POST", "/v1/sessions",
		strings.NewReader(`{"id":"acme","spec":{"name":"oa","m":1,"alpha":2.2}}`),
		http.StatusOK, &recreated)
	if recreated.ID != "acme" || recreated.Policy != "oa" {
		t.Fatalf("recreated = %+v", recreated)
	}
	// A duplicate tenant id with a different spec conflicts.
	a.do("POST", "/v1/sessions",
		strings.NewReader(`{"id":"acme","spec":{"name":"oa","m":1,"alpha":3.3}}`),
		http.StatusConflict, nil)

	// Stream all arrivals as NDJSON.
	var arr arrivalsResponse
	a.do("POST", "/v1/sessions/acme/arrivals", ndjson(t, norm.Jobs), http.StatusOK, &arr)
	if arr.Accepted != len(norm.Jobs) || arr.Error != "" {
		t.Fatalf("arrivals = %+v", arr)
	}

	// Snapshot shows the live plan once the backlog drains.
	deadline := time.Now().Add(5 * time.Second)
	var snap SessionSnapshot
	for {
		a.do("GET", "/v1/sessions/acme/snapshot", nil, http.StatusOK, &snap)
		if snap.Arrivals == len(norm.Jobs) && snap.Backlog == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never drained: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	if snap.ID != "acme" || snap.Policy != "oa" || snap.Buffered {
		t.Fatalf("snapshot = %+v", snap)
	}

	// The session list shows the tenant.
	var list struct {
		Sessions []string `json:"sessions"`
	}
	a.do("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 1 || list.Sessions[0] != "acme" {
		t.Fatalf("sessions = %v", list.Sessions)
	}

	// Metrics render in Prometheus text format.
	resp, err := http.Get(a.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"schedd_sessions_live 1",
		fmt.Sprintf("schedd_arrivals_total %d", len(norm.Jobs)),
		"schedd_arrival_latency_seconds_bucket",
		"schedd_arrival_latency_seconds_p99",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Fatalf("metrics miss %q:\n%s", want, metricsText)
		}
	}

	// Close: the final Result is verified server-side and must match
	// batch replay byte for byte (timings masked).
	var closed closeResponse
	a.do("DELETE", "/v1/sessions/acme", nil, http.StatusOK, &closed)
	if closed.Result == nil || closed.Result.Schedule == nil {
		t.Fatalf("closed = %+v", closed)
	}
	want, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, engine.Spec{Name: "oa", M: 1, Alpha: 2.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(maskTimes(want[0]))
	bj, _ := json.Marshal(maskTimes(closed.Result))
	if !bytes.Equal(aj, bj) {
		t.Fatalf("HTTP-served result differs from batch replay:\n%s\nvs\n%s", aj, bj)
	}

	// Gone afterwards — but a retried DELETE is idempotent: the cached
	// final result is re-served byte-identically instead of a 404.
	a.do("GET", "/v1/sessions/acme/snapshot", nil, http.StatusNotFound, nil)
	var reclosed closeResponse
	a.do("DELETE", "/v1/sessions/acme", nil, http.StatusOK, &reclosed)
	cj, _ := json.Marshal(maskTimes(reclosed.Result))
	if !bytes.Equal(bj, cj) {
		t.Fatalf("re-closed result differs from original:\n%s\nvs\n%s", bj, cj)
	}
	// A tenant that never existed is still a 404.
	a.do("DELETE", "/v1/sessions/nope", nil, http.StatusNotFound, nil)
}

func TestHTTPErrorMapping(t *testing.T) {
	a, h := newAPI(t, Config{MaxSessions: 1})

	// Malformed create bodies.
	a.do("POST", "/v1/sessions", strings.NewReader(`{`), http.StatusBadRequest, nil)
	a.do("POST", "/v1/sessions", strings.NewReader(`{"bogus":1}`), http.StatusBadRequest, nil)
	// Unknown policy and incompatible spec.
	a.do("POST", "/v1/sessions", strings.NewReader(`{"spec":{"name":"nope","m":1,"alpha":2}}`), http.StatusBadRequest, nil)
	a.do("POST", "/v1/sessions", strings.NewReader(`{"spec":{"name":"oa","m":4,"alpha":2}}`), http.StatusBadRequest, nil)

	// Admission: limit 1.
	a.do("POST", "/v1/sessions", strings.NewReader(`{"id":"only","spec":{"name":"oa","m":1,"alpha":2}}`), http.StatusCreated, nil)
	a.do("POST", "/v1/sessions", strings.NewReader(`{"spec":{"name":"oa","m":1,"alpha":2}}`), http.StatusTooManyRequests, nil)
	// Duplicate would also be refused by admission here; free the slot
	// and retake it to exercise the conflict path.
	a.do("DELETE", "/v1/sessions/only", nil, http.StatusOK, nil)
	a.do("POST", "/v1/sessions", strings.NewReader(`{"id":"only","spec":{"name":"oa","m":1,"alpha":2}}`), http.StatusCreated, nil)

	// Unknown session.
	a.do("POST", "/v1/sessions/ghost/arrivals", strings.NewReader(""), http.StatusNotFound, nil)
	a.do("GET", "/v1/sessions/ghost/snapshot", nil, http.StatusNotFound, nil)
	a.do("DELETE", "/v1/sessions/ghost", nil, http.StatusNotFound, nil)

	// A malformed arrival line reports the accepted count so far.
	var arr arrivalsResponse
	a.do("POST", "/v1/sessions/only/arrivals",
		strings.NewReader(`{"id":0,"release":0,"deadline":1,"work":1,"value":1}`+"\n"+`{broken`),
		http.StatusBadRequest, &arr)
	if arr.Accepted != 1 || arr.Error == "" {
		t.Fatalf("arrivals = %+v", arr)
	}

	// Draining refuses creates with 503.
	if _, err := h.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	a.do("POST", "/v1/sessions", strings.NewReader(`{"spec":{"name":"oa","m":1,"alpha":2}}`), http.StatusServiceUnavailable, nil)
}

func TestHTTPArrivalErrorSurfaces(t *testing.T) {
	a, _ := newAPI(t, Config{})
	a.do("POST", "/v1/sessions", strings.NewReader(`{"id":"x","spec":{"name":"oa","m":1,"alpha":2}}`), http.StatusCreated, nil)
	// Second arrival violates release order; the applier records it
	// and either this request or a later one observes the failure.
	a.do("POST", "/v1/sessions/x/arrivals",
		ndjson(t, []job.Job{
			{ID: 0, Release: 5, Deadline: 6, Work: 1, Value: 1},
			{ID: 1, Release: 1, Deadline: 2, Work: 1, Value: 1},
		}), http.StatusOK, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		req, _ := http.NewRequest("POST", a.srv.URL+"/v1/sessions/x/arrivals",
			ndjson(t, []job.Job{{ID: 99, Release: 9, Deadline: 10, Work: 1, Value: 1}}))
		resp, err := a.srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var arr arrivalsResponse
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		_ = json.Unmarshal(raw, &arr)
		if resp.StatusCode == http.StatusBadRequest && strings.Contains(arr.Error, "release order") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("arrival error never surfaced (last: %d %s)", resp.StatusCode, raw)
		}
		time.Sleep(time.Millisecond)
	}
	// The close reports the poisoned session rather than a result.
	req, _ := http.NewRequest("DELETE", a.srv.URL+"/v1/sessions/x", nil)
	resp, err := a.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "arrival refused") {
		t.Fatalf("close of poisoned session: %d %s", resp.StatusCode, raw)
	}
}
