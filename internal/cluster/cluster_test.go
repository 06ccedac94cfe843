package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

// testWorker is one in-process worker: WAL store, host, node handler
// behind an httptest server, and an agent joined to the controller.
type testWorker struct {
	name  string
	store *wal.Store
	host  *serve.Host
	srv   *httptest.Server
	agent *Agent
}

func newTestWorker(t *testing.T, name, controllerURL string) *testWorker {
	t.Helper()
	st, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := serve.NewHost(serve.Config{WAL: st, CheckpointEvery: 25})
	fence := NewEpochFence()
	srv := httptest.NewServer(NewNodeHandler(name, h, st, fence))
	w := &testWorker{name: name, store: st, host: h, srv: srv}
	w.agent = NewAgent(NodeConfig{
		Name: name, Advertise: srv.URL, Controller: controllerURL, Fence: fence,
	}, h, st)
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	if _, err := w.agent.Join(context.Background()); err != nil {
		t.Fatalf("join %s: %v", name, err)
	}
	return w
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func maskResult(r *engine.Result) *engine.Result {
	cp := *r
	cp.MaxArrive, cp.TotalArrive, cp.PlanTime = 0, 0, 0
	return &cp
}

// waitMigrated polls until the supervisor's queue is empty — the
// rebalance/drain verbs answer 202 and converge in the background.
func waitMigrated(t *testing.T, c *Controller) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mc := c.sup.counts()
		if mc.Running+mc.Queued+mc.Waiting == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("migrations did not converge: %+v", c.sup.counts())
}

// waitSettled polls the tenant's snapshot through the controller (the
// client follows its 307) until exactly `arrivals` are applied and
// nothing is queued. The arrivals 200 only means queued and on disk,
// and the applied-arrivals counters trail it; once a snapshot shows
// the arrivals applied, every worker's counters include them.
func waitSettled(t *testing.T, base, id string, arrivals int) {
	t.Helper()
	var (
		lastCode int
		lastBody []byte
	)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/sessions/" + id + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		lastBody, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		lastCode = resp.StatusCode
		if lastCode == http.StatusOK {
			var snap serve.SessionSnapshot
			if err := json.Unmarshal(lastBody, &snap); err != nil {
				t.Fatal(err)
			}
			if snap.Arrivals == arrivals && snap.Backlog == 0 {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("tenant %s never settled at %d arrivals (last snapshot: %d %s)", id, arrivals, lastCode, lastBody)
}

// TestClusterMigrationDifferential drives the full cluster surface in
// process: create through the controller's proxy, ingest through its
// 307 redirects, migrate the tenant mid-stream between two live
// workers, ingest the rest at its new home, and require the final
// verified Result byte-identical to an uninterrupted single-engine
// replay of the same workload.
func TestClusterMigrationDifferential(t *testing.T) {
	c := NewController(Options{})
	ctrl := httptest.NewServer(NewHTTPHandler(c))
	defer ctrl.Close()

	newTestWorker(t, "w1", ctrl.URL)
	newTestWorker(t, "w2", ctrl.URL)

	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.2}
	in := workload.Poisson(workload.Config{N: 140, M: 1, Alpha: 2.2, Seed: 23, ValueScale: 2})
	cut := len(in.Jobs) / 2

	// Create through the controller; it picks the home.
	resp := postJSON(t, ctrl.URL+"/v1/sessions", map[string]any{"id": "mig-1", "spec": spec})
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("proxied create: status %d: %s", resp.StatusCode, b)
	}
	resp.Body.Close()
	home := c.Tenants()["mig-1"]
	if home != "w1" && home != "w2" {
		t.Fatalf("tenant placed on %q", home)
	}

	// The data plane is a redirect, not a proxy: pin the 307 and its
	// Location before letting the real client follow it.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	probe, err := noFollow.Post(ctrl.URL+"/v1/sessions/mig-1/arrivals", "application/x-ndjson", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, probe.Body)
	probe.Body.Close()
	if probe.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("arrivals at the controller: status %d, want 307", probe.StatusCode)
	}
	loc := probe.Header.Get("Location")
	if !strings.HasSuffix(loc, "/v1/sessions/mig-1/arrivals") {
		t.Fatalf("redirect Location = %q", loc)
	}

	// First half of the stream: the default client follows the 307 and
	// replays the bytes.Reader body at the owning worker.
	feed := func(js []job.Job) {
		t.Helper()
		resp, err := http.Post(ctrl.URL+"/v1/sessions/mig-1/arrivals", "application/x-ndjson",
			bytes.NewReader(job.AppendNDJSON(nil, js)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack struct {
			Accepted int    `json:"accepted"`
			Error    string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || ack.Accepted != len(js) {
			t.Fatalf("ingest: status %d accepted %d/%d err %q", resp.StatusCode, ack.Accepted, len(js), ack.Error)
		}
	}
	feed(in.Jobs[:cut])

	// Migrate mid-stream to the other worker, through the HTTP surface.
	target := "w2"
	if home == "w2" {
		target = "w1"
	}
	mresp := postJSON(t, ctrl.URL+"/v1/cluster/move", map[string]string{"tenant": "mig-1", "to": target})
	if mresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(mresp.Body)
		t.Fatalf("move: status %d: %s", mresp.StatusCode, b)
	}
	mresp.Body.Close()
	if got := c.Tenants()["mig-1"]; got != target {
		t.Fatalf("after move, placement = %q, want %q", got, target)
	}

	// The tenant serves at its new home through the same client-visible
	// URL — and the rest of the stream lands there.
	sresp, err := http.Get(ctrl.URL + "/v1/sessions/mig-1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot after move: status %d", sresp.StatusCode)
	}
	feed(in.Jobs[cut:])
	waitSettled(t, ctrl.URL, "mig-1", len(in.Jobs))

	// Fleet observability: both workers alive, the merged arrivals
	// counter sees the whole stream no matter where each half landed.
	fm, err := http.Get(ctrl.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fleet, _ := io.ReadAll(fm.Body)
	fm.Body.Close()
	for _, want := range []string{
		"schedd_cluster_nodes_alive 2",
		"schedd_fleet_arrivals_total 140",
		"schedd_fleet_sessions_live 1",
		"schedd_fleet_arrival_latency_seconds_count 140",
	} {
		if !strings.Contains(string(fleet), want) {
			t.Fatalf("fleet scrape missing %q:\n%s", want, fleet)
		}
	}

	// Close through the proxy and compare the relayed verified Result
	// byte-for-byte against an uninterrupted replay.
	req, err := http.NewRequest(http.MethodDelete, ctrl.URL+"/v1/sessions/mig-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(dresp.Body)
		t.Fatalf("proxied close: status %d: %s", dresp.StatusCode, b)
	}
	var closed struct {
		ID     string         `json:"id"`
		Result *engine.Result `json:"result"`
	}
	if err := json.NewDecoder(dresp.Body).Decode(&closed); err != nil {
		t.Fatal(err)
	}
	if closed.Result == nil {
		t.Fatal("close relayed no result")
	}
	wantRes, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides go through one JSON round-trip so float formatting is
	// identical; only wall-clock fields are masked.
	wantJSON, _ := json.Marshal(maskResult(wantRes[0]))
	var wantRT engine.Result
	if err := json.Unmarshal(wantJSON, &wantRT); err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(&wantRT)
	bj, _ := json.Marshal(maskResult(closed.Result))
	if !bytes.Equal(aj, bj) {
		t.Fatalf("migrated cluster result differs from uninterrupted replay:\n%s\nvs\n%s", aj, bj)
	}
	if _, ok := c.Tenants()["mig-1"]; ok {
		t.Fatal("closed tenant still placed")
	}
}

// TestClusterRebalanceAfterJoin pins Rebalance: tenants created while
// one worker was alone spread onto a newcomer, each arriving via a
// real migration (WAL shipped, session adopted), and every one still
// serves through the controller afterwards.
func TestClusterRebalanceAfterJoin(t *testing.T) {
	c := NewController(Options{})
	c.Start(t.Context())
	ctrl := httptest.NewServer(NewHTTPHandler(c))
	defer ctrl.Close()

	w1 := newTestWorker(t, "w1", ctrl.URL)
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.2}
	tenants := []string{"rb-a", "rb-b", "rb-c", "rb-d", "rb-e", "rb-f"}
	for _, id := range tenants {
		resp := postJSON(t, ctrl.URL+"/v1/sessions", map[string]any{"id": id, "spec": spec})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, resp.StatusCode)
		}
		resp.Body.Close()
		in := workload.Poisson(workload.Config{N: 10, M: 1, Alpha: 2.2, Seed: 7, ValueScale: 2})
		ar, err := http.Post(ctrl.URL+"/v1/sessions/"+id+"/arrivals", "application/x-ndjson",
			bytes.NewReader(job.AppendNDJSON(nil, in.Jobs)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, ar.Body)
		ar.Body.Close()
	}

	w2 := newTestWorker(t, "w2", ctrl.URL)
	resp := postJSON(t, ctrl.URL+"/v1/cluster/rebalance", map[string]string{})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("rebalance: status %d: %s", resp.StatusCode, b)
	}
	var reb struct {
		Planned []string `json:"planned"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(reb.Planned) == 0 {
		t.Fatal("rebalance planned nothing onto the new worker")
	}
	waitMigrated(t, c)
	// Rebalance converged placement onto the ring, and moved tenants
	// really live on w2 now (adopted sessions, shipped WALs).
	placed := c.Tenants()
	movedToW2 := 0
	for _, id := range reb.Planned {
		if placed[id] == "w2" {
			movedToW2++
			if _, err := w2.host.Get(id); err != nil {
				t.Fatalf("moved tenant %s not live on w2: %v", id, err)
			}
			if _, err := w1.host.Get(id); !errors.Is(err, serve.ErrNotFound) {
				t.Fatalf("moved tenant %s still live on w1: %v", id, err)
			}
		}
	}
	if movedToW2 == 0 {
		t.Fatalf("no moved tenant landed on w2: planned=%v placed=%v", reb.Planned, placed)
	}
	// A second rebalance is a no-op: placement already matches the ring.
	resp2 := postJSON(t, ctrl.URL+"/v1/cluster/rebalance", map[string]string{})
	var reb2 struct {
		Planned []string `json:"planned"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&reb2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(reb2.Planned) != 0 {
		t.Fatalf("second rebalance planned %v", reb2.Planned)
	}
	// Every tenant still closes with a verified result through the
	// controller, wherever it ended up.
	for _, id := range tenants {
		req, _ := http.NewRequest(http.MethodDelete, ctrl.URL+"/v1/sessions/"+id, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, dresp.Body)
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("close %s after rebalance: status %d", id, dresp.StatusCode)
		}
	}
}
