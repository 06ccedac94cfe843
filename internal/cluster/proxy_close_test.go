package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

// proxyCluster starts a controller and one durable node joined to it,
// and returns the controller with both base URLs.
func proxyCluster(t *testing.T) (c *Controller, ctrlURL, nodeURL string) {
	t.Helper()
	c = NewController(Options{})
	c.Start(t.Context())
	ctrl := httptest.NewServer(NewHTTPHandler(c))
	t.Cleanup(ctrl.Close)

	st, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := serve.NewHost(serve.Config{WAL: st})
	fence := NewEpochFence()
	node := httptest.NewServer(NewNodeHandler("w1", h, st, fence))
	t.Cleanup(func() {
		node.Close()
		st.Close()
	})
	agent := NewAgent(NodeConfig{Name: "w1", Advertise: node.URL, Controller: ctrl.URL, Fence: fence}, h, st)
	if _, err := agent.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c, ctrl.URL, node.URL
}

// openSession creates session id with spec at base and streams jobs
// into it.
func openSession(t *testing.T, base, id string, spec engine.Spec, jobs []job.Job) {
	t.Helper()
	resp := postJSON(t, base+"/v1/sessions", map[string]any{"id": id, "spec": spec})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d", id, resp.StatusCode)
	}
	ar, err := http.Post(base+"/v1/sessions/"+id+"/arrivals", "application/x-ndjson", bytes.NewReader(job.AppendNDJSON(nil, jobs)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ar.Body)
	ar.Body.Close()
	if ar.StatusCode != http.StatusOK {
		t.Fatalf("arrivals %s: status %d", id, ar.StatusCode)
	}
}

// closeSession sends DELETE for id at base and returns the status and
// the body, or the error reading it.
func closeSession(t *testing.T, base, id string) (int, []byte, error) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// TestProxiedCloseRelaysLargeResult closes a 30,000-arrival OA session
// through the controller, whose Result is several MB, and requires it
// equal to a node-direct close of the same trace, timings masked. The
// controller used to read the node's answer through a 4 MiB limit and
// relay a truncated body under a 200.
func TestProxiedCloseRelaysLargeResult(t *testing.T) {
	c, ctrlURL, nodeURL := proxyCluster(t)
	in := workload.HeavyTail(workload.Config{N: 30_000, M: 1, Alpha: 2, Seed: 5, Horizon: 3000, ValueScale: math.Inf(1)})
	in.Normalize()
	spec := engine.Spec{Name: "oa", M: 1, Alpha: 2}
	closeVia := func(base, id string) (*engine.Result, int) {
		t.Helper()
		openSession(t, base, id, spec, in.Jobs)
		status, raw, err := closeSession(t, base, id)
		if err != nil || status != http.StatusOK {
			t.Fatalf("close %s: status %d, %v", id, status, err)
		}
		var out struct {
			Result *engine.Result `json:"result"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("close %s: %d-byte body does not decode: %v", id, len(raw), err)
		}
		return out.Result, len(raw)
	}
	proxied, size := closeVia(ctrlURL, "via-controller")
	direct, _ := closeVia(nodeURL, "direct")
	if size <= 4<<20 {
		t.Fatalf("the Result is only %d bytes; the test needs one past 4 MiB", size)
	}
	pj, _ := json.Marshal(maskResult(proxied))
	dj, _ := json.Marshal(maskResult(direct))
	if !bytes.Equal(pj, dj) {
		t.Fatal("the Result closed through the controller differs from the node-direct close")
	}
	if _, err := c.Lookup("via-controller"); err == nil {
		t.Fatal("the controller still places the closed tenant")
	}
}

// TestProxiedCloseUnencodableDropsPlacement: the node answers 422 for
// a close whose Result JSON cannot carry (OA at α = 3 on a job of work
// 1e200 has energy +Inf), but only after it has closed the session, so
// the controller relays the 422 and drops the placement.
func TestProxiedCloseUnencodableDropsPlacement(t *testing.T) {
	c, ctrlURL, _ := proxyCluster(t)
	openSession(t, ctrlURL, "huge", engine.Spec{Name: "oa", M: 1, Alpha: 3},
		[]job.Job{{ID: 0, Release: 0, Deadline: 1, Work: 1e200, Value: 1}})
	status, raw, err := closeSession(t, ctrlURL, "huge")
	if err != nil || status != http.StatusUnprocessableEntity {
		t.Fatalf("close: status %d, %v; want 422", status, err)
	}
	if !strings.Contains(string(raw), "energy is +Inf") {
		t.Fatalf("close body %s does not name the field", raw)
	}
	if _, err := c.Lookup("huge"); err == nil {
		t.Fatal("the controller still places the closed tenant")
	}
}

// TestProxiedCloseAbortsCutBody: when the node's close body is cut
// mid-stream after its 200, the controller aborts the client's
// connection, so the client's read fails rather than ending cleanly
// on truncated JSON. The node sends 256 KiB first, so the controller's
// 200 and part of the body have reached the client before the cut.
func TestProxiedCloseAbortsCutBody(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"id":"cut","result":{"segments":[`)
		seg := `{"job":0,"proc":0,"t0":0,"t1":1,"speed":1},`
		io.WriteString(w, strings.Repeat(seg, (256<<10)/len(seg)))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer node.Close()
	c := NewController(Options{})
	ctrl := httptest.NewServer(NewHTTPHandler(c))
	defer ctrl.Close()
	c.Join("w1", node.URL, []string{"cut"})

	status, raw, err := closeSession(t, ctrl.URL, "cut")
	if status != http.StatusOK {
		t.Fatalf("close: status %d, want the node's 200", status)
	}
	if err == nil {
		t.Fatalf("the client read a clean %d-byte body from a cut stream", len(raw))
	}
}
