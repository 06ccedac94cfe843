// The controller's HTTP face:
//
//	POST   /v1/cluster/join         worker join/rejoin (name, addr, tenant list)
//	POST   /v1/cluster/heartbeat    lease renewal
//	GET    /v1/cluster              topology (nodes, liveness, placements)
//	GET    /v1/cluster/topology     alias of GET /v1/cluster
//	GET    /v1/cluster/tenants      tenant → node placement map
//	GET    /v1/cluster/state        full durable state (ClusterState)
//	GET    /v1/cluster/stream       NDJSON state stream (the standby tail)
//	GET    /v1/cluster/migrations   supervisor queue: progress handle for 202s
//	POST   /v1/cluster/move         migrate one tenant ({tenant, to}), synchronous
//	POST   /v1/cluster/rebalance    queue convergence onto the ring → 202
//	POST   /v1/cluster/drain        queue emptying a node ({node}) → 202
//	POST   /v1/sessions             proxied create (controller picks the node)
//	DELETE /v1/sessions/{id}        proxied close (relays the final Result)
//	POST   /v1/sessions/{id}/arrivals   307 → the tenant's node
//	GET    /v1/sessions/{id}/snapshot   307 → the tenant's node
//	GET    /v1/sessions             all placed tenants
//	GET    /metrics                 fleet-merged Prometheus scrape
//
// Rebalance and drain answer 202 with the planned tenants and a
// progress handle: execution belongs to the migration supervisor
// (bounded concurrency, retries, parking), not the request goroutine
// — a long drain no longer holds an HTTP request open past proxy
// timeouts. Poll /v1/cluster/migrations (or the topology's counts)
// for convergence.
//
// On a standby controller every mutating route answers 503 with the
// primary's URL; the read routes serve the mirrored state.
//
// The tenant data plane stays off the controller: arrivals and
// snapshots are 307 redirects — the client re-issues the identical
// request (Go's http.Client does this transparently for replayable
// bodies) straight at the owning worker, so stream bytes never
// traverse the controller. Create and close are proxied instead:
// they are cold, and the controller must update placement exactly
// when the node commits the operation.
//
// The fleet /metrics scrape leans on the histogram's exact-merge
// property: each worker ships its latency histogram in wire form
// (every bucket, bit-exact sum and extremes), the controller Merges —
// so fleet p50/p99 are the true quantiles of the union stream, not an
// approximation over pre-computed per-node quantiles.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"sync"

	"repro/internal/promtext"
	"repro/internal/stats"
)

// NewHTTPHandler returns the controller daemon's handler.
func NewHTTPHandler(c *Controller) http.Handler {
	// primary wraps a mutating handler: a standby refuses with the
	// primary's address rather than diverging the mirrored state.
	primary := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !c.IsPrimary() {
				writeNodeErr(w, http.StatusServiceUnavailable, notPrimaryErr(c))
				return
			}
			h(w, r)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/join", primary(func(w http.ResponseWriter, r *http.Request) {
		handleJoin(c, w, r)
	}))
	mux.HandleFunc("POST /v1/cluster/heartbeat", primary(func(w http.ResponseWriter, r *http.Request) {
		handleHeartbeat(c, w, r)
	}))
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeNodeJSON(w, http.StatusOK, c.Topology())
	})
	mux.HandleFunc("GET /v1/cluster/topology", func(w http.ResponseWriter, r *http.Request) {
		writeNodeJSON(w, http.StatusOK, c.Topology())
	})
	mux.HandleFunc("GET /v1/cluster/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeNodeJSON(w, http.StatusOK, map[string]any{"tenants": c.Tenants()})
	})
	mux.HandleFunc("GET /v1/cluster/state", func(w http.ResponseWriter, r *http.Request) {
		handleState(c, w)
	})
	mux.HandleFunc("GET /v1/cluster/stream", func(w http.ResponseWriter, r *http.Request) {
		handleStateStream(c, w, r)
	})
	mux.HandleFunc("GET /v1/cluster/migrations", func(w http.ResponseWriter, r *http.Request) {
		writeNodeJSON(w, http.StatusOK, c.Migrations())
	})
	mux.HandleFunc("POST /v1/cluster/move", primary(func(w http.ResponseWriter, r *http.Request) {
		handleMove(c, w, r)
	}))
	mux.HandleFunc("POST /v1/cluster/rebalance", primary(func(w http.ResponseWriter, r *http.Request) {
		planned := c.Rebalance()
		writeNodeJSON(w, http.StatusAccepted, map[string]any{
			"planned": planned, "watch": "/v1/cluster/migrations",
		})
	}))
	mux.HandleFunc("POST /v1/cluster/drain", primary(func(w http.ResponseWriter, r *http.Request) {
		handleDrain(c, w, r)
	}))
	mux.HandleFunc("POST /v1/sessions", primary(func(w http.ResponseWriter, r *http.Request) {
		handleProxyCreate(c, w, r)
	}))
	mux.HandleFunc("DELETE /v1/sessions/{id}", primary(func(w http.ResponseWriter, r *http.Request) {
		handleProxyClose(c, w, r)
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/arrivals", func(w http.ResponseWriter, r *http.Request) {
		redirectToOwner(c, w, r, "/arrivals")
	})
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		redirectToOwner(c, w, r, "/snapshot")
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		handleListSessions(c, w)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		handleFleetMetrics(c, w, r)
	})
	return mux
}

// clusterStatus maps controller errors onto HTTP statuses.
func clusterStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant), errors.Is(err, ErrUnknownNode):
		return http.StatusNotFound
	case errors.Is(err, ErrNodeDown), errors.Is(err, ErrNoNodes), errors.Is(err, ErrNotPrimary):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrMigrating):
		return http.StatusConflict
	default:
		return http.StatusBadGateway
	}
}

func writeClusterErr(w http.ResponseWriter, err error) {
	writeNodeErr(w, clusterStatus(err), err)
}

func handleJoin(c *Controller, w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeNodeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Name == "" || req.Addr == "" {
		writeNodeErr(w, http.StatusBadRequest, errors.New("join needs name and addr"))
		return
	}
	purge := c.Join(req.Name, req.Addr, req.Tenants)
	writeNodeJSON(w, http.StatusOK, joinResponse{
		LeaseMs: c.Lease().Milliseconds(), Purge: purge,
		Epoch: c.Epoch(), Controller: c.ID(), Standbys: c.Standbys(),
	})
}

func handleHeartbeat(c *Controller, w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeNodeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Heartbeat(req.Name); err != nil {
		writeNodeErr(w, http.StatusNotFound, err)
		return
	}
	// The ack carries the reign and the failover list: heartbeats are
	// how a long-lived worker learns about a standby that arrived (or
	// an epoch that moved) after its join.
	writeNodeJSON(w, http.StatusOK, joinResponse{
		LeaseMs: c.Lease().Milliseconds(),
		Epoch:   c.Epoch(), Controller: c.ID(), Standbys: c.Standbys(),
	})
}

func handleMove(c *Controller, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant string `json:"tenant"`
		To     string `json:"to"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeNodeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Move(r.Context(), req.Tenant, req.To); err != nil {
		writeClusterErr(w, err)
		return
	}
	writeNodeJSON(w, http.StatusOK, map[string]string{"tenant": req.Tenant, "node": req.To})
}

func handleDrain(c *Controller, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Node string `json:"node"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeNodeErr(w, http.StatusBadRequest, err)
		return
	}
	planned, err := c.Drain(req.Node)
	if err != nil {
		writeClusterErr(w, err)
		return
	}
	writeNodeJSON(w, http.StatusAccepted, map[string]any{
		"node": req.Node, "planned": planned, "watch": "/v1/cluster/migrations",
	})
}

func handleListSessions(c *Controller, w http.ResponseWriter) {
	placed := c.Tenants()
	ids := make([]string, 0, len(placed))
	for t := range placed {
		ids = append(ids, t)
	}
	// Same shape as a worker's GET /v1/sessions, so clients need not
	// care which tier they talk to.
	sort.Strings(ids)
	writeNodeJSON(w, http.StatusOK, map[string]any{"sessions": ids})
}

// redirectPool recycles the Location build buffers of the redirect hot
// path — the one per-request cost the controller pays on the data
// plane.
var redirectPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// redirectToOwner answers 307 with the owning worker's URL for the
// same tenant endpoint. Clients with replayable bodies (Go's
// http.Client sets GetBody for bytes readers) re-send transparently;
// everyone else follows by hand. The ingest stream itself never
// touches the controller.
//
//schedlint:hotpath
func redirectToOwner(c *Controller, w http.ResponseWriter, r *http.Request, suffix string) {
	id := r.PathValue("id")
	n, err := c.Lookup(id) //schedlint:allowalloc Lookup allocates only on its unknown-tenant/dead-node error paths
	if err != nil {
		writeClusterErr(w, err)
		return
	}
	bp := redirectPool.Get().(*[]byte)
	b := append((*bp)[:0], n.Addr...)
	b = append(b, "/v1/sessions/"...)
	b = append(b, id...)
	b = append(b, suffix...)
	w.Header().Set("Location", string(b))
	*bp = b[:0]
	redirectPool.Put(bp)
	w.WriteHeader(http.StatusTemporaryRedirect)
}

// handleProxyCreate decodes enough of the create to learn the tenant
// id, places it, and forwards the create to the chosen node. The
// placement is recorded only if the node commits the create.
func handleProxyCreate(c *Controller, w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID   string          `json:"id,omitempty"`
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeNodeErr(w, http.StatusBadRequest, err)
		return
	}
	id, node, fresh, err := c.place(req.ID)
	if err != nil {
		writeClusterErr(w, err)
		return
	}
	req.ID = id
	body, err := json.Marshal(req)
	if err != nil {
		writeNodeErr(w, http.StatusInternalServerError, err)
		return
	}
	ctx, cancel := c.callCtx(r.Context())
	defer cancel()
	resp, err := c.send(ctx, http.MethodPost, node.Addr+"/v1/sessions", body)
	if err != nil {
		if fresh {
			c.dropPlacement(id)
		}
		writeNodeErr(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && fresh {
		c.dropPlacement(id)
	}
	relay(w, resp)
}

// handleProxyClose forwards the close and un-places the tenant when
// the node confirms, relaying the final verified Result either way.
// The node has closed the session when it answers 200, 404 (closed
// before) or 422 (closed, but the Result holds a float JSON cannot
// carry), so each of those drops the placement.
func handleProxyClose(c *Controller, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n, err := c.Lookup(id)
	if err != nil {
		writeClusterErr(w, err)
		return
	}
	ctx, cancel := c.callCtx(r.Context())
	defer cancel()
	resp, err := c.send(ctx, http.MethodDelete, n.Addr+"/v1/sessions/"+id, nil)
	if err != nil {
		writeNodeErr(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotFound, http.StatusUnprocessableEntity:
		c.dropPlacement(id)
	}
	relay(w, resp)
}

// send issues one proxied call under ctx, fenced like every
// controller-originated call, and returns the node's response for the
// caller to read and close. Callers bound ctx by CallTimeout (a hung
// worker must not wedge the proxy handler), and the bound covers the
// relay of the body too.
func (c *Controller) send(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.fenceHeaders(req)
	return c.opt.Client.Do(req)
}

// relay streams a node's answer to the client under the node's
// status, so the controller never holds a body (a 10^5-job close
// Result is 25 MB). The status is out before the body is copied; if
// the copy fails, the connection is aborted so the client reads an
// unexpected EOF rather than a clean end to a truncated body.
func relay(w http.ResponseWriter, resp *http.Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// place is Place plus a freshness bit so the proxy can roll back a
// placement the node never committed.
func (c *Controller) place(id string) (string, Node, bool, error) {
	c.mu.Lock()
	_, existed := c.placement[id]
	c.mu.Unlock()
	tenant, n, err := c.Place(id)
	return tenant, n, err == nil && !existed, err
}

// fleetScrapePool recycles the fleet /metrics render buffers.
var fleetScrapePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// handleFleetMetrics aggregates every live node's stats into one
// scrape. The per-node latency histograms arrive in exact wire form
// and Merge losslessly, so the fleet p50/p99 rendered here equal the
// quantiles of one histogram fed every arrival in the fleet.
func handleFleetMetrics(c *Controller, w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	nodes := make([]Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, *n)
	}
	placements := len(c.placement)
	c.mu.Unlock()

	var (
		fleet    stats.Histogram
		arrivals uint64
		dedup    uint64
		shed     uint64
		backlog  int64
		sessions int64
		alive    int
		scraped  int
	)
	for _, n := range nodes {
		if !n.Alive {
			continue
		}
		alive++
		ns, err := c.nodeStats(r.Context(), n.Addr)
		if err != nil {
			continue // a node mid-crash is the lease checker's problem
		}
		scraped++
		fleet.Merge(&ns.Latency)
		arrivals += ns.Arrivals
		dedup += ns.Dedup
		shed += ns.Shed
		backlog += int64(ns.Backlog)
		sessions += ns.SessionsLive
	}

	bp := fleetScrapePool.Get().(*[]byte)
	b := (*bp)[:0]
	b = promtext.AppendInt(b, "schedd_cluster_nodes", "Workers known to the controller.", "gauge", int64(len(nodes)))
	b = promtext.AppendInt(b, "schedd_cluster_nodes_alive", "Workers holding a live lease.", "gauge", int64(alive))
	b = promtext.AppendInt(b, "schedd_cluster_nodes_scraped", "Workers whose stats the fleet view merged this scrape.", "gauge", int64(scraped))
	b = promtext.AppendInt(b, "schedd_cluster_placements", "Tenants placed on the cluster.", "gauge", int64(placements))
	b = promtext.AppendInt(b, "schedd_fleet_sessions_live", "Live sessions across the fleet.", "gauge", sessions)
	b = promtext.AppendInt(b, "schedd_fleet_backlog", "Queued-but-unapplied arrivals across the fleet.", "gauge", backlog)
	b = promtext.AppendUint(b, "schedd_fleet_arrivals_total", "Arrivals applied across the fleet.", "counter", arrivals)
	b = promtext.AppendUint(b, "schedd_fleet_dedup_suppressed_total", "Duplicate stamped batches suppressed across the fleet.", "counter", dedup)
	b = promtext.AppendUint(b, "schedd_fleet_shed_total", "Submits shed with 429 across the fleet.", "counter", shed)
	b = promtext.AppendHistogram(b, "schedd_fleet_arrival_latency_seconds",
		"Fleet-wide per-arrival apply latency (exact merge of per-node histograms).", fleet)
	p50, p99 := 0.0, 0.0
	if fleet.Count() > 0 {
		p50, p99 = fleet.Quantile(0.5), fleet.Quantile(0.99)
	}
	b = promtext.AppendGauge(b, "schedd_fleet_arrival_latency_seconds_p50", p50)
	b = promtext.AppendGauge(b, "schedd_fleet_arrival_latency_seconds_p99", p99)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(b)
	*bp = b[:0]
	fleetScrapePool.Put(bp)
}
