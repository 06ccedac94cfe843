// The cluster kill-and-rebalance differential: a real controller and
// two real workers, traffic driven through the controller's redirects
// and proxy, one worker SIGKILLed mid-stream and restarted from its
// data dir, then drained — every tenant live-migrating to the
// survivor — and each tenant's final verified Result must be
// byte-identical to an uninterrupted single-engine replay of its
// whole workload. The mid-stream pins are byte-level too: a tenant's
// snapshot through the controller must be identical before the crash,
// after recovery, and after migration.
//
// The test name keeps the TestEndToEnd prefix so CI's race job
// (-run 'TestEndToEnd') exercises it under the race detector; CI also
// runs it by name in the dedicated cluster step.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/workload"
)

// startController launches the binary in -controller mode and waits
// for its listening line.
func startController(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := startDaemonLine(t, bin, "schedd: controller listening on ", args...)
	return p
}

// clusterNode mirrors one node row of GET /v1/cluster.
type clusterNode struct {
	Name    string `json:"name"`
	Alive   bool   `json:"alive"`
	Tenants int    `json:"tenants"`
}

// clusterTopo mirrors GET /v1/cluster.
type clusterTopo struct {
	Nodes []clusterNode `json:"nodes"`
}

// getTopology decodes the controller's topology.
func getTopology(t *testing.T, base string) clusterTopo {
	t.Helper()
	code, body := httpDo(t, "GET", base+"/v1/cluster", nil)
	if code != http.StatusOK {
		t.Fatalf("topology: %d %s", code, body)
	}
	var top clusterTopo
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatalf("topology decode: %v", err)
	}
	return top
}

// waitTopology polls the topology until cond holds.
func waitTopology(t *testing.T, base, why string, cond func(clusterTopo) bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		top := getTopology(t, base)
		if cond(top) {
			return
		}
		if time.Now().After(deadline) {
			js, _ := json.Marshal(top)
			t.Fatalf("cluster never reached %q; topology %s", why, js)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// migProgress mirrors GET /v1/cluster/migrations.
type migProgress struct {
	Counts struct {
		Running int    `json:"running"`
		Queued  int    `json:"queued"`
		Waiting int    `json:"waiting"`
		Parked  int    `json:"parked"`
		Done    uint64 `json:"done"`
	} `json:"counts"`
}

// waitMigrations polls a 202's watch handle until the supervisor has
// nothing in flight — the async analogue of the old synchronous 200.
func waitMigrations(t *testing.T, watchURL, why string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := httpDo(t, "GET", watchURL, nil)
		if code != http.StatusOK {
			t.Fatalf("migrations: %d %s", code, body)
		}
		var mp migProgress
		if err := json.Unmarshal(body, &mp); err != nil {
			t.Fatal(err)
		}
		if mp.Counts.Running+mp.Counts.Queued+mp.Counts.Waiting == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("migrations never reached %q: %s", why, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// getPlacements decodes tenant -> node off the controller.
func getPlacements(t *testing.T, base string) map[string]string {
	t.Helper()
	code, body := httpDo(t, "GET", base+"/v1/cluster/tenants", nil)
	if code != http.StatusOK {
		t.Fatalf("tenants: %d %s", code, body)
	}
	var resp struct {
		Tenants map[string]string `json:"tenants"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Tenants
}

// feedThrough posts an NDJSON batch at the controller; the client
// follows the 307 (the bytes.Reader body is replayable) and the ack —
// durable, from the owning worker — must accept every line.
func feedThrough(t *testing.T, base, id string, js []job.Job) {
	t.Helper()
	code, body := httpDo(t, "POST", base+"/v1/sessions/"+id+"/arrivals", job.AppendNDJSON(nil, js))
	if code != http.StatusOK || !bytes.Contains(body, []byte(fmt.Sprintf(`"accepted":%d`, len(js)))) {
		t.Fatalf("feed %s: %d %s", id, code, body)
	}
}

// settledSnapshot polls the tenant's snapshot through the controller
// until the applier has drained to exactly `arrivals` applied, then
// returns the snapshot bytes — the canonical mid-stream state.
func settledSnapshot(t *testing.T, base, id string, arrivals int) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := httpDo(t, "GET", base+"/v1/sessions/"+id+"/snapshot", nil)
		if code == http.StatusOK {
			var snap struct {
				Arrivals int `json:"arrivals"`
				Backlog  int `json:"backlog"`
			}
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatal(err)
			}
			if snap.Arrivals == arrivals && snap.Backlog == 0 {
				return body
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never settled at %d arrivals (last: %d %s)", id, arrivals, code, "")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEndToEndCluster(t *testing.T) {
	bin := buildSchedd(t)
	ctrl := startController(t, bin, "-controller", "-addr", "127.0.0.1:0", "-lease", "1s",
		"-data-dir", t.TempDir())

	dirs := map[string]string{"w1": t.TempDir(), "w2": t.TempDir()}
	wargs := func(name string) []string {
		return []string{
			"-addr", "127.0.0.1:0", "-data-dir", dirs[name],
			"-join", ctrl.base, "-node-name", name,
			"-fsync-interval", "2ms", "-checkpoint-every", "64",
			"-drain-timeout", "10s",
		}
	}
	workers := map[string]*proc{
		"w1": startSchedd(t, bin, wargs("w1")...),
		"w2": startSchedd(t, bin, wargs("w2")...),
	}
	waitTopology(t, ctrl.base, "both workers alive", func(top clusterTopo) bool {
		alive := 0
		for _, n := range top.Nodes {
			if n.Alive {
				alive++
			}
		}
		return alive == 2
	})

	// Four tenants, distinct Poisson workloads, created through the
	// controller's proxy (it picks each home off the ring).
	const tenants = 4
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.2}
	ids := make([]string, tenants)
	ins := make([]*job.Instance, tenants)
	cut := make(map[string]int, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("mt-%d", i)
		ins[i] = workload.Poisson(workload.Config{
			N: 120, M: 1, Alpha: 2.2, Seed: 101 + int64(i)*7919, ValueScale: 2,
		})
		create, _ := json.Marshal(map[string]any{"id": ids[i], "spec": spec})
		if code, body := httpDo(t, "POST", ctrl.base+"/v1/sessions", create); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", ids[i], code, body)
		}
		cut[ids[i]] = len(ins[i].Jobs) / 2
	}

	// First half of every stream, through the controller's redirects.
	totalFed := 0
	for i, id := range ids {
		feedThrough(t, ctrl.base, id, ins[i].Jobs[:cut[id]])
		totalFed += cut[id]
	}

	// Pick the victim: whichever worker hosts mt-0 (every tenant on it
	// rides through the crash). The other worker survives throughout.
	placements := getPlacements(t, ctrl.base)
	victim := placements["mt-0"]
	survivor := "w2"
	if victim == "w2" {
		survivor = "w1"
	}
	var victimIDs []string
	victimFed := 0
	for _, id := range ids {
		if placements[id] == victim {
			victimIDs = append(victimIDs, id)
			victimFed += cut[id]
		}
	}
	t.Logf("victim %s hosts %v; survivor %s", victim, victimIDs, survivor)

	// Settle and capture every tenant's mid-stream snapshot — the
	// byte-level reference for both recovery and migration below.
	pre := make(map[string][]byte, tenants)
	for _, id := range ids {
		pre[id] = settledSnapshot(t, ctrl.base, id, cut[id])
	}

	// The fleet scrape has seen every acked arrival.
	if v := metricValue(t, ctrl.base, "schedd_fleet_arrivals_total"); int(v) != totalFed {
		t.Fatalf("fleet arrivals = %v, want %d", v, totalFed)
	}

	// Crash: SIGKILL the victim, no drain, no goodbyes. The controller's
	// failure detector must mark it dead when its lease runs out.
	workers[victim].kill(t)
	waitTopology(t, ctrl.base, "victim marked dead", func(top clusterTopo) bool {
		for _, n := range top.Nodes {
			if n.Name == victim {
				return !n.Alive
			}
		}
		return false
	})

	// A dead node's tenants refuse loudly through the controller (their
	// only durable copy is on its disk); the survivor's keep serving.
	if code, _ := httpDo(t, "GET", ctrl.base+"/v1/sessions/"+victimIDs[0]+"/snapshot", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("dead tenant's snapshot: %d, want 503", code)
	}
	for _, id := range ids {
		if placements[id] == survivor {
			if code, _ := httpDo(t, "GET", ctrl.base+"/v1/sessions/"+id+"/snapshot", nil); code != http.StatusOK {
				t.Fatalf("survivor tenant %s stopped serving: %d", id, code)
			}
		}
	}

	// Restart the victim on its own data dir: recovery replays its
	// tenants byte-identically, the agent rejoins (same name), and the
	// controller routes to them again.
	workers[victim] = startSchedd(t, bin, wargs(victim)...)
	wantBoot := fmt.Sprintf("schedd: recovered %d sessions, %d arrivals replayed (0 torn bytes truncated, 0 retired logs swept)",
		len(victimIDs), victimFed)
	if workers[victim].recovered != wantBoot {
		t.Fatalf("victim boot line:\n got %q\nwant %q", workers[victim].recovered, wantBoot)
	}
	waitTopology(t, ctrl.base, "victim rejoined", func(top clusterTopo) bool {
		for _, n := range top.Nodes {
			if n.Name == victim {
				return n.Alive
			}
		}
		return false
	})
	for _, id := range victimIDs {
		if got := settledSnapshot(t, ctrl.base, id, cut[id]); !bytes.Equal(got, pre[id]) {
			t.Fatalf("recovered snapshot of %s differs:\n got %s\nwant %s", id, got, pre[id])
		}
	}

	// Rebalance by draining the victim: the drain is accepted (202) with
	// the planned tenant list, then the supervisor live-migrates each
	// one (WAL shipped over HTTP, imported, adopted) to the survivor,
	// mid-stream, while we watch the progress handle it pointed at.
	drain, _ := json.Marshal(map[string]string{"node": victim})
	code, body := httpDo(t, "POST", ctrl.base+"/v1/cluster/drain", drain)
	if code != http.StatusAccepted {
		t.Fatalf("drain: %d %s", code, body)
	}
	var drained struct {
		Planned []string `json:"planned"`
		Watch   string   `json:"watch"`
	}
	if err := json.Unmarshal(body, &drained); err != nil {
		t.Fatal(err)
	}
	if len(drained.Planned) != len(victimIDs) {
		t.Fatalf("drain planned %v, want all of %v", drained.Planned, victimIDs)
	}
	if drained.Watch == "" {
		t.Fatalf("drain response carries no watch handle: %s", body)
	}
	waitMigrations(t, ctrl.base+drained.Watch, "drain converged")
	for id, node := range getPlacements(t, ctrl.base) {
		if node == victim {
			t.Fatalf("tenant %s still placed on the drained node", id)
		}
	}
	// Migration preserved the exact mid-stream state: the snapshot at
	// the new home is byte-identical to the pre-crash one.
	for _, id := range victimIDs {
		if got := settledSnapshot(t, ctrl.base, id, cut[id]); !bytes.Equal(got, pre[id]) {
			t.Fatalf("migrated snapshot of %s differs:\n got %s\nwant %s", id, got, pre[id])
		}
	}

	// Second half of every stream — same client-visible URLs, new homes.
	for i, id := range ids {
		feedThrough(t, ctrl.base, id, ins[i].Jobs[cut[id]:])
	}

	// Close every tenant through the controller and pin the
	// differential: each relayed verified Result byte-identical
	// (modulo wall-clock fields) to an uninterrupted replay of the
	// tenant's whole workload on a single engine.
	for i, id := range ids {
		code, body := httpDo(t, "DELETE", ctrl.base+"/v1/sessions/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("close %s: %d %s", id, code, body)
		}
		var closed struct {
			Result *engine.Result `json:"result"`
		}
		if err := json.Unmarshal(body, &closed); err != nil || closed.Result == nil {
			t.Fatalf("close %s response %s: %v", id, body, err)
		}
		wantRes, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{ins[i]}, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		mask := func(r *engine.Result) []byte {
			cp := *r
			cp.MaxArrive, cp.TotalArrive, cp.PlanTime = 0, 0, 0
			js, _ := json.Marshal(&cp)
			return js
		}
		want := mask(wantRes[0])
		var wantRT engine.Result
		if err := json.Unmarshal(want, &wantRT); err != nil {
			t.Fatal(err)
		}
		want, _ = json.Marshal(&wantRT)
		if got := mask(closed.Result); !bytes.Equal(got, want) {
			t.Fatalf("tenant %s result differs from uninterrupted replay:\n got %s\nwant %s", id, got, want)
		}
	}
	if placed := getPlacements(t, ctrl.base); len(placed) != 0 {
		t.Fatalf("closed tenants still placed: %v", placed)
	}

	// Orderly exits all around.
	workers[victim].stop(t)
	workers[survivor].stop(t)
	ctrl.stop(t)
}

// startDaemonLine is startSchedd generalized over the readiness line
// prefix, so the controller (whose line differs) can share the
// process plumbing.
func startDaemonLine(t *testing.T, bin, prefix string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "schedd: recovered ") {
			p.recovered = line
		}
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			// The controller's line carries a "(lease …)" suffix.
			if i := strings.Index(rest, " ("); i >= 0 {
				rest = rest[:i]
			}
			p.base = "http://" + rest
			break
		}
	}
	if p.base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("daemon never reported %q (scan err %v)", prefix, sc.Err())
	}
	go io.Copy(io.Discard, stdout)
	return p
}
