// Control-plane durability end to end: a real controller SIGKILLed
// and restarted from its -data-dir recovers the placement map
// byte-identically (including mid-migration, where the crash-open
// intent is resolved on boot); a corrupted controller WAL refuses to
// boot non-zero; and a standby controller takes over a SIGKILLed
// primary with the workers following it on their own — with every
// tenant's final verified Result byte-identical to an uninterrupted
// single-engine replay throughout.
//
// Test names keep the TestEndToEnd prefix so CI's race job
// (-run 'TestEndToEnd') exercises them under the race detector.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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

// freePort reserves a port by binding and releasing it — controller
// restarts must come back on the same address so workers and standbys
// find them again.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// startWatchedDaemon is startDaemonLine plus an environment and
// post-readiness line capture (p.sawLine), for processes whose later
// output matters — a standby's takeover line, a failpoint's last gasp.
func startWatchedDaemon(t *testing.T, bin, prefix string, env []string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
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
	go func() {
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
	}()
	return p
}

// placementView canonicalizes the durable heart of GET
// /v1/cluster/state — node table, placement map, open intents, parked
// migrations — for byte-level comparison across crashes and
// failovers (epoch and seq legitimately change on a new reign).
func placementView(t *testing.T, base string) []byte {
	t.Helper()
	code, body := httpDo(t, "GET", base+"/v1/cluster/state", nil)
	if code != http.StatusOK {
		t.Fatalf("state: %d %s", code, body)
	}
	var view struct {
		Nodes     []json.RawMessage `json:"nodes"`
		Placement map[string]string `json:"placement"`
		Intents   []json.RawMessage `json:"intents"`
		Parked    []json.RawMessage `json:"parked"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// closeDifferential closes the tenant through the controller and pins
// its relayed verified Result byte-identical (modulo wall-clock
// fields) to an uninterrupted single-engine replay of its workload.
func closeDifferential(t *testing.T, base, id string, in *job.Instance, spec engine.Spec) {
	t.Helper()
	code, body := httpDo(t, "DELETE", base+"/v1/sessions/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("close %s: %d %s", id, code, body)
	}
	var closed struct {
		Result *engine.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &closed); err != nil || closed.Result == nil {
		t.Fatalf("close %s response %s: %v", id, body, err)
	}
	wantRes, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
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

func TestEndToEndControllerCrash(t *testing.T) {
	bin := buildSchedd(t)
	port := freePort(t)
	cdir := t.TempDir()
	cargs := []string{"-controller", "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-lease", "1s", "-data-dir", cdir}
	ctrl := startController(t, bin, cargs...)

	dirs := map[string]string{"w1": t.TempDir(), "w2": t.TempDir()}
	wargs := func(name string) []string {
		return []string{
			"-addr", "127.0.0.1:0", "-data-dir", dirs[name],
			"-join", ctrl.base, "-node-name", name,
			"-fsync-interval", "2ms", "-drain-timeout", "10s",
		}
	}
	startSchedd(t, bin, wargs("w1")...)
	startSchedd(t, bin, wargs("w2")...)
	waitTopology(t, ctrl.base, "both workers alive", func(top clusterTopo) bool {
		alive := 0
		for _, n := range top.Nodes {
			if n.Alive {
				alive++
			}
		}
		return alive == 2
	})

	const tenants = 3
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.2}
	ids := make([]string, tenants)
	ins := make([]*job.Instance, tenants)
	cut := make(map[string]int, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("cc-%d", i)
		ins[i] = workload.Poisson(workload.Config{
			N: 90, M: 1, Alpha: 2.2, Seed: 311 + int64(i)*104729, ValueScale: 2,
		})
		create, _ := json.Marshal(map[string]any{"id": ids[i], "spec": spec})
		if code, body := httpDo(t, "POST", ctrl.base+"/v1/sessions", create); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", ids[i], code, body)
		}
		cut[ids[i]] = len(ins[i].Jobs) / 2
		feedThrough(t, ctrl.base, ids[i], ins[i].Jobs[:cut[ids[i]]])
	}
	for _, id := range ids {
		settledSnapshot(t, ctrl.base, id, cut[id])
	}
	ref := placementView(t, ctrl.base)

	// Crash #1: SIGKILL the controller between migrations. The restart
	// recovers the placement map byte-identically from its WAL — and
	// the workers, whose node table also survived, keep their leases.
	ctrl.kill(t)
	ctrl = startController(t, bin, cargs...)
	if got := placementView(t, ctrl.base); !bytes.Equal(got, ref) {
		t.Fatalf("recovered placement differs:\n got %s\nwant %s", got, ref)
	}
	// Tenants keep serving through the recovered controller.
	for _, id := range ids {
		settledSnapshot(t, ctrl.base, id, cut[id])
	}

	// Crash #2: mid-migration. A failpoint controller crashes the
	// instant the intent-begin record is durable — before any byte of
	// the tenant's WAL moves — so the restart must find the open intent
	// and roll it back (the target never imported), leaving the tenant
	// serving where its state is.
	ctrl.stop(t)
	ctrl = startWatchedDaemon(t, bin, "schedd: controller listening on ",
		[]string{"SCHEDD_CRASH_AFTER_INTENT=1"}, cargs...)
	if got := placementView(t, ctrl.base); !bytes.Equal(got, ref) {
		t.Fatalf("placement after orderly restart differs:\n got %s\nwant %s", got, ref)
	}
	placed := getPlacements(t, ctrl.base)
	victim := ids[0]
	target := "w1"
	if placed[victim] == "w1" {
		target = "w2"
	}
	move, _ := json.Marshal(map[string]string{"tenant": victim, "to": target})
	req, err := http.NewRequest(http.MethodPost, ctrl.base+"/v1/cluster/move", bytes.NewReader(move))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// The process died mid-handler; any response is the connection
		// being torn down.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if code := ctrl.waitExit(t); code != 7 {
		t.Fatalf("failpoint controller exited %d, want 7", code)
	}

	// The restart finds the crash-open intent in its WAL, queues its
	// resolution, probes the target (which never imported: 404) and
	// rolls back. Placement ends exactly where it started.
	ctrl = startController(t, bin, cargs...)
	waitMigrations(t, ctrl.base+"/v1/cluster/migrations", "crash-open intent resolved")
	if got := placementView(t, ctrl.base); !bytes.Equal(got, ref) {
		t.Fatalf("placement after mid-migration crash recovery differs:\n got %s\nwant %s", got, ref)
	}

	// Life goes on: the interrupted tenant migrates for real this time,
	// every stream finishes, and every Result matches the
	// uninterrupted reference byte for byte.
	code, body := httpDo(t, "POST", ctrl.base+"/v1/cluster/move", move)
	if code != http.StatusOK {
		t.Fatalf("move after recovery: %d %s", code, body)
	}
	if got := getPlacements(t, ctrl.base)[victim]; got != target {
		t.Fatalf("tenant %s on %q after move, want %q", victim, got, target)
	}
	for i, id := range ids {
		feedThrough(t, ctrl.base, id, ins[i].Jobs[cut[id]:])
	}
	for i, id := range ids {
		closeDifferential(t, ctrl.base, id, ins[i], spec)
	}
}

func TestEndToEndControllerWALCorruption(t *testing.T) {
	bin := buildSchedd(t)
	cdir := t.TempDir()
	cargs := []string{"-controller", "-addr", "127.0.0.1:0", "-lease", "5s", "-data-dir", cdir}
	ctrl := startController(t, bin, cargs...)

	// Populate the journal: joins adopt tenants, each a place record.
	for n := 0; n < 4; n++ {
		var ts []string
		for i := 0; i < 8; i++ {
			ts = append(ts, fmt.Sprintf("cw-%d-%d", n, i))
		}
		join, _ := json.Marshal(map[string]any{
			"name": fmt.Sprintf("w%d", n), "addr": fmt.Sprintf("http://w%d", n), "tenants": ts,
		})
		if code, body := httpDo(t, "POST", ctrl.base+"/v1/cluster/join", join); code != http.StatusOK {
			t.Fatalf("join: %d %s", code, body)
		}
	}
	ctrl.stop(t)

	// One flipped bit in the middle of the controller WAL: the next
	// boot must refuse to serve rewritten history, non-zero.
	path := cdir + "/controller.wal"
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, cargs...)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("corrupt controller WAL booted anyway: err %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("recovery refused")) {
		t.Fatalf("refusal does not say why:\n%s", out)
	}
}

func TestEndToEndStandbyFailover(t *testing.T) {
	bin := buildSchedd(t)
	portA, portB := freePort(t), freePort(t)
	baseA := fmt.Sprintf("http://127.0.0.1:%d", portA)
	baseB := fmt.Sprintf("http://127.0.0.1:%d", portB)
	primary := startController(t, bin, "-controller",
		"-addr", fmt.Sprintf("127.0.0.1:%d", portA), "-advertise", baseA,
		"-lease", "1s", "-data-dir", t.TempDir())
	standby := startWatchedDaemon(t, bin, "schedd: standby controller listening on ", nil,
		"-controller", "-standby", baseA,
		"-addr", fmt.Sprintf("127.0.0.1:%d", portB), "-advertise", baseB,
		"-lease", "1s", "-data-dir", t.TempDir())

	dirs := map[string]string{"w1": t.TempDir(), "w2": t.TempDir()}
	for _, name := range []string{"w1", "w2"} {
		startSchedd(t, bin,
			"-addr", "127.0.0.1:0", "-data-dir", dirs[name],
			"-join", primary.base, "-node-name", name,
			"-fsync-interval", "2ms", "-drain-timeout", "10s")
	}
	waitTopology(t, primary.base, "both workers alive", func(top clusterTopo) bool {
		alive := 0
		for _, n := range top.Nodes {
			if n.Alive {
				alive++
			}
		}
		return alive == 2
	})

	const tenants = 3
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.2}
	ids := make([]string, tenants)
	ins := make([]*job.Instance, tenants)
	cut := make(map[string]int, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("fo-%d", i)
		ins[i] = workload.Poisson(workload.Config{
			N: 90, M: 1, Alpha: 2.2, Seed: 977 + int64(i)*7919, ValueScale: 2,
		})
		create, _ := json.Marshal(map[string]any{"id": ids[i], "spec": spec})
		if code, body := httpDo(t, "POST", primary.base+"/v1/sessions", create); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", ids[i], code, body)
		}
		cut[ids[i]] = len(ins[i].Jobs) / 2
		feedThrough(t, primary.base, ids[i], ins[i].Jobs[:cut[ids[i]]])
	}

	// The standby mirrors the primary's state (its read endpoints serve
	// while it refuses mutations), and mutations answer 503 on it.
	waitCondE2E(t, "standby mirrored all placements", func() bool {
		code, body := httpDo(t, "GET", standby.base+"/v1/cluster/state", nil)
		if code != http.StatusOK {
			return false
		}
		var st struct {
			Placement map[string]string `json:"placement"`
		}
		return json.Unmarshal(body, &st) == nil && len(st.Placement) == tenants
	})
	if code, body := httpDo(t, "POST", standby.base+"/v1/cluster/rebalance", []byte("{}")); code != http.StatusServiceUnavailable {
		t.Fatalf("standby accepted a mutation: %d %s", code, body)
	}
	ref := placementView(t, primary.base)
	// Give the workers a couple of heartbeats to learn the standby list
	// the primary now advertises.
	time.Sleep(time.Second)

	// The primary dies without a word. The standby takes over when the
	// lease lapses; the workers' agents rotate to it on the same
	// silence and rejoin.
	primary.kill(t)
	waitCondE2E(t, "standby took over as primary", func() bool {
		code, body := httpDo(t, "GET", standby.base+"/v1/cluster/topology", nil)
		if code != http.StatusOK {
			return false
		}
		var top struct {
			Role string `json:"role"`
		}
		return json.Unmarshal(body, &top) == nil && top.Role == "primary"
	})
	// The role flips inside Takeover, before the line is printed and
	// before the stdout reader collects it, so poll for the line too.
	waitCondE2E(t, "takeover line printed", func() bool {
		return standby.sawLine("schedd: controller takeover")
	})
	if got := placementView(t, standby.base); !bytes.Equal(got, ref) {
		t.Fatalf("post-takeover placement differs:\n got %s\nwant %s", got, ref)
	}
	waitTopology(t, standby.base, "workers followed the failover", func(top clusterTopo) bool {
		alive := 0
		for _, n := range top.Nodes {
			if n.Alive {
				alive++
			}
		}
		return alive == 2
	})

	// The cluster works under the new reign: the rest of every stream
	// lands through the new controller, and every Result matches the
	// uninterrupted reference.
	for i, id := range ids {
		feedThrough(t, standby.base, id, ins[i].Jobs[cut[id]:])
	}
	for i, id := range ids {
		closeDifferential(t, standby.base, id, ins[i], spec)
	}
}

// waitCondE2E polls cond with a generous deadline.
func waitCondE2E(t *testing.T, why string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never reached: %s", why)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
