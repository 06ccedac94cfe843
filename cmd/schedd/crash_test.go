// The kill-and-restore differential: a real schedd binary, SIGKILLed
// mid-ingest at randomized points, must come back from its -data-dir
// indistinguishable from a daemon that never died — every
// acknowledged arrival present, mid-stream snapshots byte-identical
// to an uninterrupted in-process host fed the same prefix, and the
// final verified Result byte-identical to batch replay. This is the
// system-level pin on the WAL's durability contract; the package
// tests in internal/wal and internal/serve cover the layers below.
//
// The test name keeps the TestEndToEnd prefix so CI's race job
// (-run 'TestEndToEnd') exercises it under the race detector.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/serve"
	"repro/internal/workload"
)

// buildSchedd compiles the real binary (with -race when this test
// itself runs under the race detector, so the child is checked too).
func buildSchedd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "schedd")
	args := []string{"build"}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, ".")
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building schedd: %v\n%s", err, out)
	}
	return bin
}

// proc is one live schedd process started from the built binary.
type proc struct {
	cmd       *exec.Cmd
	base      string // http://host:port
	recovered string // the "schedd: recovered ..." boot line, if any
	mu        sync.Mutex
	lines     []string // post-readiness stdout (startWatchedDaemon only)
}

// sawLine reports whether a captured post-readiness line starts with
// the prefix (processes started with startWatchedDaemon only).
func (p *proc) sawLine(prefix string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

// waitExit waits for the process to end on its own and returns its
// exit code — the failpoint crashes assert on it.
func (p *proc) waitExit(t *testing.T) int {
	t.Helper()
	err := p.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// startSchedd launches the binary and waits for the listening line —
// which the daemon prints only after recovery finished, so returning
// here means the data dir has been fully replayed.
func startSchedd(t *testing.T, bin string, args ...string) *proc {
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
	// A failed assertion must not orphan the child: it would keep the
	// test's stderr open and stall go test long after the failure.
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
		if rest, ok := strings.CutPrefix(line, "schedd: listening on "); ok {
			p.base = "http://" + rest
			break
		}
	}
	if p.base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("schedd never reported a listen address (scan err %v)", sc.Err())
	}
	// Keep draining stdout so the drain summary cannot block the child.
	go io.Copy(io.Discard, stdout)
	return p
}

// kill is the crash: SIGKILL, no grace, no drain, no close records.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// stop is the orderly exit: SIGTERM and a clean drain.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("schedd did not drain cleanly: %v", err)
	}
}

func httpDo(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out
}

// postArrival streams one job and requires the durable ack — after it
// returns, the arrival must survive any crash.
func postArrival(t *testing.T, base, id string, j job.Job) {
	t.Helper()
	line := append(job.AppendJSON(nil, j), '\n')
	code, body := httpDo(t, "POST", base+"/v1/sessions/"+id+"/arrivals", line)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"accepted":1`)) {
		t.Fatalf("arrival ack: %d %s", code, body)
	}
}

func getSnapshot(t *testing.T, base, id string) []byte {
	t.Helper()
	code, body := httpDo(t, "GET", base+"/v1/sessions/"+id+"/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	return body
}

// metricValue scrapes one un-labelled counter/gauge from /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	code, body := httpDo(t, "GET", base+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			fmt.Sscanf(rest, "%g", &v)
			return v
		}
	}
	t.Fatalf("metric %s missing from scrape", name)
	return 0
}

// TestEndToEndCrashRecovery kills a durable daemon at randomized
// points mid-ingest across several restart cycles (the last one after
// a checkpoint/truncate compaction) and pins byte-identical recovery
// against an uninterrupted run.
func TestEndToEndCrashRecovery(t *testing.T) {
	bin := buildSchedd(t)
	dir := t.TempDir()
	const id = "victim"
	spec := engine.Spec{Name: "pd", M: 1, Alpha: 2.2}
	in := workload.Poisson(workload.Config{N: 260, M: 1, Alpha: 2.2, Seed: 21, ValueScale: 2})

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("kill-point seed %d", seed)

	// A small checkpoint interval so the final cycle provably recovers
	// from checkpoint + tail, and a short fsync tick to keep the
	// per-arrival durable acks cheap.
	args := []string{
		"-addr", "127.0.0.1:0", "-data-dir", dir,
		"-fsync-interval", "2ms", "-checkpoint-every", "64",
		"-drain-timeout", "10s",
	}

	// The uninterrupted reference: an in-process host fed the same
	// prefix, queried over the same HTTP surface — snapshots must match
	// the crashed-and-recovered daemon's byte for byte.
	refHost := serve.NewHost(serve.Config{})
	refSrv := httptest.NewServer(serve.NewHandler(refHost))
	defer refSrv.Close()
	refSess, err := refHost.Create(id, spec)
	if err != nil {
		t.Fatal(err)
	}
	refFed := 0
	refSnapshot := func(upTo int) []byte {
		t.Helper()
		for ; refFed < upTo; refFed++ {
			if _, _, err := refSess.SubmitBatch(context.Background(), in.Jobs[refFed:refFed+1]); err != nil {
				t.Fatal(err)
			}
		}
		// The reference applier is async: wait until it has drained.
		deadline := time.Now().Add(5 * time.Second)
		for {
			body := getSnapshot(t, refSrv.URL, id)
			var snap struct {
				Arrivals int `json:"arrivals"`
				Backlog  int `json:"backlog"`
			}
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatal(err)
			}
			if snap.Arrivals == upTo && snap.Backlog == 0 {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("reference host never drained to %d arrivals: %s", upTo, body)
			}
			time.Sleep(time.Millisecond)
		}
	}

	p := startSchedd(t, bin, args...)
	create, _ := json.Marshal(map[string]any{"id": id, "spec": spec})
	if code, body := httpDo(t, "POST", p.base+"/v1/sessions", create); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	acked := 0
	const cycles = 3
	for cycle := 0; cycle < cycles; cycle++ {
		// Randomized kill point: some more durably-acked arrivals, then
		// SIGKILL. Arrivals are posted one per request and each ack is
		// awaited, so at the kill instant exactly `acked` arrivals have
		// been acknowledged — all of which must survive.
		target := acked + 20 + rng.Intn(60)
		if cycle == cycles-1 {
			// The final incarnation must ingest more than a full
			// checkpoint interval so the compaction the poll below waits
			// for is guaranteed to fire in this process.
			if min := acked + 70; target < min {
				target = min
			}
		}
		if target > len(in.Jobs) {
			target = len(in.Jobs)
		}
		for ; acked < target; acked++ {
			postArrival(t, p.base, id, in.Jobs[acked])
		}
		if cycle == cycles-1 {
			// The last crash must land after a checkpoint/truncate
			// compaction; the applier checkpoints asynchronously, so poll.
			deadline := time.Now().Add(10 * time.Second)
			for metricValue(t, p.base, "schedd_wal_checkpoints_total") < 1 {
				if time.Now().After(deadline) {
					t.Fatal("no checkpoint before the final kill; compaction recovery would go uncovered")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		p.kill(t)

		p = startSchedd(t, bin, args...)
		wantBoot := fmt.Sprintf("schedd: recovered 1 sessions, %d arrivals replayed (0 torn bytes truncated, 0 retired logs swept)", acked)
		if p.recovered != wantBoot {
			t.Fatalf("cycle %d boot line:\n got %q\nwant %q", cycle, p.recovered, wantBoot)
		}
		// Mid-stream differential: the recovered snapshot must be
		// byte-identical to the uninterrupted reference at the same
		// prefix, through the same HTTP surface.
		got := getSnapshot(t, p.base, id)
		want := refSnapshot(acked)
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d recovered snapshot differs:\n got %s\nwant %s", cycle, got, want)
		}
	}

	// Finish the stream on the final incarnation and close: the Result
	// must be byte-identical (modulo wall-clock timings) to an
	// uninterrupted batch replay of the whole instance.
	for ; acked < len(in.Jobs); acked++ {
		postArrival(t, p.base, id, in.Jobs[acked])
	}
	code, body := httpDo(t, "DELETE", p.base+"/v1/sessions/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("close: %d %s", code, body)
	}
	var closed struct {
		Result *engine.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &closed); err != nil || closed.Result == nil {
		t.Fatalf("close response %s: %v", body, err)
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
	if got, want := mask(closed.Result), mask(wantRes[0]); !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from uninterrupted replay:\n got %s\nwant %s", got, want)
	}

	// Orderly exit retired the log; the next boot finds a clean slate.
	p.stop(t)
	p = startSchedd(t, bin, args...)
	if want := "schedd: recovered 0 sessions, 0 arrivals replayed (0 torn bytes truncated, 0 retired logs swept)"; p.recovered != want {
		t.Fatalf("post-close boot line: %q", p.recovered)
	}
	p.stop(t)
}

// TestEndToEndRecoveryRefusesCorruption pins the other half of the
// recovery contract at the binary level: damage beyond a torn tail —
// a bit flipped in a non-final segment, where truncation can never
// paper over it — must make the daemon exit non-zero instead of
// serving rewritten history.
func TestEndToEndRecoveryRefusesCorruption(t *testing.T) {
	bin := buildSchedd(t)
	dir := t.TempDir()
	// Tiny segments force rotation, so the damage below lands mid-log.
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dir,
		"-fsync-interval", "1ms", "-wal-segment-bytes", "256"}

	p := startSchedd(t, bin, args...)
	create, _ := json.Marshal(map[string]any{"id": "c", "spec": engine.Spec{Name: "oa", M: 1, Alpha: 2}})
	if code, body := httpDo(t, "POST", p.base+"/v1/sessions", create); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	for i := 0; i < 20; i++ {
		postArrival(t, p.base, "c", job.Job{ID: i + 1, Release: float64(i), Deadline: float64(i) + 30, Work: 1, Value: 2})
	}
	p.kill(t)

	// Flip one bit inside segment 1, which rotation left behind long
	// ago — mid-log corruption, not a torn tail.
	tenants, err := os.ReadDir(filepath.Join(dir, "tenants"))
	if err != nil || len(tenants) != 1 {
		t.Fatalf("tenant dirs: %v %v", tenants, err)
	}
	tdir := filepath.Join(dir, "tenants", tenants[0].Name())
	if segs, err := os.ReadDir(tdir); err != nil || len(segs) < 2 {
		t.Fatalf("rotation never happened (%v, %v); the flip would hit the final segment", segs, err)
	}
	seg := filepath.Join(tdir, "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		cmd.Process.Kill()
		t.Fatalf("daemon served a corrupted log:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("exit: %v", err)
	}
	if !bytes.Contains(out, []byte("recovery refused")) {
		t.Fatalf("refusal not reported:\n%s", out)
	}
}
