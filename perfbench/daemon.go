package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; Linux fixes it at 100 on every architecture Go
// supports.
const clockTick = 10 * time.Millisecond

// daemon is one life of a schedd process.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	out  chan struct{} // closed once the daemon's stdout is drained
}

// procs tracks the live daemons so that an interrupt, or any exit
// path, kills and reaps every one of them.
type procs struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func (p *procs) add(d *daemon) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = make(map[*daemon]bool)
	}
	p.live[d] = true
}

// kill SIGKILLs the daemon and waits until it has exited and its
// output has been drained. Killing twice is harmless.
func (p *procs) kill(d *daemon) {
	p.mu.Lock()
	live := p.live[d]
	delete(p.live, d)
	p.mu.Unlock()
	if !live {
		return
	}
	_ = d.cmd.Process.Kill() // an already-exited process needs only the Wait
	_ = d.cmd.Wait()         // the exit status of a killed daemon says nothing
	<-d.out
}

func (p *procs) killAll() {
	p.mu.Lock()
	ds := make([]*daemon, 0, len(p.live))
	for d := range p.live {
		ds = append(ds, d)
	}
	p.mu.Unlock()
	for _, d := range ds {
		p.kill(d)
	}
}

// start execs schedd on dataDir with default flags apart from -addr
// and -data-dir and returns once it prints its listening line — after
// recovery, so the time returned covers boot or restart to ready.
func (p *procs) start(ctx context.Context, bin, dataDir string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Stderr = os.Stderr
	// The kernel kills the daemon should the benchmark itself die
	// without running its clean-up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting schedd: %w", err)
	}
	d := &daemon{cmd: cmd, out: make(chan struct{})}
	p.add(d)
	ready := make(chan string, 1)
	go func() {
		defer close(d.out)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, "schedd: listening on "); ok && !sent {
				ready <- addr
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // keep draining past an over-long line
	}()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
		return d, time.Since(t0), nil
	case <-d.out:
		p.kill(d)
		return nil, 0, errors.New("schedd exited before listening")
	case <-time.After(60 * time.Second):
		p.kill(d)
		return nil, 0, errors.New("schedd did not listen within 60s")
	case <-ctx.Done():
		p.kill(d)
		return nil, 0, ctx.Err()
	}
}

// usage is what /proc reports for one daemon life.
type usage struct {
	writeBytes uint64        // /proc/<pid>/io write_bytes
	cpu        time.Duration // utime + stime from /proc/<pid>/stat
	hwmKB      uint64        // VmHWM from /proc/<pid>/status
}

func (u usage) plus(v usage) usage {
	return usage{u.writeBytes + v.writeBytes, u.cpu + v.cpu, max(u.hwmKB, v.hwmKB)}
}

// readUsage reads the daemon's counters; call it before the kill.
func readUsage(pid int) (usage, error) {
	var u usage
	dir := fmt.Sprintf("/proc/%d/", pid)
	iob, err := os.ReadFile(dir + "io")
	if err != nil {
		return u, err
	}
	if u.writeBytes, err = field(string(iob), "write_bytes:"); err != nil {
		return u, err
	}
	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return u, err
	}
	if u.hwmKB, err = field(string(status), "VmHWM:"); err != nil {
		return u, err
	}
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc stat: %q", stat)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, fmt.Errorf("parsing /proc stat: %w", err)
	}
	u.cpu = time.Duration(ut+st) * clockTick
	return u, nil
}

// field returns the number after a "name:" key in a /proc file.
func field(text, name string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc field %q not found", name)
}

// scrape fetches /metrics and returns the named unlabelled samples.
func scrape(ctx context.Context, c *http.Client, base string, names ...string) (map[string]uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]uint64, len(names))
	for _, line := range strings.Split(string(body), "\n") {
		for _, n := range names {
			if v, ok := strings.CutPrefix(line, n+" "); ok {
				x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", n, err)
				}
				out[n] = uint64(x)
			}
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metric %s missing from /metrics", n)
		}
	}
	return out, nil
}
