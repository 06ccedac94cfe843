// Command schedd is the multi-tenant online scheduling daemon: it
// hosts live policy sessions behind an HTTP API and serves streaming
// job arrivals until told to stop, at which point it drains — every
// session is closed, its schedule verified, and the final results
// flushed to stdout.
//
// Usage:
//
//	schedd [-addr :8080] [-shards 16] [-max-sessions 1024]
//	       [-max-backlog 256] [-shed-after 2s]
//	       [-drain-timeout 30s] [-data-dir ""] [-fsync-interval 5ms]
//	       [-checkpoint-every 4096] [-wal-segment-bytes 4194304] [-pprof]
//
// Cluster modes (see internal/cluster):
//
//	schedd -controller -data-dir DIR [-addr :8080] [-lease 5s] [-vnodes 64]
//	       [-advertise URL] [-standby http://primary:8080]
//	       [-max-migrations 2] [-migration-deadline 60s]
//	schedd -join http://controller:8080 -data-dir DIR
//	       [-node-name NAME] [-advertise URL] [other worker flags]
//
// A controller owns tenant placement: workers join it and heartbeat,
// tenant creates/closes proxy through it, arrivals and snapshots are
// 307-redirected to the owning worker, and GET /metrics merges every
// worker's stats (exact histogram merge) into one fleet scrape. A
// worker is a normal durable daemon plus the migration endpoints and
// the join/heartbeat loop; -join requires -data-dir because live
// migration ships the tenant's write-ahead log.
//
// The controller itself is durable: -data-dir (required) holds its
// placement WAL, recovered on boot under the same torn-vs-corrupt
// contract as tenant logs. Migrations run under a supervisor —
// bounded concurrency, retries with backoff, permanent failures
// parked and visible in the topology. With -standby URL the process
// starts as a hot standby tailing that primary's state stream and
// takes over (with a fenced epoch) when the primary's lease lapses.
//
// With -data-dir the daemon is durable: every accepted arrival batch
// is appended to a per-tenant write-ahead log and acknowledged only
// after a group fsync covers it, and on startup the same directory is
// recovered — surviving sessions are rebuilt byte-identically by
// replaying their logs before the listener opens. A torn tail (a
// record cut mid-write by the crash) is truncated and reported; any
// other corruption refuses recovery and the process exits non-zero
// rather than serve rewritten history.
//
// API (see internal/serve):
//
//	POST   /v1/sessions                  {"id": "...", "spec": {"name": "pd", "m": 1, "alpha": 2}}
//	POST   /v1/sessions/{id}/arrivals    NDJSON stream of jobs (one per line)
//	GET    /v1/sessions/{id}/snapshot    live plan observation
//	DELETE /v1/sessions/{id}             close → final verified result
//	GET    /v1/sessions                  live tenant ids
//	GET    /v1/registry                  policy registry
//	GET    /metrics                      Prometheus text format
//	GET    /debug/pprof/*                profiling (only with -pprof)
//
// SIGINT/SIGTERM trigger the graceful drain; a second signal aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

// daemon ties the session host to its HTTP server; the pieces are
// separated from main so the end-to-end test can drive a real daemon
// on a random port inside the test process.
type daemon struct {
	host         *serve.Host
	srv          *http.Server
	ln           net.Listener
	store        *wal.Store // nil without -data-dir
	drainTimeout time.Duration
}

// withPprofMux wraps a handler with the opt-in profiling endpoints:
// they expose process internals and belong behind the operator's
// explicit choice (-pprof).
func withPprofMux(handler http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func newDaemon(cfg serve.Config, drainTimeout time.Duration, withPprof bool) *daemon {
	host := serve.NewHost(cfg)
	handler := serve.NewHandler(host)
	if withPprof {
		handler = withPprofMux(handler)
	}
	return &daemon{
		host:         host,
		srv:          &http.Server{Handler: handler},
		drainTimeout: drainTimeout,
	}
}

// listen binds the address; ":0" picks a random free port.
func (d *daemon) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.ln = ln
	return nil
}

// addr returns the bound address (after listen).
func (d *daemon) addr() string { return d.ln.Addr().String() }

// serveHTTP blocks serving the API until shutdown.
func (d *daemon) serveHTTP() error {
	err := d.srv.Serve(d.ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// shutdown stops accepting connections, drains every live session and
// writes the drain summary. The drain is bounded by drainTimeout so a
// stuck session cannot hold the process hostage.
func (d *daemon) shutdown(w io.Writer) error {
	// In-flight requests get a short grace, then their connections are
	// severed: an NDJSON arrival stream can be endless, and the session
	// drain below — not idle-wait on clients — is what the timeout
	// budget must go to.
	grace := d.drainTimeout / 4
	if grace > 2*time.Second {
		grace = 2 * time.Second
	}
	gctx, gcancel := context.WithTimeout(context.Background(), grace)
	err := d.srv.Shutdown(gctx)
	gcancel()
	if err != nil {
		d.srv.Close()
		if err != context.DeadlineExceeded {
			fmt.Fprintf(w, "schedd: http shutdown: %v\n", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout)
	defer cancel()
	results, err := d.host.Drain(ctx)
	// The drain closed every session (retiring its log); the store
	// itself shuts after, so a session the timeout abandoned keeps its
	// log on disk for the next boot's recovery.
	if d.store != nil {
		if cerr := d.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	tbl := &stats.Table{
		Title:   "drained sessions",
		Headers: []string{"session", "policy", "energy", "lost", "cost", "rejected", "status"},
	}
	for _, dr := range results {
		if dr.Result == nil {
			tbl.AddRow(dr.ID, "-", "-", "-", "-", "-", dr.Err)
			continue
		}
		tbl.AddRow(dr.ID, dr.Result.Policy, dr.Result.Energy, dr.Result.LostValue,
			dr.Result.Cost, dr.Result.Rejected, "ok")
	}
	if len(results) > 0 {
		if rerr := tbl.Render(w); rerr != nil && err == nil {
			err = rerr
		}
	}
	fmt.Fprintf(w, "schedd: drained %d sessions, %d arrivals served\n",
		len(results), d.host.Metrics().Arrivals())
	return err
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (\":0\" picks a random port)")
	shards := fs.Int("shards", 16, "session map shards (rounded up to a power of two)")
	maxSessions := fs.Int("max-sessions", 1024, "admission limit on live sessions")
	maxBacklog := fs.Int("max-backlog", 256, "per-session arrival queue bound")
	shedAfter := fs.Duration("shed-after", 2*time.Second, "full-backlog stall budget before a submit sheds with 429 + Retry-After (0 blocks forever)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain bound on shutdown")
	dataDir := fs.String("data-dir", "", "write-ahead log directory; empty runs without durability")
	fsyncInterval := fs.Duration("fsync-interval", 5*time.Millisecond, "group-commit fsync interval (0 fsyncs every append)")
	checkpointEvery := fs.Int("checkpoint-every", 4096, "arrivals between per-session checkpoint/truncate compactions (0 disables)")
	walSegBytes := fs.Int64("wal-segment-bytes", 4<<20, "write-ahead log segment size before rotation")
	withPprof := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	controllerMode := fs.Bool("controller", false, "run as the cluster controller instead of a worker")
	lease := fs.Duration("lease", 5*time.Second, "controller: worker lease; silence past it marks the node dead")
	vnodes := fs.Int("vnodes", 64, "controller: virtual nodes per worker on the placement ring")
	standby := fs.String("standby", "", "controller: run as hot standby of this primary URL; take over when its lease lapses")
	maxMigrations := fs.Int("max-migrations", 2, "controller: concurrent migration bound")
	migrationDeadline := fs.Duration("migration-deadline", 60*time.Second, "controller: per-migration attempt deadline")
	join := fs.String("join", "", "worker: controller base URL to join (requires -data-dir)")
	nodeName := fs.String("node-name", "", "worker: stable identity for rejoin reconciliation (default: the advertise URL)")
	advertise := fs.String("advertise", "", "base URL peers reach this process at (default http://<bound addr>)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *controllerMode {
		return runController(controllerConfig{
			addr: *addr, lease: *lease, vnodes: *vnodes,
			dataDir: *dataDir, advertise: *advertise, standby: *standby,
			maxMigrations: *maxMigrations, migrationDeadline: *migrationDeadline,
		}, stdout)
	}
	if *join != "" && *dataDir == "" {
		return fmt.Errorf("-join requires -data-dir: live migration ships the tenant's write-ahead log")
	}

	cfg := serve.Config{
		Shards: *shards, MaxSessions: *maxSessions,
		MaxBacklog: *maxBacklog, ShedAfter: *shedAfter,
	}
	var store *wal.Store
	if *dataDir != "" {
		var err error
		store, err = wal.Open(*dataDir, wal.Options{
			FsyncInterval: *fsyncInterval, SegmentBytes: *walSegBytes,
		})
		if err != nil {
			return fmt.Errorf("opening wal: %w", err)
		}
		cfg.WAL = store
		cfg.CheckpointEvery = *checkpointEvery
	}
	d := newDaemon(cfg, *drainTimeout, *withPprof)
	d.store = store
	if store != nil {
		// Recover before the listener opens: no request ever observes a
		// half-rebuilt host, and "listening" doubles as the recovered
		// readiness marker. Corruption beyond a torn tail exits non-zero
		// here — serving rewritten history is worse than not serving.
		rs, err := d.host.Recover()
		if err != nil {
			store.Close()
			return fmt.Errorf("recovery refused: %w", err)
		}
		fmt.Fprintf(stdout, "schedd: recovered %d sessions, %d arrivals replayed (%d torn bytes truncated, %d retired logs swept)\n",
			rs.Sessions, rs.Arrivals, rs.TornBytes, rs.Removed)
	}
	if err := d.listen(*addr); err != nil {
		if store != nil {
			store.Close()
		}
		return err
	}
	// The handler must be installed before the listening line goes out:
	// that line is the readiness marker, and an operator (or the crash
	// e2e) may signal the instant they see it.
	agentCtx, agentCancel := context.WithCancel(context.Background())
	defer agentCancel()
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + d.addr()
		}
		name := *nodeName
		if name == "" {
			name = adv
		}
		agent := cluster.NewAgent(cluster.NodeConfig{
			Name: name, Advertise: adv, Controller: *join,
		}, d.host, store)
		handler := cluster.NewNodeHandler(name, d.host, store, agent.Fence())
		if *withPprof {
			handler = withPprofMux(handler)
		}
		d.srv.Handler = handler
		// The agent joins with the recovered tenant list (recovery ran
		// above), then heartbeats until shutdown. A controller that is
		// briefly unreachable is retried — the worker keeps serving its
		// tenants on its own either way.
		go func() {
			for agentCtx.Err() == nil {
				err := agent.Run(agentCtx)
				if agentCtx.Err() != nil {
					return
				}
				fmt.Fprintf(stderr, "schedd: cluster agent: %v (retrying)\n", err)
				select {
				case <-agentCtx.Done():
					return
				case <-time.After(time.Second):
				}
			}
		}()
		fmt.Fprintf(stdout, "schedd: worker %q joining %s\n", name, *join)
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	fmt.Fprintf(stdout, "schedd: listening on %s\n", d.addr())
	errc := make(chan error, 1)
	go func() { errc <- d.serveHTTP() }()

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "schedd: %v, draining (second signal aborts)\n", s)
		go func() {
			<-sig
			os.Exit(1)
		}()
		agentCancel()
		return d.shutdown(stdout)
	}
}

// controllerConfig carries the controller-mode flags.
type controllerConfig struct {
	addr, dataDir, advertise, standby string
	lease, migrationDeadline          time.Duration
	vnodes, maxMigrations             int
}

// runController serves the cluster control plane: the join/heartbeat
// surface, the placement proxy and redirects, the migration verbs and
// the fleet-merged /metrics. It holds no sessions itself — shutdown is
// just closing the listener; the workers keep serving. The placement
// WAL under -data-dir is recovered before the listener opens, under
// the tenant-log contract: torn tail truncated, anything worse
// refuses boot non-zero.
func runController(cc controllerConfig, stdout io.Writer) error {
	if cc.dataDir == "" {
		return fmt.Errorf("-controller requires -data-dir: the placement log is what survives a controller crash")
	}
	ln, err := net.Listen("tcp", cc.addr)
	if err != nil {
		return err
	}
	adv := cc.advertise
	if adv == "" {
		adv = "http://" + ln.Addr().String()
	}
	c, err := cluster.OpenController(cluster.Options{
		Lease: cc.lease, VNodes: cc.vnodes, DataDir: cc.dataDir,
		Advertise: adv, Standby: cc.standby,
		MaxMigrations: cc.maxMigrations, MigrateTimeout: cc.migrationDeadline,
	})
	if err != nil {
		ln.Close()
		return fmt.Errorf("recovery refused: %w", err)
	}
	defer c.Close()
	srv := &http.Server{Handler: cluster.NewHTTPHandler(c)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	go c.RunLeaseChecker(ctx)
	if cc.standby != "" {
		// Tail the primary; when its lease lapses this controller takes
		// over, and the printed line is the e2e's takeover marker.
		go func() {
			if err := c.RunStandby(ctx); err == nil {
				fmt.Fprintf(stdout, "schedd: controller takeover (epoch %d)\n", c.Epoch())
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	role := "controller"
	if cc.standby != "" {
		role = "standby controller"
	}
	fmt.Fprintf(stdout, "schedd: %s listening on %s (lease %v, %d vnodes, epoch %d)\n",
		role, ln.Addr(), cc.lease, cc.vnodes, c.Epoch())
	errc := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "schedd: controller %v, shutting down\n", s)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
		}
		return nil
	}
}
