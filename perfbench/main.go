// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload against a schedd built from the same checkout, checks
// every served Result, and prints its metrics as one JSON line.
//
//	perfbench --workload oa-bulk --seed 1 --seconds 40 --trace 0 \
//	      --schedd .bench_build/bin/schedd --work .bench_build
//
// With --trace 0 it repeats whole rounds (boot, traffic, crash and
// restart, close) against the daemon until --seconds of rounds have
// run, and prints the end-to-end metrics. With --trace 1 it runs one
// such round for the daemon's /proc split, then the same workload
// through each layer in-process, and prints the per-layer metrics and
// writes the spans file. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// bench is one run's fixed inputs.
type bench struct {
	name     string
	w        spec
	seed     int64
	sessions []*session
	ref      *reference
	bin      string // the schedd binary
	dir      string // this run's scratch directory
	procs    *procs
}

// errZeroWrites refuses a run whose storage figure would measure
// nothing: a data dir on tmpfs, or a kernel without I/O accounting.
var errZeroWrites = errors.New("the daemon's write_bytes read 0: the data dir is not on a disk-backed filesystem, or the kernel does not account I/O")

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: oa-bulk, pd-m4 or oa-trickle")
	seed := fs.Int64("seed", 1, "seed the workload's traces are drawn from")
	seconds := fs.Int("seconds", 20, "how long the rounds against the daemon run, at least one round")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end rounds")
	bin := fs.String("schedd", "", "path of the schedd binary")
	work := fs.String("work", ".bench_build", "directory for data dirs and the spans file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *bin == "" || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: need --workload (oa-bulk, pd-m4, oa-trickle), --schedd, --trace 0|1 and --seconds >= 1\n")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b := &bench{name: *name, w: w, seed: *seed, bin: *bin, dir: dir, procs: &procs{}}
	defer os.RemoveAll(dir)
	defer b.procs.killAll()

	// An interrupt kills every daemon at once, cleans up and exits
	// without a result; printing one and exiting hold the same lock, so
	// a run prints either a whole result or none.
	var exit sync.Mutex
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		exit.Lock()
		b.procs.killAll()
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		os.Exit(130)
	}()
	ctx := context.Background()

	var o ops
	var metrics map[string]metric
	if err = b.prepare(); err == nil {
		if *trace == 1 {
			metrics, err = b.traced(ctx, filepath.Join(*work, "spans"), &o)
		} else {
			metrics, err = b.endToEnd(ctx, time.Duration(*seconds)*time.Second, &o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if o.failed == 0 {
			o.failed = 1
		}
	}
	out, _ := json.Marshal(report{Correct: err == nil, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: metrics})
	exit.Lock()
	fmt.Println(string(out))
	if err != nil {
		return 1
	}
	return 0
}

// prepare draws the traces, encodes every request body and builds the
// reference replays, all before any clock starts.
func (b *bench) prepare() error {
	b.sessions = b.w.build(b.seed)
	var err error
	b.ref, err = newReference(b.w, b.sessions)
	return err
}

// endToEnd runs whole rounds until their summed wall time reaches
// budget, checking every round's Results between rounds.
func (b *bench) endToEnd(ctx context.Context, budget time.Duration, o *ops) (map[string]metric, error) {
	var all []*roundStats
	var measured time.Duration
	for r := 0; r == 0 || measured < budget; r++ {
		runtime.GC()
		dir := filepath.Join(b.dir, fmt.Sprintf("round-%d", r))
		st, bodies, err := b.round(ctx, dir, o)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		if err := b.ref.verifyAll(b.sessions, bodies); err != nil {
			return nil, o.fail(fmt.Errorf("round %d: %w", r, err))
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		all = append(all, st)
		measured += st.wall
		fmt.Fprintf(os.Stderr, "bench: round %d: %d arrivals acked, %.1fs\n", r, st.acked, st.wall.Seconds())
	}
	return b.endToEndMetrics(all)
}

// endToEndMetrics takes each metric as the median over the rounds of
// that round's figure, so a burst of contention on the machine that
// spans less than half the rounds does not move it. ack_p99_ms is the
// median over blocks of consecutive acks (see blockP99); setup_s is the
// first round's boot, the run's one cold set-up.
func (b *bench) endToEndMetrics(rounds []*roundStats) (map[string]metric, error) {
	var ackP99 []time.Duration
	per := make(map[string][]float64)
	for _, st := range rounds {
		use := st.life1.plus(st.life2)
		if use.writeBytes == 0 {
			return nil, errZeroWrites
		}
		n := float64(st.acked)
		ackP99 = append(ackP99, st.ackP99...)
		for k, v := range map[string]float64{
			"arrivals_per_s":            n / st.traffic.Seconds(),
			"ack_p50_ms":                ms(median(st.ack)),
			"snapshot_p50_ms":           ms(median(st.snap)),
			"close_p50_ms":              ms(median(st.close)),
			"recover_s":                 st.restart.Seconds(),
			"storage_bytes_per_arrival": float64(use.writeBytes) / n,
			"cpu_us_per_arrival":        float64(use.cpu.Microseconds()) / n,
			"peak_rss_mb":               float64(use.hwmKB) / 1024,
		} {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]metric{
		"setup_s":    {rounds[0].boot.Seconds(), "s"},
		"ack_p99_ms": {ms(median(ackP99)), "ms"},
	}
	for k, unit := range map[string]string{
		"arrivals_per_s": "arrivals/s", "ack_p50_ms": "ms", "snapshot_p50_ms": "ms",
		"close_p50_ms": "ms", "recover_s": "s", "storage_bytes_per_arrival": "bytes/arrival",
		"cpu_us_per_arrival": "us/arrival", "peak_rss_mb": "MB",
	} {
		out[k] = metric{median(per[k]), unit}
	}
	return out, nil
}

// number is what median and percentile take: durations, counts and
// per-round figures.
type number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// median returns the middle sample of xs, averaging the two middle
// ones of an even count.
func median[T number](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile[T number](xs []T, p int) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := (len(s)*p + 99) / 100
	return s[min(max(k, 1), len(s))-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
