// Command profsched runs a scheduling algorithm over a JSON job trace
// and reports cost, energy, lost value and (for PD) the certified
// competitive ratio. The produced schedule is verified against the
// model constraints before anything is reported.
//
// Usage:
//
//	profsched -algo NAME [-trace file] [-delta δ]
//	profsched -algos a,b,c [-trace file]
//	profsched -list
//
// Algorithms are resolved through the engine's policy registry:
// profsched -list prints every registered policy together with its
// capability metadata (supported processor range, profit vs finish-all
// model, online vs batch vs clairvoyant planning), and the same table
// is appended to -h. Incompatible traces are refused with the reason
// (e.g. a single-processor policy on an m=4 trace).
//
// The trace is read from -trace or stdin. The -algos mode replays the
// trace through every named algorithm concurrently (Registry.Race)
// and prints one combined comparison table instead of the
// single-algorithm report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "profsched:", err)
		os.Exit(1)
	}
}

// registryTable renders the policy registry: one row per registered
// policy with its capability metadata. It backs both -list and -h, so
// there is no hand-maintained algorithm list to drift.
func registryTable(reg *engine.Registry) *stats.Table {
	t := &stats.Table{
		Title:   "registered policies",
		Headers: []string{"name", "m", "model", "mode", "params", "summary"},
		Notes: []string{
			"model: profit optimises energy + lost value; finish-all ignores values",
			"mode: online plans per arrival, batch buffers and plans at close,",
			"clairvoyant sees the whole trace (offline baselines)",
		},
	}
	for _, r := range reg.All() {
		params := "-"
		if len(r.Params) > 0 {
			params = strings.Join(r.Params, ",")
		}
		t.AddRow(r.Name, r.Caps.MRange(), r.Caps.Model(), r.Caps.Mode(), params, r.Summary)
	}
	return t
}

// run is the whole CLI behind a testable seam: flags are parsed from
// args, the trace comes from stdin unless -trace overrides it, and all
// report output goes to stdout.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	reg := engine.DefaultRegistry()
	fs := flag.NewFlagSet("profsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", "pd", "algorithm name (see -list)")
	algos := fs.String("algos", "", "comma-separated algorithms to race on the same trace (comparison mode)")
	list := fs.Bool("list", false, "print the policy registry and exit")
	trace := fs.String("trace", "", "JSON trace file (default stdin)")
	delta := fs.Float64("delta", 0, "override PD's δ (default α^{1-α})")
	profile := fs.Bool("profile", false, "render an ASCII total-speed profile")
	dump := fs.Bool("dump", false, "dump per-interval assignments (policies exposing interval state)")
	gantt := fs.Bool("gantt", false, "render a per-processor ASCII Gantt chart")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: profsched [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr)
		_ = registryTable(reg).Render(stderr)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed usage; that is success, not an error
		}
		return err
	}
	if *list {
		return registryTable(reg).Render(stdout)
	}

	var r io.Reader = stdin
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	in, err := job.ReadTrace(r)
	if err != nil {
		return err
	}
	if *algos != "" {
		if *profile || *dump || *gantt {
			return fmt.Errorf("-profile, -dump and -gantt apply to single-algorithm mode only, not -algos")
		}
		return runComparison(in, reg, strings.Split(*algos, ","), *delta, stdout)
	}
	return runSingle(in, reg, *algo, *delta, *profile, *dump, *gantt, stdout)
}

// specFor builds the registry spec selecting the named policy for this
// trace's environment, attaching δ only where the policy declares it —
// comparison mode races mixed policies, so δ goes to those that take
// it. Single-algorithm mode attaches δ unconditionally instead, so an
// inapplicable -delta is refused, not silently dropped.
func specFor(reg *engine.Registry, name string, in *job.Instance, delta float64) (engine.Spec, error) {
	spec := engine.Spec{Name: name, M: in.M, Alpha: in.Alpha}
	if delta <= 0 {
		return spec, nil
	}
	r, err := reg.Lookup(name)
	if err != nil {
		return spec, err
	}
	for _, p := range r.Params {
		if p == "delta" {
			spec.Params = map[string]float64{"delta": delta}
			break
		}
	}
	return spec, nil
}

// runSingle executes one algorithm through the replay engine and
// prints the classic report. Policy-specific extras (PD's dual
// certificate and interval dump, opt's certified gap) are discovered
// by capability interfaces, not by name.
func runSingle(in *job.Instance, reg *engine.Registry, algo string, delta float64, profile, dump, gantt bool, w io.Writer) error {
	spec := engine.Spec{Name: algo, M: in.M, Alpha: in.Alpha}
	if delta > 0 {
		spec.Params = map[string]float64{"delta": delta}
	}
	p, err := reg.New(spec)
	if err != nil {
		return err
	}
	// Refuse unsupported extras before the replay runs: a failed
	// invocation must not first print a complete-looking report.
	dumper, canDump := p.(interface {
		IntervalStates(*job.Instance) ([]core.IntervalState, error)
	})
	if dump && !canDump {
		return fmt.Errorf("-dump: algorithm %q does not expose per-interval state", algo)
	}
	res, err := engine.Replay(in, p)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "algorithm          %12s\njobs               %12d\nprocessors         %12d\nalpha              %12g\n",
		algo, len(in.Jobs), in.M, in.Alpha)
	fmt.Fprintf(w, "energy             %12.6g\nlost value         %12.6g\ncost               %12.6g\n",
		res.Energy, res.LostValue, res.Cost)
	fmt.Fprintf(w, "rejected jobs      %12d\nmax speed          %12.6g\nverified           %12s\n",
		res.Rejected, res.Schedule.MaxSpeed(), "yes")
	fmt.Fprintf(w, "max arrive         %12s\ntotal arrive       %12s\nplan time          %12s\n",
		res.MaxArrive, res.TotalArrive, res.PlanTime)

	if dc, ok := p.(interface{ DualValue() float64 }); ok {
		pm := spec.PowerModel()
		dualV := dc.DualValue()
		fmt.Fprintf(w, "dual lower bound   %12.6g\ncertified ratio    %12.6g (bound α^α = %.6g)\n",
			dualV, res.Cost/dualV, pm.CompetitiveBound())
	}
	if g, ok := p.(interface{ OptimalityGap() float64 }); ok {
		fmt.Fprintf(w, "certified opt gap  %12.6g\n", g.OptimalityGap())
	}
	if dump {
		states, err := dumper.IntervalStates(in)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nper-interval assignment:")
		for _, st := range states {
			fmt.Fprintf(w, "  [%.4g, %.4g) energy %.4g loads %v\n", st.T0, st.T1, st.Energy, st.Load)
		}
	}
	if profile {
		fmt.Fprintln(w, res.Schedule.RenderProfile(72))
	}
	if gantt {
		fmt.Fprintln(w, res.Schedule.RenderGantt(72))
	}
	return nil
}

// runComparison races the named algorithms over the trace concurrently
// and renders one combined table sorted cheapest cost first, each row
// annotated against the best.
func runComparison(in *job.Instance, reg *engine.Registry, names []string, delta float64, w io.Writer) error {
	specs := make([]engine.Spec, 0, len(names))
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		spec, err := specFor(reg, name, in, delta)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return fmt.Errorf("-algos: no algorithms given")
	}
	results, err := reg.Race(in, specs...)
	if err != nil {
		return err
	}
	sort.SliceStable(results, func(i, k int) bool { return results[i].Cost < results[k].Cost })
	best := results[0].Cost
	if best <= 0 {
		best = 1 // empty trace: avoid 0/0 in the ratio column
	}
	t := &stats.Table{
		Title: fmt.Sprintf("profsched comparison: %d jobs, m=%d, α=%g", len(in.Jobs), in.M, in.Alpha),
		Headers: []string{"algo", "energy", "lost value", "cost", "cost/best",
			"rejected", "max speed", "max arrive", "total arrive", "plan"},
		Notes: []string{
			"all schedules verified; policies replayed concurrently with per-run isolation",
			"arrive columns are wall-clock per-arrival decision latency (zero for batch",
			"policies, which buffer and plan at close — see plan); concurrent replay",
			"may include scheduler contention, use -algo for isolated timing",
		},
	}
	for _, r := range results {
		t.AddRow(r.Policy, r.Energy, r.LostValue, r.Cost, r.Cost/best,
			r.Rejected, r.Schedule.MaxSpeed(),
			r.MaxArrive.String(), r.TotalArrive.String(), r.PlanTime.String())
	}
	return t.Render(w)
}
