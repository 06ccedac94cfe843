// T11: every single-processor policy raced over a heavy-tailed fleet
// through the concurrent replay engine.

package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/workload"
)

// T11PolicyRace fans a fleet of heavy-tailed finish-all traces through
// the registry's spec-based race: on each trace all policies run
// concurrently against the offline optimum (YDS), and the per-trace
// energy ratios are aggregated across the fleet, together with each
// policy's honest per-arrival latency (zero for batch shims, real
// replanning cost for the online sessions). This is the
// experiment-harness face of the concurrent benchmark subsystem — the
// same machinery cmd/profsched's -algos mode uses.
func T11PolicyRace(sc Scale) (*stats.Table, error) {
	sc = sc.withDefaults()
	alpha := 2.0
	pm := power.New(alpha)
	fleet := workload.Fleet(workload.HeavyTail, workload.Config{
		N: sc.N * 2, M: 1, Alpha: alpha, Seed: 31000, ValueScale: math.Inf(1),
	}, 2*sc.Seeds)

	specs := []engine.Spec{
		{Name: "pd", M: 1, Alpha: alpha},
		{Name: "oa", M: 1, Alpha: alpha},
		{Name: "avr", M: 1, Alpha: alpha},
		{Name: "bkp", M: 1, Alpha: alpha},
		{Name: "qoa", M: 1, Alpha: alpha},
		{Name: "yds", M: 1, Alpha: alpha}, // the clairvoyant baseline, raced alongside
	}
	ratios := make(map[string][]float64)
	maxArrive := make(map[string]time.Duration)
	maxPlan := make(map[string]time.Duration)
	order := make([]string, 0, len(specs))
	for _, in := range fleet {
		results, err := engine.DefaultRegistry().Race(in, specs...)
		if err != nil {
			return nil, fmt.Errorf("T11: %w", err)
		}
		opt := results[len(results)-1].Energy // YDS is last
		if opt <= 0 {
			return nil, fmt.Errorf("T11: offline optimum has nonpositive energy %v", opt)
		}
		for _, r := range results {
			if _, seen := ratios[r.Policy]; !seen {
				order = append(order, r.Policy)
			}
			ratios[r.Policy] = append(ratios[r.Policy], r.Energy/opt)
			if r.MaxArrive > maxArrive[r.Policy] {
				maxArrive[r.Policy] = r.MaxArrive
			}
			if r.PlanTime > maxPlan[r.Policy] {
				maxPlan[r.Policy] = r.PlanTime
			}
		}
	}

	t := &stats.Table{
		Title:   "T11: policy race over a heavy-tailed fleet (Registry.Race, finish-all, α = 2)",
		Headers: []string{"policy", "mode", "traces", "E/OPT(geo)", "E/OPT(max)", "E/OPT(min)", "max arrive", "plan(max)", "bound α^α"},
		Notes: []string{
			"each trace is replayed by all policies concurrently with per-run isolation;",
			"OPT is the offline YDS schedule of the same trace, raced alongside;",
			"arrive latency is honest: real per-arrival replanning for online policies,",
			"zero for batch shims (their cost is plan time, measured at close)",
		},
	}
	reg := engine.DefaultRegistry()
	for _, name := range order {
		rs := ratios[name]
		sm := stats.Summarize(rs)
		if name != "yds" && sm.Min < 1-1e-6 {
			return nil, fmt.Errorf("T11: %s beats the offline optimum (min ratio %v)", name, sm.Min)
		}
		r, err := reg.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("T11: %w", err)
		}
		t.AddRow(name, r.Caps.Mode(), len(rs), stats.GeoMean(rs), sm.Max, sm.Min,
			maxArrive[name].String(), maxPlan[name].String(), pm.CompetitiveBound())
	}
	return t, nil
}
