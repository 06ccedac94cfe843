package engine

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/internal/yds"
)

func TestEveryBuiltinConstructibleViaSpec(t *testing.T) {
	for _, name := range []string{"pd", "cll", "oa", "moa", "yds", "avr", "bkp", "qoa", "opt"} {
		p, err := New(Spec{Name: name, M: 1, Alpha: 2})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q) built a policy named %q", name, p.Name())
		}
	}
}

func TestUnknownNameListsRegistry(t *testing.T) {
	_, err := New(Spec{Name: "nope", M: 1, Alpha: 2})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, want := range []string{`"nope"`, "registered:", "pd", "oa", "yds"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-name error must mention %q: %v", want, err)
		}
	}
}

// TestCapabilityMismatches covers every refusal path of Validate: m
// out of range, invalid environment, undeclared parameters — and the
// compatible cases right next to them (moa with m=1 is fine, cll with
// m=4 is refused).
func TestCapabilityMismatches(t *testing.T) {
	if _, err := New(Spec{Name: "moa", M: 1, Alpha: 2}); err != nil {
		t.Fatalf("moa with m=1 must be fine: %v", err)
	}
	if _, err := New(Spec{Name: "moa", M: 16, Alpha: 2}); err != nil {
		t.Fatalf("moa is unbounded above: %v", err)
	}
	for _, name := range []string{"cll", "oa", "avr", "bkp", "qoa", "yds"} {
		_, err := New(Spec{Name: name, M: 4, Alpha: 2})
		if err == nil {
			t.Fatalf("%s with m=4 must be refused", name)
		}
		for _, want := range []string{name, "m=4", "range"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s refusal must explain itself (missing %q): %v", name, want, err)
			}
		}
	}
	if _, err := New(Spec{Name: "pd", M: 0, Alpha: 2}); err == nil {
		t.Fatal("m=0 must be refused")
	}
	if _, err := New(Spec{Name: "pd", M: 1, Alpha: 1}); err == nil {
		t.Fatal("α ≤ 1 must be refused")
	}
	if _, err := New(Spec{Name: "pd", M: 1, Alpha: math.NaN()}); err == nil {
		t.Fatal("NaN α must be refused")
	}
	_, err := New(Spec{Name: "oa", M: 1, Alpha: 2, Params: map[string]float64{"delta": 0.5}})
	if err == nil {
		t.Fatal("oa does not take delta; spec must be refused")
	}
	if !strings.Contains(err.Error(), "delta") {
		t.Fatalf("parameter refusal must name the parameter: %v", err)
	}
	if _, err := New(Spec{Name: "pd", M: 1, Alpha: 2, Params: map[string]float64{"delta": -1}}); err == nil {
		t.Fatal("nonpositive delta must be refused")
	}
	if _, err := New(Spec{Name: "pd", M: 2, Alpha: 2.5, Params: map[string]float64{"delta": 0.4}}); err != nil {
		t.Fatalf("valid pd spec with delta refused: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	ok := Registration{Name: "x", Build: func(Spec) (Policy, error) { return failingPolicy{}, nil }}
	if err := r.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ok); err == nil {
		t.Fatal("duplicate name must be refused")
	}
	if err := r.Register(Registration{Build: ok.Build}); err == nil {
		t.Fatal("empty name must be refused")
	}
	if err := r.Register(Registration{Name: "y"}); err == nil {
		t.Fatal("nil constructor must be refused")
	}
	if err := r.Register(Registration{Name: "z", Build: ok.Build, Caps: Caps{MinM: 4, MaxM: 2}}); err == nil {
		t.Fatal("inverted processor range must be refused")
	}
}

// TestCustomPolicyRegistration is the README's "add your own policy"
// flow: register by name, resolve by spec, replay, and appear in the
// listing with the declared capabilities.
func TestCustomPolicyRegistration(t *testing.T) {
	r := NewRegistry()
	err := r.Register(Registration{
		Name:    "reject-all",
		Summary: "rejects every job (pays all values)",
		Caps:    Caps{MinM: 1, Profit: true, Online: true},
		Build: func(spec Spec) (Policy, error) {
			return &rejectAll{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.Uniform(workload.Config{N: 8, M: 1, Alpha: 2, Seed: 4})
	p, err := r.New(Spec{Name: "reject-all", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(in, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 8 || res.Energy != 0 {
		t.Fatalf("reject-all must pay only values: %+v", res)
	}
	found := false
	for _, reg := range r.All() {
		if reg.Name == "reject-all" && reg.Caps.Mode() == "online" && reg.Caps.Model() == "profit" {
			found = true
		}
	}
	if !found {
		t.Fatal("custom policy missing from the listing with its capabilities")
	}
}

type rejectAll struct {
	ids []int
}

func (r *rejectAll) Name() string { return "reject-all" }
func (r *rejectAll) Arrive(j job.Job) error {
	r.ids = append(r.ids, j.ID)
	return nil
}
func (r *rejectAll) Close() (*sched.Schedule, error) {
	return &sched.Schedule{M: 1, Rejected: r.ids}, nil
}

// TestIncrementalMatchesOldBatchAdapters pins the API redesign's core
// promise: the truly-online oa/avr/qoa policies produce schedules
// byte-identical to the previous batch adapters (a buffering shim over
// yds.OA / yds.AVR / yds.QOA) on random and heavy-tailed traces.
func TestIncrementalMatchesOldBatchAdapters(t *testing.T) {
	pm := power.New(2)
	oldAdapters := map[string]func() Policy{
		"oa": func() Policy {
			return &batchPolicy{name: "oa", m: 1, pm: pm,
				run: func(in *job.Instance, _ power.Model) (*sched.Schedule, error) { return yds.OA(in) }}
		},
		"avr": func() Policy {
			return &batchPolicy{name: "avr", m: 1, pm: pm,
				run: func(in *job.Instance, _ power.Model) (*sched.Schedule, error) { return yds.AVR(in) }}
		},
		"qoa": func() Policy {
			return &batchPolicy{name: "qoa", m: 1, pm: pm,
				run: func(in *job.Instance, pm power.Model) (*sched.Schedule, error) { return yds.QOA(in, pm) }}
		},
	}
	var traces []*job.Instance
	for seed := int64(1); seed <= 3; seed++ {
		traces = append(traces,
			workload.Uniform(workload.Config{N: 30, M: 1, Alpha: 2, Seed: seed, ValueScale: math.Inf(1)}),
			workload.HeavyTail(workload.Config{N: 30, M: 1, Alpha: 2, Seed: seed, ValueScale: math.Inf(1)}),
		)
	}
	for name, mkOld := range oldAdapters {
		for i, in := range traces {
			oldRes, err := Replay(in, mkOld())
			if err != nil {
				t.Fatalf("%s trace %d (batch): %v", name, i, err)
			}
			newRes, err := Replay(in, mustNew(t, Spec{Name: name, M: 1, Alpha: 2}))
			if err != nil {
				t.Fatalf("%s trace %d (incremental): %v", name, i, err)
			}
			if !bytes.Equal(scheduleBytes(t, oldRes), scheduleBytes(t, newRes)) {
				t.Fatalf("%s trace %d: incremental session diverges from the old batch adapter", name, i)
			}
		}
	}
}

func TestRaceSpecsMatchesIndividualNew(t *testing.T) {
	in := workload.Poisson(workload.Config{N: 15, M: 1, Alpha: 2, Seed: 8, ValueScale: math.Inf(1)})
	specs := []Spec{
		{Name: "pd", M: 1, Alpha: 2},
		{Name: "oa", M: 1, Alpha: 2},
		{Name: "yds", M: 1, Alpha: 2},
	}
	results, err := DefaultRegistry().Race(in, specs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		solo, err := Replay(in, mustNew(t, spec))
		if err != nil {
			t.Fatal(err)
		}
		if results[i] == nil || !bytes.Equal(scheduleBytes(t, results[i]), scheduleBytes(t, solo)) {
			t.Fatalf("%s: raced result diverges from solo replay", spec.Name)
		}
	}
	if _, err := DefaultRegistry().Race(in, Spec{Name: "cll", M: 4, Alpha: 2}); err == nil {
		t.Fatal("incompatible spec must fail the race up front")
	}
}

func TestReplayAllSpec(t *testing.T) {
	fleet := workload.Fleet(workload.Uniform, workload.Config{
		N: 12, M: 1, Alpha: 2, Seed: 9, ValueScale: math.Inf(1),
	}, 4)
	ctx := context.Background()
	results, err := DefaultRegistry().ReplayAll(ctx, fleet, Spec{Name: "oa", M: 1, Alpha: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil || res.Policy != "oa" {
			t.Fatalf("trace %d: %+v", i, res)
		}
	}
	if _, err := DefaultRegistry().ReplayAll(ctx, fleet, Spec{Name: "oa", M: 3, Alpha: 2}, 2); err == nil {
		t.Fatal("incompatible spec must fail before the fleet runs")
	}
}

func TestCapsLabels(t *testing.T) {
	for _, tc := range []struct {
		caps   Caps
		mode   string
		model  string
		mrange string
	}{
		{Caps{MinM: 1, MaxM: 1, Online: true}, "online", "finish-all", "1"},
		{Caps{MinM: 1, Profit: true}, "batch", "profit", "≥1"},
		{Caps{MinM: 1, MaxM: 8, Clairvoyant: true}, "clairvoyant", "finish-all", "1–8"},
	} {
		if got := tc.caps.Mode(); got != tc.mode {
			t.Fatalf("mode %q, want %q", got, tc.mode)
		}
		if got := tc.caps.Model(); got != tc.model {
			t.Fatalf("model %q, want %q", got, tc.model)
		}
		if got := tc.caps.MRange(); got != tc.mrange {
			t.Fatalf("m-range %q, want %q", got, tc.mrange)
		}
	}
}

func TestOptPolicyReportsGap(t *testing.T) {
	in := workload.Uniform(workload.Config{N: 5, M: 1, Alpha: 2, Seed: 10, ValueScale: 1})
	p := mustNew(t, Spec{Name: "opt", M: 1, Alpha: 2})
	if _, err := Replay(in, p); err != nil {
		t.Fatal(err)
	}
	g, ok := p.(interface{ OptimalityGap() float64 })
	if !ok {
		t.Fatal("opt policy must expose its certified gap")
	}
	if gap := g.OptimalityGap(); math.IsNaN(gap) || gap < -1e-9 {
		t.Fatalf("implausible optimality gap %v", gap)
	}
}
