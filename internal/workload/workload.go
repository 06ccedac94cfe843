// Package workload generates the job populations used by the
// experiment suite. All generators are deterministic given a seed and
// return validated, normalized instances.
//
// The value model follows the economics of Eq. (1): a job's value is a
// lognormal multiple of the energy it would cost to run the job alone
// at its density ("solo energy"). Multipliers near 1 make accept/reject
// decisions genuinely contested; large multipliers recover the
// classical finish-everything model; small ones force mass rejection.
package workload

import (
	"math"
	"math/rand"

	"repro/internal/job"
	"repro/internal/power"
)

// Config is the shared shape of the random generators.
type Config struct {
	N     int     // number of jobs
	M     int     // processors in the produced instance
	Alpha float64 // energy exponent
	Seed  int64

	// Horizon is the release-time range [0, Horizon). Default 10.
	Horizon float64
	// SpanMin/SpanMax bound the deadline slack d-r. Defaults 0.2/3.
	SpanMin, SpanMax float64
	// WorkMin/WorkMax bound workloads. Defaults 0.1/2.
	WorkMin, WorkMax float64
	// ValueScale multiplies the lognormal solo-energy value model;
	// 0 means 1. Use math.Inf(1) for the classical finish-all model.
	ValueScale float64
	// ValueSigma is the lognormal σ of the value noise. Default 1.
	ValueSigma float64
	// TailIndex is the Pareto shape of HeavyTail workloads; smaller is
	// heavier. Default 1.5 (finite mean, infinite variance).
	TailIndex float64
}

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = 10
	}
	if c.SpanMin <= 0 {
		c.SpanMin = 0.2
	}
	if c.SpanMax <= c.SpanMin {
		c.SpanMax = c.SpanMin + 2.8
	}
	if c.WorkMin <= 0 {
		c.WorkMin = 0.1
	}
	if c.WorkMax <= c.WorkMin {
		c.WorkMax = c.WorkMin + 1.9
	}
	if c.ValueScale == 0 { //schedlint:exactfloat unset-config sentinel
		c.ValueScale = 1
	}
	if c.ValueSigma == 0 { //schedlint:exactfloat unset-config sentinel
		c.ValueSigma = 1
	}
	if c.TailIndex <= 0 {
		c.TailIndex = 1.5
	}
	return c
}

// value draws a job value under the solo-energy model.
func (c Config) value(rng *rand.Rand, pm power.Model, w, span float64) float64 {
	if math.IsInf(c.ValueScale, 1) {
		return math.Inf(1)
	}
	solo := span * pm.Power(w/span)
	return c.ValueScale * solo * math.Exp(c.ValueSigma*rng.NormFloat64())
}

// Uniform draws releases uniformly over the horizon with uniform spans
// and workloads.
func Uniform(c Config) *job.Instance {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	pm := power.Model{Alpha: c.Alpha}
	in := &job.Instance{M: c.M, Alpha: c.Alpha}
	for i := 0; i < c.N; i++ {
		r := rng.Float64() * c.Horizon
		span := c.SpanMin + rng.Float64()*(c.SpanMax-c.SpanMin)
		w := c.WorkMin + rng.Float64()*(c.WorkMax-c.WorkMin)
		in.Jobs = append(in.Jobs, job.Job{
			ID: i, Release: r, Deadline: r + span, Work: w,
			Value: c.value(rng, pm, w, span),
		})
	}
	in.Normalize()
	return in
}

// Poisson draws inter-arrival times exponentially with the rate chosen
// so that N jobs fill the horizon on average.
func Poisson(c Config) *job.Instance {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	pm := power.Model{Alpha: c.Alpha}
	in := &job.Instance{M: c.M, Alpha: c.Alpha}
	rate := float64(c.N) / c.Horizon
	t := 0.0
	for i := 0; i < c.N; i++ {
		t += rng.ExpFloat64() / rate
		span := c.SpanMin + rng.Float64()*(c.SpanMax-c.SpanMin)
		w := c.WorkMin + rng.Float64()*(c.WorkMax-c.WorkMin)
		in.Jobs = append(in.Jobs, job.Job{
			ID: i, Release: t, Deadline: t + span, Work: w,
			Value: c.value(rng, pm, w, span),
		})
	}
	in.Normalize()
	return in
}

// Diurnal modulates a Poisson process with a sinusoidal rate (a crude
// day/night datacenter load curve): busy phases have triple the rate of
// quiet phases.
func Diurnal(c Config) *job.Instance {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	pm := power.Model{Alpha: c.Alpha}
	in := &job.Instance{M: c.M, Alpha: c.Alpha}
	baseRate := float64(c.N) / c.Horizon
	t := 0.0
	for i := 0; i < c.N; i++ {
		// Thinning: local rate in [0.5, 1.5]·base, period = horizon/2.
		for {
			t += rng.ExpFloat64() / (1.5 * baseRate)
			local := 1 + 0.5*math.Sin(4*math.Pi*t/c.Horizon)
			if rng.Float64() <= local/1.5 {
				break
			}
		}
		span := c.SpanMin + rng.Float64()*(c.SpanMax-c.SpanMin)
		w := c.WorkMin + rng.Float64()*(c.WorkMax-c.WorkMin)
		in.Jobs = append(in.Jobs, job.Job{
			ID: i, Release: t, Deadline: t + span, Work: w,
			Value: c.value(rng, pm, w, span),
		})
	}
	in.Normalize()
	return in
}

// Bursty releases jobs in tight clusters: quiet gaps punctuated by
// bursts of simultaneous arrivals, stressing the multiprocessor
// dedicated/pool transitions of Figure 2.
func Bursty(c Config) *job.Instance {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	pm := power.Model{Alpha: c.Alpha}
	in := &job.Instance{M: c.M, Alpha: c.Alpha}
	t := 0.0
	i := 0
	for i < c.N {
		t += rng.ExpFloat64() * c.Horizon / 5
		burst := 1 + rng.Intn(2*c.M+2)
		for b := 0; b < burst && i < c.N; b++ {
			span := c.SpanMin + rng.Float64()*(c.SpanMax-c.SpanMin)
			w := c.WorkMin + rng.Float64()*(c.WorkMax-c.WorkMin)
			in.Jobs = append(in.Jobs, job.Job{
				ID: i, Release: t, Deadline: t + span, Work: w,
				Value: c.value(rng, pm, w, span),
			})
			i++
		}
	}
	in.Normalize()
	return in
}

// HeavyTail draws Poisson arrivals with Pareto-distributed workloads
// (shape Config.TailIndex, scale WorkMin): most jobs are small, a few
// are enormous. This is the large-trace stress shape for the replay
// engine — elephant jobs create deep nesting for YDS's critical
// intervals and long pending queues for the online planners. Works are
// capped at 50× WorkMax so a single draw cannot dwarf the instance.
func HeavyTail(c Config) *job.Instance {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	pm := power.Model{Alpha: c.Alpha}
	in := &job.Instance{M: c.M, Alpha: c.Alpha}
	rate := float64(c.N) / c.Horizon
	t := 0.0
	for i := 0; i < c.N; i++ {
		t += rng.ExpFloat64() / rate
		span := c.SpanMin + rng.Float64()*(c.SpanMax-c.SpanMin)
		w := c.WorkMin * math.Pow(1-rng.Float64(), -1/c.TailIndex)
		if lim := 50 * c.WorkMax; w > lim {
			w = lim
		}
		in.Jobs = append(in.Jobs, job.Job{
			ID: i, Release: t, Deadline: t + span, Work: w,
			Value: c.value(rng, pm, w, span),
		})
	}
	in.Normalize()
	return in
}

// Fleet draws k independent instances from the same configuration with
// derived seeds — the unit of work Registry.ReplayAll consumes. The
// generator is any of the Config-driven functions in this package.
func Fleet(gen func(Config) *job.Instance, c Config, k int) []*job.Instance {
	out := make([]*job.Instance, k)
	for i := range out {
		ci := c
		ci.Seed = c.Seed + int64(i)*2654435761 // Fibonacci-hash stride decorrelates seeds
		out[i] = gen(ci)
	}
	return out
}

// LowerBound builds the adversarial instance from the proof of
// Theorem 3 (originally Bansal, Kimbrel & Pruhs for OA): job j arrives
// at time j-1 with workload (n-j+1)^{-1/α} and common deadline n.
// Values are infinite so PD finishes everything; its cost then
// approaches α^α times the optimum as n grows.
func LowerBound(n int, alpha float64) *job.Instance {
	in := &job.Instance{M: 1, Alpha: alpha}
	for j := 1; j <= n; j++ {
		in.Jobs = append(in.Jobs, job.Job{
			ID: j - 1, Release: float64(j - 1), Deadline: float64(n),
			Work: math.Pow(float64(n-j+1), -1/alpha), Value: math.Inf(1),
		})
	}
	return in
}

// Figure3 is the two-job single-processor example reproducing the
// PD-vs-OA structural difference of Figure 3.
func Figure3() *job.Instance {
	return &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 2, Work: 1, Value: math.Inf(1)},
		{ID: 1, Release: 0.5, Deadline: 1, Work: 1, Value: math.Inf(1)},
	}}
}

// Figure2 is a four-processor interval snapshot mirroring Figure 2.
// Before: two dedicated jobs (4.0 and 2.0) and a three-job pool at
// speed 1.35. The arrival of job 5 (work 1.9) lifts the pool average
// above 2.0, so the formerly dedicated job 1 is absorbed into the pool
// — exactly the structural transition the paper's figure illustrates.
func Figure2() (before, after *job.Instance) {
	mk := func(extra bool) *job.Instance {
		in := &job.Instance{M: 4, Alpha: 2, Jobs: []job.Job{
			{ID: 0, Release: 0, Deadline: 1, Work: 4.0, Value: math.Inf(1)},
			{ID: 1, Release: 0, Deadline: 1, Work: 2.0, Value: math.Inf(1)},
			{ID: 2, Release: 0, Deadline: 1, Work: 1.0, Value: math.Inf(1)},
			{ID: 3, Release: 0, Deadline: 1, Work: 0.9, Value: math.Inf(1)},
			{ID: 4, Release: 0, Deadline: 1, Work: 0.8, Value: math.Inf(1)},
		}}
		if extra {
			in.Jobs = append(in.Jobs, job.Job{
				ID: 5, Release: 0, Deadline: 1, Work: 1.9, Value: math.Inf(1),
			})
		}
		return in
	}
	return mk(false), mk(true)
}
