package repro

import (
	"context"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/chen"
	"repro/internal/cll"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/opt"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/yds"
)

// benchScale keeps the per-iteration work of the experiment benchmarks
// moderate; cmd/experiments runs the full default scale.
var benchScale = experiments.Scale{Seeds: 2, N: 24}

// --- One benchmark per table/figure (T1-T7, F2, F3) ---

func benchExperiment(b *testing.B, fn func(experiments.Scale) (*stats.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := fn(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1CertifiedRatio(b *testing.B) {
	benchExperiment(b, experiments.T1CertifiedRatio)
}

func BenchmarkT2LowerBound(b *testing.B) {
	benchExperiment(b, experiments.T2LowerBound)
}

func BenchmarkT3VsCLL(b *testing.B) {
	benchExperiment(b, experiments.T3VsCLL)
}

func BenchmarkT4Multiproc(b *testing.B) {
	benchExperiment(b, experiments.T4Multiproc)
}

func BenchmarkT5DeltaAblation(b *testing.B) {
	benchExperiment(b, experiments.T5DeltaAblation)
}

func BenchmarkT6ValueSweep(b *testing.B) {
	benchExperiment(b, experiments.T6ValueSweep)
}

func BenchmarkT7RejectionPolicy(b *testing.B) {
	benchExperiment(b, experiments.T7RejectionEquivalence)
}

func BenchmarkT8VsMultiOA(b *testing.B) {
	benchExperiment(b, experiments.T8VsMultiOA)
}

func BenchmarkT9DualTightening(b *testing.B) {
	benchExperiment(b, experiments.T9DualTightening)
}

func BenchmarkT10Latency(b *testing.B) {
	benchExperiment(b, experiments.T10Latency)
}

func BenchmarkF2ChenStructure(b *testing.B) {
	benchExperiment(b, experiments.F2ChenStructure)
}

func BenchmarkF3PDvsOA(b *testing.B) {
	benchExperiment(b, experiments.F3PDvsOA)
}

// --- Microbenchmarks of the load-bearing primitives ---

func BenchmarkPDOnlineArrivals(b *testing.B) {
	in := workload.Uniform(workload.Config{N: 100, M: 4, Alpha: 2.5, Seed: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDScalingN measures how PD's runtime scales with the number
// of jobs (the partition grows with every arrival, so per-arrival work
// is superlinear in n).
func BenchmarkPDScalingN(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		in := workload.Uniform(workload.Config{N: n, M: 4, Alpha: 2.5, Seed: 5})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPDScalingM measures sensitivity to the processor count at
// fixed n (the Chen partition and capacity inversion touch every job in
// an interval regardless of m).
func BenchmarkPDScalingM(b *testing.B) {
	for _, m := range []int{1, 4, 16, 64} {
		in := workload.Uniform(workload.Config{N: 150, M: m, Alpha: 2.5, Seed: 6})
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChenPartition(b *testing.B) {
	sys := chen.System{M: 8, Power: power.New(3)}
	items := make([]chen.Item, 32)
	for i := range items {
		items[i] = chen.Item{ID: i, Work: float64(1+i%7) * 0.37}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Partition(1, items)
	}
}

func BenchmarkChenWorkAtSpeed(b *testing.B) {
	sys := chen.System{M: 8, Power: power.New(3)}
	items := make([]chen.Item, 32)
	for i := range items {
		items[i] = chen.Item{ID: i, Work: float64(1+i%7) * 0.37}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.WorkAtSpeed(1, items, 2.5)
	}
}

func BenchmarkYDSOffline(b *testing.B) {
	in := workload.Uniform(workload.Config{N: 40, M: 1, Alpha: 2, Seed: 6, ValueScale: math.Inf(1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yds.YDS(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYDSOfflineScaling tracks the heap-based offline solver
// across trace sizes; run it together with BenchmarkYDSReference to
// measure the speedup over the seed algorithm in the same run.
func BenchmarkYDSOfflineScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		in := workload.Uniform(workload.Config{
			N: n, M: 1, Alpha: 2, Seed: 6, Horizon: float64(n) / 10, ValueScale: math.Inf(1),
		})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := yds.YDS(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkYDSReference measures the seed's O(n³)-rescan solver on the
// same instances as BenchmarkYDSOfflineScaling (n=4000 is omitted: a
// single iteration takes minutes).
func BenchmarkYDSReference(b *testing.B) {
	for _, n := range []int{100, 1000} {
		in := workload.Uniform(workload.Config{
			N: n, M: 1, Alpha: 2, Seed: 6, Horizon: float64(n) / 10, ValueScale: math.Inf(1),
		})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := yds.YDSReference(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayAll measures the parallel replay of a fleet against
// the same work done sequentially (workers=1): the ratio of the two is
// the engine's parallel speedup.
func BenchmarkReplayAll(b *testing.B) {
	fleet := workload.Fleet(workload.HeavyTail, workload.Config{
		N: 300, M: 1, Alpha: 2, Seed: 12, ValueScale: math.Inf(1),
	}, 8)
	spec := engine.Spec{Name: "oa", M: 1, Alpha: 2}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.DefaultRegistry().ReplayAll(context.Background(), fleet, spec, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRace measures the concurrent policy comparison that backs
// profsched's -algos mode and experiment T11.
func BenchmarkRace(b *testing.B) {
	in := workload.HeavyTail(workload.Config{N: 200, M: 1, Alpha: 2, Seed: 13, ValueScale: math.Inf(1)})
	specs := []engine.Spec{
		{Name: "pd", M: 1, Alpha: 2}, {Name: "oa", M: 1, Alpha: 2},
		{Name: "avr", M: 1, Alpha: 2}, {Name: "qoa", M: 1, Alpha: 2},
		{Name: "yds", M: 1, Alpha: 2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.DefaultRegistry().Race(in, specs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionPerArrival tracks the streaming hot path: one full
// arrival stream through a truly-online session per iteration,
// normalised to ns/arrival (the per-arrival replanning cost T10
// reports). The horizon scales with n so the live backlog stays
// realistic instead of growing with the trace; ns/arrival staying flat
// across the n decades is the amortized-sublinear claim, and
// allocs/op divided by n is the (amortized) allocs-per-arrival, with
// Close and verification excluded from both timer and allocation
// accounting.
//
// The pd arms replay the trace shape of schedd's pd-m4 benchmark
// (Poisson, two arrivals per time unit, α = 2.5, values at scale 1, so
// about a third of the jobs are rejected) at m = 1 and m = 4.
func BenchmarkSessionPerArrival(b *testing.B) {
	sizes := []int{1_000, 10_000, 100_000}
	for _, name := range []string{"oa", "avr", "qoa"} {
		for _, n := range sizes {
			in := workload.HeavyTail(workload.Config{
				N: n, M: 1, Alpha: 2, Seed: 17, Horizon: float64(n) / 10, ValueScale: math.Inf(1),
			})
			in.Normalize()
			benchSession(b, name, engine.Spec{Name: name, M: 1, Alpha: 2}, in)
		}
	}
	for _, m := range []int{1, 4} {
		for _, n := range sizes {
			in := workload.Poisson(workload.Config{
				N: n, M: m, Alpha: 2.5, Seed: 17, Horizon: float64(n) / 2, ValueScale: 1,
			})
			benchSession(b, fmt.Sprintf("pd-m%d", m), engine.Spec{Name: "pd", M: m, Alpha: 2.5}, in)
		}
	}
}

func benchSession(b *testing.B, arm string, spec engine.Spec, in *job.Instance) {
	n := len(in.Jobs)
	b.Run(fmt.Sprintf("%s/n=%d", arm, n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := engine.New(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, j := range in.Jobs {
				if err := p.Arrive(j); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if _, err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/arrival")
	})
}

func BenchmarkOAOnline(b *testing.B) {
	in := workload.Uniform(workload.Config{N: 60, M: 1, Alpha: 2, Seed: 7, ValueScale: math.Inf(1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yds.OA(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCLL(b *testing.B) {
	pm := power.New(2)
	in := workload.Uniform(workload.Config{N: 60, M: 1, Alpha: 2, Seed: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cll.Run(in, pm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvexSolver(b *testing.B) {
	in := workload.Uniform(workload.Config{N: 20, M: 4, Alpha: 2.5, Seed: 9, ValueScale: math.Inf(1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.SolveAccepted(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegralOPT(b *testing.B) {
	in := workload.Uniform(workload.Config{N: 8, M: 2, Alpha: 2, Seed: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Integral(in); err != nil {
			b.Fatal(err)
		}
	}
}
