package sched_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/workload"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// replayed is a policy's verified schedule with the instance it ran on.
type replayed struct {
	name string
	in   *job.Instance
	s    *sched.Schedule
}

// policyResults replays a value-model trace through every registry
// policy that supports m processors (opt on a trace small enough to
// enumerate) and returns each verified schedule with its instance.
func policyResults(t *testing.T, m int) []replayed {
	t.Helper()
	var out []replayed
	reg := engine.DefaultRegistry()
	for _, r := range reg.All() {
		if m < r.Caps.MinM || (r.Caps.MaxM > 0 && m > r.Caps.MaxM) {
			continue
		}
		n := 60
		if r.Name == "opt" {
			n = 7
		}
		in := workload.Poisson(workload.Config{N: n, M: m, Alpha: 2.5, Seed: int64(10*m + n), Horizon: 20, ValueScale: 0.6})
		in.Normalize()
		res, err := reg.Race(in, engine.Spec{Name: r.Name, M: m, Alpha: in.Alpha})
		if err != nil {
			t.Fatalf("%s m=%d: %v", r.Name, m, err)
		}
		out = append(out, replayed{r.Name, in, res[0].Schedule})
	}
	return out
}

// mutants returns single-fault variants of a feasible schedule, each
// named by the constraint it breaks.
func mutants(in *job.Instance, s *sched.Schedule) map[string]*sched.Schedule {
	out := map[string]*sched.Schedule{}
	mutate := func(name string, f func(c *sched.Schedule) bool) {
		c := &sched.Schedule{M: s.M, Segments: slices.Clone(s.Segments), Rejected: slices.Clone(s.Rejected)}
		if f(c) {
			out[name] = c
		}
	}
	window := map[int]job.Job{}
	maxID := 0
	for _, j := range in.Jobs {
		window[j.ID] = j
		maxID = max(maxID, j.ID)
	}
	// The segment carrying the largest share of its job's work.
	big, share := -1, 0.0
	for i, seg := range s.Segments {
		if f := seg.Work() / window[seg.Job].Work; f > share {
			big, share = i, f
		}
	}
	if big < 0 {
		return out
	}
	mutate("processor overlap", func(c *sched.Schedule) bool {
		c.Segments = slices.Insert(c.Segments, big+1, c.Segments[big])
		return true
	})
	mutate("parallel job", func(c *sched.Schedule) bool {
		seg := c.Segments[big]
		for q := 0; q < c.M; q++ {
			free := q != seg.Proc
			for _, o := range c.Segments {
				if o.Proc == q && o.T0 < seg.T1 && seg.T0 < o.T1 {
					free = false
				}
			}
			if free {
				seg.Proc = q
				c.Segments = append(c.Segments, seg)
				return true
			}
		}
		return false
	})
	mutate("outside window", func(c *sched.Schedule) bool {
		c.Segments[big].T1 = window[c.Segments[big].Job].Deadline + 1
		return true
	})
	mutate("short work", func(c *sched.Schedule) bool {
		c.Segments[big].Speed /= 2
		return true
	})
	mutate("rejected with work", func(c *sched.Schedule) bool {
		c.Rejected = append(c.Rejected, c.Segments[big].Job)
		return true
	})
	mutate("unknown job", func(c *sched.Schedule) bool {
		c.Segments[len(c.Segments)-1].Job = maxID + 1000
		return true
	})
	mutate("unknown rejected job", func(c *sched.Schedule) bool {
		c.Rejected = append(c.Rejected, maxID+1000)
		return true
	})
	mutate("unknown processor", func(c *sched.Schedule) bool {
		c.Segments[big].Proc = c.M
		return true
	})
	for name, v := range map[string]float64{"negative": -1, "NaN": math.NaN(), "infinite": math.Inf(1)} {
		mutate(name+" speed", func(c *sched.Schedule) bool {
			c.Segments[big].Speed = v
			return true
		})
	}
	return out
}

// TestVerifyMatchesReferenceOnPolicies: every registry policy's
// schedule at m ∈ {1, 2, 4} passes both verifiers, and each
// single-fault mutant of it is refused by both with the same message.
func TestVerifyMatchesReferenceOnPolicies(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		for _, r := range policyResults(t, m) {
			t.Run(fmt.Sprintf("%s/m=%d", r.name, m), func(t *testing.T) {
				if err := sched.Verify(r.in, r.s); err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if err := sched.VerifyReference(r.in, r.s); err != nil {
					t.Fatalf("reference: %v", err)
				}
				muts := mutants(r.in, r.s)
				if m > 1 && muts["parallel job"] == nil {
					t.Errorf("no idle processor to run a job in parallel")
				}
				for fault, c := range muts {
					want := sched.VerifyReference(r.in, c)
					if want == nil {
						t.Errorf("%s: mutant accepted by the reference", fault)
						continue
					}
					if got := sched.Verify(r.in, c); errText(got) != errText(want) {
						t.Errorf("%s:\n Verify:    %s\n reference: %s", fault, errText(got), errText(want))
					}
				}
			})
		}
	}
}

// closeShapes replays the two perfbench workloads' session shapes in
// process: oa-bulk (131,072 heavy-tail arrivals, OA, every job
// finished) and pd-m4 (16,384 Poisson arrivals, PD on 4 processors,
// finite values).
func closeShapes(b *testing.B) []replayed {
	b.Helper()
	var out []replayed
	for _, c := range []struct {
		name string
		spec engine.Spec
		gen  func(workload.Config) *job.Instance
		n    int
		rate float64
		vs   float64
	}{
		{"oa-bulk", engine.Spec{Name: "oa", M: 1, Alpha: 2}, workload.HeavyTail, 1 << 17, 10, math.Inf(1)},
		{"pd-m4", engine.Spec{Name: "pd", M: 4, Alpha: 2.5}, workload.Poisson, 1 << 14, 2, 1},
	} {
		in := c.gen(workload.Config{N: c.n, M: c.spec.M, Alpha: c.spec.Alpha, Seed: 11, Horizon: float64(c.n) / c.rate, ValueScale: c.vs})
		res, err := engine.DefaultRegistry().Race(in, c.spec)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, replayed{c.name, in, res[0].Schedule})
	}
	return out
}

// BenchmarkVerify times Verify and the reference on a whole session's
// schedule at the perfbench workloads' close shapes.
func BenchmarkVerify(b *testing.B) {
	for _, c := range closeShapes(b) {
		for _, arm := range []struct {
			name   string
			verify func(*job.Instance, *sched.Schedule) error
		}{{"verify", sched.Verify}, {"reference", sched.VerifyReference}} {
			b.Run(c.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if err := arm.verify(c.in, c.s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
