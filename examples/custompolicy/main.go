// Custompolicy: plug your own scheduler into the replay engine and
// compare it with PD on the same trace. The example policy is a naive
// greedy heuristic — accept a job iff running it alone at its density
// costs less than its value, then run everything at per-interval
// average rates on processor 0 — and the comparison shows how much the
// primal-dual machinery buys over exactly this kind of first instinct.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

// naive is an engine.Policy: solo-energy admission + AVR-style
// execution on a single processor.
type naive struct {
	pm       power.Model
	accepted []job.Job
	rejected []int
}

func (n *naive) Name() string { return "naive-greedy" }

func (n *naive) Arrive(j job.Job) error {
	solo := j.Span() * n.pm.Power(j.Density())
	if solo <= j.Value {
		n.accepted = append(n.accepted, j)
	} else {
		n.rejected = append(n.rejected, j.ID)
	}
	return nil
}

func (n *naive) Close() (*sched.Schedule, error) {
	out := &sched.Schedule{M: 1, Rejected: n.rejected}
	bset := map[float64]struct{}{}
	for _, j := range n.accepted {
		bset[j.Release] = struct{}{}
		bset[j.Deadline] = struct{}{}
	}
	bounds := make([]float64, 0, len(bset))
	for t := range bset {
		bounds = append(bounds, t)
	}
	sort.Float64s(bounds)
	for k := 0; k+1 < len(bounds); k++ {
		t0, t1 := bounds[k], bounds[k+1]
		var total float64
		var active []job.Job
		for _, j := range n.accepted {
			if j.Release <= t0 && j.Deadline >= t1 {
				active = append(active, j)
				total += j.Density()
			}
		}
		t := t0
		for _, j := range active {
			share := (t1 - t0) * j.Density() / total
			out.Segments = append(out.Segments, sched.Segment{
				Proc: 0, Job: j.ID, T0: t, T1: t + share, Speed: total,
			})
			t += share
		}
	}
	return out, nil
}

func main() {
	// Registering the policy by name makes it a first-class citizen of
	// the engine: it is constructible via engine.New(Spec), raceable
	// via Registry.Race, listed by `profsched -list`-style tables, and the
	// registry refuses specs outside its declared capabilities.
	err := engine.Register(engine.Registration{
		Name:    "naive-greedy",
		Summary: "solo-energy admission + average-rate execution",
		Caps:    engine.Caps{MinM: 1, MaxM: 1, Profit: true, Online: true},
		Build: func(spec engine.Spec) (engine.Policy, error) {
			return &naive{pm: spec.PowerModel()}, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	in := workload.Poisson(workload.Config{N: 60, M: 1, Alpha: 2, Seed: 99, ValueScale: 1.5})
	results, err := engine.DefaultRegistry().Race(in,
		engine.Spec{Name: "naive-greedy", M: 1, Alpha: 2},
		engine.Spec{Name: "pd", M: 1, Alpha: 2},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %10s %10s %10s %9s\n", "policy", "energy", "lost", "cost", "rejected")
	for _, res := range results {
		fmt.Printf("%-14s %10.3f %10.3f %10.3f %9d\n",
			res.Policy, res.Energy, res.LostValue, res.Cost, res.Rejected)
	}
	fmt.Println("\nBoth schedules pass the same independent verifier; PD's primal-dual")
	fmt.Println("water-filling beats solo-energy admission + average-rate execution.")
}
