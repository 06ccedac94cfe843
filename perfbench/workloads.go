package main

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/job"
	"repro/internal/workload"
)

// spec is one workload: the policy every session runs, how many
// sessions and arrivals, how many NDJSON lines one arrivals request
// carries, and how often a session's snapshot is read.
type spec struct {
	policy     engine.Spec
	sessions   int
	perSession int // arrivals per session
	lines      int // arrivals per request
	snapEvery  int // a snapshot after every snapEvery-th request of a session
	gen        func(c workload.Config) *job.Instance
	rate       float64 // arrivals per time unit
	value      float64 // workload.Config.ValueScale
}

var workloads = map[string]spec{
	// Few, long OA sessions in large batches: decode, WAL append, the
	// checkpoints that rewrite a session's whole history, replay and
	// the 10^5-job Result carry the cost; OA itself is cheap.
	"oa-bulk": {
		policy:   engine.Spec{Name: "oa", M: 1, Alpha: 2},
		sessions: 2, perSession: 512 * 256, lines: 256, snapEvery: 64,
		gen: workload.HeavyTail, rate: 10, value: math.Inf(1),
	},
	// PD on four processors with finite values (about a third of the
	// jobs rejected): the policy's planning, snapshot and final
	// schedule dominate.
	"pd-m4": {
		policy:   engine.Spec{Name: "pd", M: 4, Alpha: 2.5},
		sessions: 2, perSession: 512 * 32, lines: 32, snapEvery: 32,
		gen: workload.Poisson, rate: 2, value: 1,
	},
	// Many short OA sessions, one arrival per request: the per-request
	// HTTP cost and the wait for the group-commit fsync dominate.
	"oa-trickle": {
		policy:   engine.Spec{Name: "oa", M: 1, Alpha: 2},
		sessions: 32, perSession: 128, lines: 1, snapEvery: 50,
		gen: workload.HeavyTail, rate: 10, value: math.Inf(1),
	},
}

// session is one tenant's trace and its arrivals requests, encoded
// before any clock starts.
type session struct {
	id     string
	trace  *job.Instance
	bodies [][]byte
	lines  []int
}

// build draws the workload's traces from the seed: each session gets
// its own derived seed, so the same seed gives the same inputs.
func (w spec) build(seed int64) []*session {
	cfg := workload.Config{
		N: w.perSession, M: w.policy.M, Alpha: w.policy.Alpha, Seed: seed,
		Horizon: float64(w.perSession) / w.rate, ValueScale: w.value,
	}
	traces := workload.Fleet(w.gen, cfg, w.sessions)
	out := make([]*session, len(traces))
	for i, in := range traces {
		s := &session{id: fmt.Sprintf("s%02d", i), trace: in}
		for lo := 0; lo < len(in.Jobs); lo += w.lines {
			hi := min(lo+w.lines, len(in.Jobs))
			s.bodies = append(s.bodies, job.AppendNDJSON(nil, in.Jobs[lo:hi]))
			s.lines = append(s.lines, hi-lo)
		}
		out[i] = s
	}
	return out
}
