// Concurrent replay: Race fans one trace across many specs and
// ReplayAll fans many traces of one spec across a bounded worker pool.
// Every run builds a fresh policy from the registry (policies are
// stateful) and works on its own clone of the instance (Replay
// clones), so results are byte-identical to the sequential path.

package engine

import (
	"context"
	"fmt"

	"repro/internal/job"
	"repro/internal/pool"
)

// Race replays the instance through a fresh policy per spec
// concurrently and returns the results in spec order. Unknown or
// incompatible specs and an invalid instance fail before anything
// runs. Failed replays leave a nil slot; their errors come back
// joined, each labelled with the policy's name.
func (r *Registry) Race(in *job.Instance, specs ...Spec) ([]*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	policies := make([]Policy, len(specs))
	for i, spec := range specs {
		p, err := r.New(spec)
		if err != nil {
			return nil, err
		}
		policies[i] = p
	}
	results := make([]*Result, len(policies))
	err := pool.Run(len(policies), 0, func(i int) error {
		res, err := Replay(in, policies[i])
		if err != nil {
			return fmt.Errorf("race %s: %w", policies[i].Name(), err)
		}
		results[i] = res
		return nil
	})
	return results, err
}

// ReplayAll replays every instance through a fresh policy built from
// the spec on at most workers goroutines (≤ 0 means GOMAXPROCS) and
// returns the results in input order. The spec is validated once up
// front, so an incompatible spec fails before any trace runs. Errors
// do not abort the batch: every instance is attempted, failed slots
// stay nil, and all errors come back joined, each labelled with its
// trace index. Once ctx is done no further traces start (in-flight
// replays finish and keep their results) and ctx's error is joined in.
func (r *Registry) ReplayAll(ctx context.Context, instances []*job.Instance, spec Spec, workers int) ([]*Result, error) {
	if err := r.Validate(spec); err != nil {
		return nil, err
	}
	results := make([]*Result, len(instances))
	err := pool.RunCtx(ctx, len(instances), workers, func(i int) error {
		p, err := r.New(spec)
		if err == nil {
			results[i], err = Replay(instances[i], p)
		}
		if err != nil {
			return fmt.Errorf("trace %d: %w", i, err)
		}
		return nil
	})
	return results, err
}
