package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/pool"
	"repro/perfbench/check"
)

// costTol is the relative slack between PD's cost as core.Run meters
// it and as the served Result reports it: the two sum the same energy
// in different orders.
const costTol = 1e-9

// reference holds, per session, what the served Result must equal:
// the compared fields of an in-process engine replay of the trace, and
// for PD the core.Run outcome with its dual certificate.
type reference struct {
	canon [][]byte
	pd    []*core.Result
}

// canonical renders the fields the differential compares — schedule,
// energy, lost value, cost, rejected count — leaving out wall-clock
// timings.
func canonical(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var r check.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return json.Marshal(&r)
}

func newReference(w spec, sessions []*session) (*reference, error) {
	ref := &reference{canon: make([][]byte, len(sessions))}
	if w.policy.Name == "pd" {
		ref.pd = make([]*core.Result, len(sessions))
	}
	err := pool.Run(len(sessions), connections, func(i int) error {
		p, err := engine.New(w.policy)
		if err != nil {
			return err
		}
		res, err := engine.Replay(sessions[i].trace, p)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", sessions[i].id, err)
		}
		if ref.canon[i], err = canonical(res); err != nil {
			return err
		}
		if ref.pd != nil {
			if ref.pd[i], err = core.Run(sessions[i].trace); err != nil {
				return fmt.Errorf("core.Run on %s: %w", sessions[i].id, err)
			}
		}
		return nil
	})
	return ref, err
}

// verify checks one served Result: the independent checker, equality
// with the in-process replay and, for PD, the certificate
// g(λ̃) ≤ cost ≤ α^α·g(λ̃) of weak duality and Theorem 3.
func (ref *reference) verify(s *session, i int, r *check.Result) error {
	if err := check.Check(s.trace, r); err != nil {
		return fmt.Errorf("session %s: checker: %w", s.id, err)
	}
	got, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ref.canon[i]) {
		return fmt.Errorf("session %s: served result differs from the in-process engine replay", s.id)
	}
	if ref.pd == nil {
		return nil
	}
	pd := ref.pd[i]
	if !numeric.Close(pd.Cost, r.Cost, costTol) {
		return fmt.Errorf("session %s: core.Run cost %v, served cost %v", s.id, pd.Cost, r.Cost)
	}
	ratio := math.Pow(s.trace.Alpha, s.trace.Alpha)
	if r.Cost < pd.Dual*(1-costTol) || r.Cost > ratio*pd.Dual*(1+costTol) {
		return fmt.Errorf("session %s: cost %v outside [g, α^α·g] = [%v, %v]", s.id, r.Cost, pd.Dual, ratio*pd.Dual)
	}
	return nil
}

// verifyAll decodes and verifies every close response, a worker per
// connection; the daemon is gone by then, so nothing timed competes.
func (ref *reference) verifyAll(sessions []*session, bodies [][]byte) error {
	return pool.Run(len(bodies), connections, func(i int) error {
		var cr closeResponse
		if err := json.Unmarshal(bodies[i], &cr); err != nil {
			return fmt.Errorf("session %s: decoding the close response: %w", sessions[i].id, err)
		}
		return ref.verify(sessions[i], i, &cr.Result)
	})
}
