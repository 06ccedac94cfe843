// Package check verifies a served close Result against the trace that
// was sent to the daemon. It re-derives every figure from the wire
// form alone and shares no code with internal/sched, so a fault in the
// program's own verifier cannot hide a fault in the schedule.
package check

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/job"
	"repro/internal/numeric"
)

// tol is the relative slack granted on windows, overlaps and processed
// work; valueTol the relative slack on energy, lost value and cost.
const (
	tol      = 1e-6
	valueTol = 1e-9
)

// Segment, Schedule and Result mirror the close response's wire form
// (DELETE /v1/sessions/{id}), minus its wall-clock timing fields.
type Segment struct {
	Proc  int     `json:"proc"`
	Job   int     `json:"job"`
	T0    float64 `json:"t0"`
	T1    float64 `json:"t1"`
	Speed float64 `json:"speed"`
}

type Schedule struct {
	M        int       `json:"m"`
	Segments []Segment `json:"segments"`
	Rejected []int     `json:"rejected,omitempty"`
}

type Result struct {
	Policy    string   `json:"policy"`
	Schedule  Schedule `json:"schedule"`
	Energy    float64  `json:"energy"`
	LostValue float64  `json:"lostValue"`
	Cost      float64  `json:"cost"`
	Rejected  int      `json:"rejected"`
}

// Check returns the first rule r breaks on the trace in, or nil:
//   - segments lie inside their job's window, on a processor < m;
//   - no processor runs two segments at once, no job runs on two
//     processors at once;
//   - every job not rejected is processed to its full work, and
//     rejected jobs are not processed;
//   - OA rejects nothing;
//   - cost ≥ Σ_j min(v_j, w_j^α/(d_j−r_j)^{α−1}), the solo-energy lower
//     bound, checked on the cost as reported;
//   - energy recomputed as Σ(T1−T0)·speed^α matches;
//   - lost value recomputed as Σ v_j over the rejected jobs matches, and
//     cost equals energy plus lost value.
func Check(in *job.Instance, r *Result) error {
	s := &r.Schedule
	if s.M != in.M {
		return fmt.Errorf("processors: schedule has m = %d, trace has m = %d", s.M, in.M)
	}
	jobs := make(map[int]job.Job, len(in.Jobs))
	for _, j := range in.Jobs {
		jobs[j.ID] = j
	}
	rejected := make(map[int]bool, len(s.Rejected))
	for _, id := range s.Rejected {
		if _, ok := jobs[id]; !ok {
			return fmt.Errorf("rejected: job %d is not in the trace", id)
		}
		if rejected[id] {
			return fmt.Errorf("rejected: job %d listed twice", id)
		}
		rejected[id] = true
	}
	if r.Rejected != len(rejected) {
		return fmt.Errorf("rejected: count %d, but %d jobs listed", r.Rejected, len(rejected))
	}
	if r.Policy == "oa" && len(rejected) > 0 {
		return fmt.Errorf("oa: rejected %d jobs, OA finishes every job", len(rejected))
	}

	done := make(map[int]float64, len(in.Jobs))
	byProc := make(map[int][]Segment)
	byJob := make(map[int][]Segment, len(in.Jobs))
	var energy numeric.Accumulator
	for i, seg := range s.Segments {
		if !(seg.T1 > seg.T0) || !(seg.Speed >= 0) || math.IsInf(seg.Speed, 0) || math.IsInf(seg.T1, 0) || math.IsInf(seg.T0, 0) {
			return fmt.Errorf("segment %d: bad span [%v,%v) or speed %v", i, seg.T0, seg.T1, seg.Speed)
		}
		if seg.Proc < 0 || seg.Proc >= in.M {
			return fmt.Errorf("processors: segment %d on processor %d, m = %d", i, seg.Proc, in.M)
		}
		j, ok := jobs[seg.Job]
		if !ok {
			return fmt.Errorf("segment %d: job %d is not in the trace", i, seg.Job)
		}
		slack := tol * math.Max(1, j.Deadline-j.Release)
		if seg.T0 < j.Release-slack || seg.T1 > j.Deadline+slack {
			return fmt.Errorf("window: segment %d runs job %d in [%v,%v), outside [%v,%v)",
				i, seg.Job, seg.T0, seg.T1, j.Release, j.Deadline)
		}
		done[seg.Job] += (seg.T1 - seg.T0) * seg.Speed
		energy.Add((seg.T1 - seg.T0) * math.Pow(seg.Speed, in.Alpha))
		byProc[seg.Proc] = append(byProc[seg.Proc], seg)
		byJob[seg.Job] = append(byJob[seg.Job], seg)
	}
	for p, segs := range byProc {
		if err := disjoint(segs); err != nil {
			return fmt.Errorf("processor overlap: processor %d: %w", p, err)
		}
	}
	for id, segs := range byJob {
		if err := disjoint(segs); err != nil {
			return fmt.Errorf("parallel job: job %d: %w", id, err)
		}
	}

	var lost, bound numeric.Accumulator
	for _, j := range in.Jobs {
		w := done[j.ID]
		if rejected[j.ID] {
			if w > tol*j.Work {
				return fmt.Errorf("work: rejected job %d has %v work processed", j.ID, w)
			}
			lost.Add(j.Value)
		} else if w < j.Work*(1-tol) {
			return fmt.Errorf("work: job %d not rejected but only %v of %v processed", j.ID, w, j.Work)
		}
		bound.Add(math.Min(j.Value, math.Pow(j.Work, in.Alpha)/math.Pow(j.Deadline-j.Release, in.Alpha-1)))
	}

	if r.Cost < bound.Value()*(1-valueTol) {
		return fmt.Errorf("lower bound: cost %v below the solo-energy bound %v", r.Cost, bound.Value())
	}
	if !numeric.Close(energy.Value(), r.Energy, valueTol) {
		return fmt.Errorf("energy: reported %v, recomputed %v", r.Energy, energy.Value())
	}
	if math.IsInf(lost.Value(), 0) || !numeric.Close(lost.Value(), r.LostValue, valueTol) {
		return fmt.Errorf("lost value: reported %v, recomputed %v", r.LostValue, lost.Value())
	}
	if !numeric.Close(r.Cost, r.Energy+r.LostValue, valueTol) {
		return fmt.Errorf("cost: reported %v, energy plus lost value is %v", r.Cost, r.Energy+r.LostValue)
	}
	return nil
}

// disjoint reports the first pair of segments whose half-open spans
// overlap by more than tol of the earlier one's length.
func disjoint(segs []Segment) error {
	sort.Slice(segs, func(a, b int) bool { return segs[a].T0 < segs[b].T0 })
	for i := 1; i < len(segs); i++ {
		prev, cur := segs[i-1], segs[i]
		if cur.T0 < prev.T1-tol*math.Max(1, prev.T1-prev.T0) {
			return fmt.Errorf("[%v,%v) and [%v,%v) overlap", prev.T0, prev.T1, cur.T0, cur.T1)
		}
	}
	return nil
}
