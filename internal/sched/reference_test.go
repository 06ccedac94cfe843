package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/job"
)

// VerifyReference is Verify as it was before the one-pass rewrite —
// maps keyed by job ID, a copied slice per processor and per job — kept
// as the oracle the differential tests and FuzzVerifyMatchesReference
// compare against. It differs from that version only where the old one
// was not deterministic: processors are checked in ascending order and
// jobs in instance order instead of map order, and segments starting at
// the same time sort by end time and then by schedule order (a stable
// sort) instead of in sort.Slice's arbitrary order, the rule Verify
// pins. It does not refuse NaN segment times, which Verify does.
func VerifyReference(in *job.Instance, s *Schedule) error {
	if s.M < 1 || s.M > in.M {
		return fmt.Errorf("sched: schedule uses %d processors, instance allows %d", s.M, in.M)
	}
	jobs := make(map[int]job.Job, len(in.Jobs))
	for _, j := range in.Jobs {
		jobs[j.ID] = j
	}
	rejected := make(map[int]bool, len(s.Rejected))
	for _, id := range s.Rejected {
		if _, ok := jobs[id]; !ok {
			return fmt.Errorf("sched: rejected job %d not in instance", id)
		}
		rejected[id] = true
	}

	byProc := make(map[int][]Segment)
	byJob := make(map[int][]Segment)
	for i, seg := range s.Segments {
		if seg.T1 <= seg.T0 {
			return fmt.Errorf("sched: segment %d has empty or negative duration [%v,%v)", i, seg.T0, seg.T1)
		}
		if seg.Speed < 0 || math.IsNaN(seg.Speed) || math.IsInf(seg.Speed, 0) {
			return fmt.Errorf("sched: segment %d has invalid speed %v", i, seg.Speed)
		}
		if seg.Proc < 0 || seg.Proc >= s.M {
			return fmt.Errorf("sched: segment %d on processor %d outside [0,%d)", i, seg.Proc, s.M)
		}
		j, ok := jobs[seg.Job]
		if !ok {
			return fmt.Errorf("sched: segment %d references unknown job %d", i, seg.Job)
		}
		slack := VerifyTol * math.Max(1, j.Span())
		if seg.T0 < j.Release-slack || seg.T1 > j.Deadline+slack {
			return fmt.Errorf("sched: segment %d runs job %d outside its window [%v,%v): [%v,%v)",
				i, seg.Job, j.Release, j.Deadline, seg.T0, seg.T1)
		}
		byProc[seg.Proc] = append(byProc[seg.Proc], seg)
		byJob[seg.Job] = append(byJob[seg.Job], seg)
	}

	for p := 0; p < s.M; p++ {
		if err := referenceNoOverlap(byProc[p], fmt.Sprintf("processor %d", p)); err != nil {
			return err
		}
	}
	for _, j := range in.Jobs {
		if err := referenceNoOverlap(byJob[j.ID], fmt.Sprintf("job %d (parallel execution)", j.ID)); err != nil {
			return err
		}
	}

	done := processedWork(s)
	for _, j := range in.Jobs {
		if rejected[j.ID] {
			if done[j.ID] > VerifyTol*j.Work {
				return fmt.Errorf("sched: rejected job %d has %v work processed", j.ID, done[j.ID])
			}
			continue
		}
		if done[j.ID] < j.Work*(1-VerifyTol) {
			return fmt.Errorf("sched: job %d not rejected but only %v of %v work processed",
				j.ID, done[j.ID], j.Work)
		}
	}
	return nil
}

func referenceNoOverlap(segs []Segment, what string) error {
	sorted := make([]Segment, len(segs))
	copy(sorted, segs)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].T0 != sorted[b].T0 {
			return sorted[a].T0 < sorted[b].T0
		}
		return sorted[a].T1 < sorted[b].T1
	})
	for i := 1; i < len(sorted); i++ {
		prev, cur := sorted[i-1], sorted[i]
		slack := VerifyTol * math.Max(1, prev.T1-prev.T0)
		if cur.T0 < prev.T1-slack {
			return fmt.Errorf("sched: overlapping segments on %s: [%v,%v) and [%v,%v)",
				what, prev.T0, prev.T1, cur.T0, cur.T1)
		}
	}
	return nil
}

// processedWork returns, per job ID, the total work s processes for it.
func processedWork(s *Schedule) map[int]float64 {
	done := make(map[int]float64)
	for _, seg := range s.Segments {
		done[seg.Job] += seg.Work()
	}
	return done
}
