// Package sched provides the explicit schedule representation shared by
// every algorithm in this repository, together with an independent
// feasibility verifier and exact energy metering.
//
// A schedule is a set of segments: job j runs on processor p during
// [T0, T1) at constant speed s. Because optimal schedules for the
// paper's model are piecewise constant on atomic intervals, this
// representation is lossless. The verifier re-checks, from scratch, the
// model constraints of Section 2: at most one job per processor at a
// time, each job on at most one processor at a time, work only inside
// [r_j, d_j), and accepted jobs fully processed.
package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/job"
	"repro/internal/numeric"
	"repro/internal/power"
)

// VerifyTol is the relative tolerance the verifier grants on workload
// completion and segment overlap. Exact algorithms (PD, YDS, OA) land
// far inside it; simulated baselines with numeric integration (BKP,
// qOA) need the slack.
const VerifyTol = 1e-6

// Segment is one maximal piece of constant-speed execution. The JSON
// tags are the stable wire names schedules use on the serving API.
type Segment struct {
	Proc  int     `json:"proc"`  // processor index, 0 ≤ Proc < M
	Job   int     `json:"job"`   // job ID
	T0    float64 `json:"t0"`    // start time (inclusive)
	T1    float64 `json:"t1"`    // end time (exclusive)
	Speed float64 `json:"speed"` // constant speed ≥ 0
}

// Work returns the work processed in the segment.
func (s Segment) Work() float64 { return (s.T1 - s.T0) * s.Speed }

// Schedule is a complete output of a scheduling algorithm.
type Schedule struct {
	M        int       `json:"m"`                  // number of processors
	Segments []Segment `json:"segments"`           // executed work
	Rejected []int     `json:"rejected,omitempty"` // IDs of jobs the algorithm chose not to finish
}

// Energy returns the total energy of the schedule under the power model.
func (s *Schedule) Energy(pm power.Model) float64 {
	var acc numeric.Accumulator
	for _, seg := range s.Segments {
		acc.Add(pm.Energy(seg.Speed, seg.T1-seg.T0))
	}
	return acc.Value()
}

// LostValue returns the summed value of jobs in the instance that the
// schedule does not finish (processed work < w_j up to tolerance).
func (s *Schedule) LostValue(in *job.Instance) float64 {
	idx := indexJobs(in.Jobs)
	done := make([]float64, len(in.Jobs))
	for i := range s.Segments {
		if p, ok := idx.pos(s.Segments[i].Job); ok {
			done[p] += s.Segments[i].Work()
		}
	}
	var lost float64
	for i, j := range in.Jobs {
		if done[idx.owner(in.Jobs, i)] < j.Work*(1-VerifyTol) {
			lost += j.Value
		}
	}
	return lost
}

// Cost returns energy plus lost value — Eq. (1) of the paper.
func (s *Schedule) Cost(in *job.Instance, pm power.Model) float64 {
	return s.Energy(pm) + s.LostValue(in)
}

// MaxSpeed returns the largest speed any processor uses.
func (s *Schedule) MaxSpeed() float64 {
	var m float64
	for _, seg := range s.Segments {
		m = math.Max(m, seg.Speed)
	}
	return m
}

// TotalSpeedAt returns the summed speed over all processors at time t
// (used to render speed profiles for the figure experiments).
func (s *Schedule) TotalSpeedAt(t float64) float64 {
	var sum float64
	for _, seg := range s.Segments {
		if seg.T0 <= t && t < seg.T1 {
			sum += seg.Speed
		}
	}
	return sum
}

// Breakpoints returns the sorted unique segment boundaries.
func (s *Schedule) Breakpoints() []float64 {
	set := map[float64]struct{}{}
	for _, seg := range s.Segments {
		set[seg.T0] = struct{}{}
		set[seg.T1] = struct{}{}
	}
	out := make([]float64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}

// Verify checks the schedule against the instance and returns the first
// violated model constraint, or nil if the schedule is feasible.
//
// It makes one pass over the segments, addressing jobs by their position
// in the instance, then checks overlaps processor by processor and job
// by job over segment indices grouped by a counting sort. A group's
// segments are ordered by start time, ties by end time and then by their
// place in the schedule, so the verdict does not depend on how the
// schedule lists segments that start together. Nothing is formatted
// unless a constraint fails.
func Verify(in *job.Instance, s *Schedule) error {
	if s.M < 1 || s.M > in.M {
		return fmt.Errorf("sched: schedule uses %d processors, instance allows %d", s.M, in.M)
	}
	idx := indexJobs(in.Jobs)
	rejected := make([]bool, len(in.Jobs))
	for _, id := range s.Rejected {
		p, ok := idx.pos(id)
		if !ok {
			return fmt.Errorf("sched: rejected job %d not in instance", id)
		}
		rejected[p] = true
	}

	segs := s.Segments
	jobOf := make([]int32, len(segs)) // position of each segment's job
	done := make([]float64, len(in.Jobs))
	perProc := make([]int32, s.M+1)
	perJob := make([]int32, len(in.Jobs)+1)
	for i := range segs {
		seg := &segs[i]
		if seg.T1 <= seg.T0 {
			return fmt.Errorf("sched: segment %d has empty or negative duration [%v,%v)", i, seg.T0, seg.T1)
		}
		if seg.Speed < 0 || math.IsNaN(seg.Speed) || math.IsInf(seg.Speed, 0) {
			return fmt.Errorf("sched: segment %d has invalid speed %v", i, seg.Speed)
		}
		if seg.Proc < 0 || seg.Proc >= s.M {
			return fmt.Errorf("sched: segment %d on processor %d outside [0,%d)", i, seg.Proc, s.M)
		}
		p, ok := idx.pos(seg.Job)
		if !ok {
			return fmt.Errorf("sched: segment %d references unknown job %d", i, seg.Job)
		}
		j := &in.Jobs[p]
		slack := VerifyTol * math.Max(1, j.Span())
		if seg.T0 < j.Release-slack || seg.T1 > j.Deadline+slack {
			return fmt.Errorf("sched: segment %d runs job %d outside its window [%v,%v): [%v,%v)",
				i, seg.Job, j.Release, j.Deadline, seg.T0, seg.T1)
		}
		// Every comparison above is false for a NaN time.
		if !finite(seg.T0) || !finite(seg.T1) {
			return fmt.Errorf("sched: segment %d has non-finite time [%v,%v)", i, seg.T0, seg.T1)
		}
		jobOf[i] = p
		done[p] += seg.Work()
		perProc[seg.Proc+1]++
		perJob[p+1]++
	}

	order := make([]int32, len(segs))
	group(order, perProc, func(i int) int32 { return int32(segs[i].Proc) })
	for p := range s.M {
		if a, b := overlap(segs, order[perProc[p]:perProc[p+1]]); a != nil {
			return overlapError(fmt.Sprintf("processor %d", p), a, b)
		}
	}
	group(order, perJob, func(i int) int32 { return jobOf[i] })
	for p := range in.Jobs {
		if run := order[perJob[p]:perJob[p+1]]; len(run) > 1 {
			if a, b := overlap(segs, run); a != nil {
				return overlapError(fmt.Sprintf("job %d (parallel execution)", in.Jobs[p].ID), a, b)
			}
		}
	}

	// Written so that NaN processed work fails them.
	for i, j := range in.Jobs {
		p := idx.owner(in.Jobs, i)
		if rejected[p] {
			// PD resets a rejected job's assignment to zero; any
			// residual execution indicates a bookkeeping bug.
			if !(done[p] <= VerifyTol*j.Work) {
				return fmt.Errorf("sched: rejected job %d has %v work processed", j.ID, done[p])
			}
			continue
		}
		if !(done[p] >= j.Work*(1-VerifyTol)) {
			return fmt.Errorf("sched: job %d not rejected but only %v of %v work processed",
				j.ID, done[p], j.Work)
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// jobIndex maps job IDs to positions in an instance's job list; a
// repeated ID maps to its last listing. Traces number their jobs
// densely (0..n-1, or a shifted range), and then the index is a slice
// by ID, a fraction of a map lookup's cost; IDs spread over more than
// twice as many values as there are jobs fall back to a map.
type jobIndex struct {
	lo       int
	dense    []int32 // position+1 by ID-lo; 0 where no job has the ID
	sparse   map[int]int32
	distinct int // number of distinct IDs
}

func indexJobs(jobs []job.Job) *jobIndex {
	x := &jobIndex{}
	if len(jobs) == 0 {
		return x
	}
	lo, hi := jobs[0].ID, jobs[0].ID
	for _, j := range jobs {
		lo, hi = min(lo, j.ID), max(hi, j.ID)
	}
	if span := uint(hi) - uint(lo); span < 2*uint(len(jobs)) {
		x.lo, x.dense = lo, make([]int32, span+1)
		for i, j := range jobs {
			if x.dense[j.ID-lo] == 0 {
				x.distinct++
			}
			x.dense[j.ID-lo] = int32(i) + 1
		}
		return x
	}
	x.sparse = make(map[int]int32, len(jobs))
	for i, j := range jobs {
		x.sparse[j.ID] = int32(i)
	}
	x.distinct = len(x.sparse)
	return x
}

// pos returns the position of the job with the given ID.
func (x *jobIndex) pos(id int) (int32, bool) {
	if x.sparse != nil {
		p, ok := x.sparse[id]
		return p, ok
	}
	if k := uint(id) - uint(x.lo); k < uint(len(x.dense)) && x.dense[k] > 0 {
		return x.dense[k] - 1, true
	}
	return 0, false
}

// owner returns the position that accounts for jobs[i]: its own,
// unless its ID is listed again later, where the last listing holds
// the ID's work and rejection, as a map keyed by job ID would.
func (x *jobIndex) owner(jobs []job.Job, i int) int32 {
	if x.distinct == len(jobs) {
		return int32(i)
	}
	p, _ := x.pos(jobs[i].ID)
	return p
}

// group counting-sorts segment indices by key. On entry start[k+1]
// holds the number of segments with key k; on return start[k] is where
// key k's run begins in order, and each run lists its segments in
// schedule order.
func group(order, start []int32, key func(i int) int32) {
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	next := slices.Clone(start[:len(start)-1])
	for i := range order {
		k := key(i)
		order[next[k]] = int32(i)
		next[k]++
	}
}

// overlap sorts a run of segment indices by start time, ties by end
// time and then by index, and returns the first adjacent pair that
// overlaps by more than the tolerance relative to the earlier
// segment's length, or nil.
func overlap(segs []Segment, run []int32) (prev, cur *Segment) {
	byStart := func(a, b int32) int {
		sa, sb := &segs[a], &segs[b]
		switch {
		case sa.T0 < sb.T0:
			return -1
		case sa.T0 > sb.T0:
			return 1
		case sa.T1 < sb.T1:
			return -1
		case sa.T1 > sb.T1:
			return 1
		}
		return int(a - b)
	}
	slices.SortFunc(run, byStart)
	for i := 1; i < len(run); i++ {
		prev, cur := &segs[run[i-1]], &segs[run[i]]
		slack := VerifyTol * math.Max(1, prev.T1-prev.T0)
		if cur.T0 < prev.T1-slack {
			return prev, cur
		}
	}
	return nil, nil
}

func overlapError(what string, prev, cur *Segment) error {
	return fmt.Errorf("sched: overlapping segments on %s: [%v,%v) and [%v,%v)",
		what, prev.T0, prev.T1, cur.T0, cur.T1)
}
