package check

import (
	"math"
	"strings"
	"testing"

	"repro/internal/job"
)

// trace: two processors, α = 2. Jobs 0 and 1 run alone on their own
// processor; job 2 is worth less than its solo energy (16/2 = 8) and is
// rejected. The solo-energy lower bound is 2 + 0.5 + 0.5 = 3.
func trace() *job.Instance {
	return &job.Instance{M: 2, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 2, Work: 2, Value: 100},
		{ID: 1, Release: 0, Deadline: 2, Work: 1, Value: math.Inf(1)},
		{ID: 2, Release: 1, Deadline: 3, Work: 4, Value: 0.5},
	}}
}

func good() *Result {
	return &Result{
		Policy: "pd",
		Schedule: Schedule{M: 2, Segments: []Segment{
			{Proc: 0, Job: 0, T0: 0, T1: 2, Speed: 1},
			{Proc: 1, Job: 1, T0: 0, T1: 1, Speed: 1},
		}, Rejected: []int{2}},
		Energy: 3, LostValue: 0.5, Cost: 3.5, Rejected: 1,
	}
}

// withSegments replaces the schedule and restates energy and cost to
// match it, so the variant breaks only the structural rule it targets.
func withSegments(segs ...Segment) func(*Result) {
	return func(r *Result) {
		r.Schedule.Segments = segs
		r.Energy = 0
		for _, s := range segs {
			r.Energy += (s.T1 - s.T0) * s.Speed * s.Speed
		}
		r.Cost = r.Energy + r.LostValue
	}
}

func TestCheckAcceptsCorrectSchedule(t *testing.T) {
	if err := Check(trace(), good()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRefusesEveryBrokenVariant(t *testing.T) {
	job0 := Segment{Proc: 0, Job: 0, T0: 0, T1: 2, Speed: 1}
	for _, tc := range []struct {
		name, want string
		mutate     func(*Result)
	}{
		{"segment after deadline", "window",
			withSegments(job0, Segment{Proc: 1, Job: 1, T0: 1.5, T1: 2.5, Speed: 1})},
		{"segment before release", "window",
			withSegments(job0, Segment{Proc: 1, Job: 1, T0: 0, T1: 1, Speed: 1}, Segment{Proc: 1, Job: 2, T0: 0.5, T1: 0.75, Speed: 0})},
		{"processor index at m", "processors",
			withSegments(job0, Segment{Proc: 2, Job: 1, T0: 0, T1: 1, Speed: 1})},
		{"two segments on one processor", "processor overlap",
			withSegments(job0, Segment{Proc: 0, Job: 1, T0: 0, T1: 1, Speed: 1})},
		{"one job on two processors", "parallel job",
			withSegments(
				Segment{Proc: 0, Job: 0, T0: 0, T1: 2, Speed: 0.5},
				Segment{Proc: 1, Job: 0, T0: 1, T1: 2, Speed: 1},
				Segment{Proc: 1, Job: 1, T0: 0, T1: 1, Speed: 1})},
		{"accepted job short of its work", "work",
			withSegments(job0, Segment{Proc: 1, Job: 1, T0: 0, T1: 1, Speed: 0.5})},
		{"rejected job processed", "work",
			withSegments(job0, Segment{Proc: 1, Job: 1, T0: 0, T1: 1, Speed: 1}, Segment{Proc: 1, Job: 2, T0: 1, T1: 2, Speed: 1})},
		{"oa rejects a job", "oa",
			func(r *Result) { r.Policy = "oa" }},
		{"energy misreported", "energy",
			func(r *Result) { r.Energy += 0.1; r.Cost += 0.1 }},
		{"lost value misreported", "lost value",
			func(r *Result) { r.LostValue = 0.4; r.Cost = 3.4 }},
		{"cost is not energy plus lost value", "cost",
			func(r *Result) { r.Cost = 3.6 }},
		{"consistent figures below the lower bound", "lower bound",
			func(r *Result) { r.Energy, r.LostValue, r.Cost = 2, 0.5, 2.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := good()
			tc.mutate(r)
			err := Check(trace(), r)
			if err == nil {
				t.Fatal("broken schedule accepted")
			}
			if !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("refused for the wrong rule: %v (want %q)", err, tc.want)
			}
		})
	}
}
