package sched

import (
	"math"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/power"
)

func instance() *job.Instance {
	return &job.Instance{
		M: 2, Alpha: 2,
		Jobs: []job.Job{
			{ID: 0, Release: 0, Deadline: 2, Work: 2, Value: 5},
			{ID: 1, Release: 0, Deadline: 1, Work: 1, Value: 3},
		},
	}
}

func feasible() *Schedule {
	return &Schedule{
		M: 2,
		Segments: []Segment{
			{Proc: 0, Job: 0, T0: 0, T1: 2, Speed: 1},
			{Proc: 1, Job: 1, T0: 0, T1: 1, Speed: 1},
		},
	}
}

func TestVerifyAcceptsFeasible(t *testing.T) {
	if err := Verify(instance(), feasible()); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
}

func TestEnergyAndCost(t *testing.T) {
	pm := power.New(2)
	s := feasible()
	if got := s.Energy(pm); math.Abs(got-3) > 1e-12 { // 2·1^2 + 1·1^2
		t.Fatalf("energy %v want 3", got)
	}
	in := instance()
	if got := s.Cost(in, pm); math.Abs(got-3) > 1e-12 {
		t.Fatalf("cost %v want 3 (no lost value)", got)
	}
}

func TestLostValueCountsUnfinished(t *testing.T) {
	in := instance()
	s := &Schedule{
		M:        2,
		Rejected: []int{1},
		Segments: []Segment{{Proc: 0, Job: 0, T0: 0, T1: 2, Speed: 1}},
	}
	if got := s.LostValue(in); got != 3 {
		t.Fatalf("lost value %v want 3", got)
	}
	if err := Verify(in, s); err != nil {
		t.Fatalf("rejecting job 1 is feasible: %v", err)
	}
}

func TestVerifyRejectsProcessorOverlap(t *testing.T) {
	s := feasible()
	s.Segments[1].Proc = 0 // both on processor 0, overlapping in time
	if err := Verify(instance(), s); err == nil {
		t.Fatal("processor overlap not detected")
	}
}

func TestVerifyRejectsParallelJob(t *testing.T) {
	in := instance()
	s := &Schedule{
		M: 2,
		Segments: []Segment{
			{Proc: 0, Job: 0, T0: 0, T1: 2, Speed: 0.5},
			{Proc: 1, Job: 0, T0: 0, T1: 2, Speed: 0.5}, // same job in parallel
		},
		Rejected: []int{1},
	}
	if err := Verify(in, s); err == nil {
		t.Fatal("parallel execution of one job not detected")
	}
}

func TestVerifyRejectsOutsideWindow(t *testing.T) {
	s := feasible()
	s.Segments[1].T1 = 1.5 // job 1's deadline is 1
	if err := Verify(instance(), s); err == nil {
		t.Fatal("execution past deadline not detected")
	}
}

func TestVerifyRejectsIncompleteWork(t *testing.T) {
	s := feasible()
	s.Segments[0].Speed = 0.5 // job 0 gets 1 of 2 units
	if err := Verify(instance(), s); err == nil {
		t.Fatal("incomplete accepted job not detected")
	}
}

func TestVerifyRejectsWorkOnRejectedJob(t *testing.T) {
	s := feasible()
	s.Rejected = []int{1} // but job 1 still has a segment
	if err := Verify(instance(), s); err == nil {
		t.Fatal("execution of rejected job not detected")
	}
}

func TestVerifyRejectsBadMetadata(t *testing.T) {
	in := instance()
	cases := map[string]func(*Schedule){
		"unknown job":      func(s *Schedule) { s.Segments[0].Job = 99 },
		"unknown rejected": func(s *Schedule) { s.Rejected = []int{99} },
		"bad processor":    func(s *Schedule) { s.Segments[0].Proc = 7 },
		"negative proc":    func(s *Schedule) { s.Segments[0].Proc = -1 },
		"negative speed":   func(s *Schedule) { s.Segments[0].Speed = -1 },
		"NaN speed":        func(s *Schedule) { s.Segments[0].Speed = math.NaN() },
		"empty duration":   func(s *Schedule) { s.Segments[0].T1 = s.Segments[0].T0 },
		"too many procs":   func(s *Schedule) { s.M = 5 },
	}
	for name, mut := range cases {
		s := feasible()
		mut(s)
		if err := Verify(in, s); err == nil {
			t.Errorf("%s: not detected", name)
		}
	}
}

// TestProcessedWork pins the work sum the reference verifier checks
// completion against.
func TestProcessedWork(t *testing.T) {
	s := feasible()
	done := processedWork(s)
	if done[0] != 2 || done[1] != 1 {
		t.Fatalf("processed %v", done)
	}
}

func TestTotalSpeedAtAndBreakpoints(t *testing.T) {
	s := feasible()
	if got := s.TotalSpeedAt(0.5); got != 2 {
		t.Fatalf("speed at 0.5: %v want 2", got)
	}
	if got := s.TotalSpeedAt(1.5); got != 1 {
		t.Fatalf("speed at 1.5: %v want 1", got)
	}
	if got := s.TotalSpeedAt(2.5); got != 0 {
		t.Fatalf("speed at 2.5: %v want 0", got)
	}
	bps := s.Breakpoints()
	want := []float64{0, 1, 2}
	if len(bps) != len(want) {
		t.Fatalf("breakpoints %v", bps)
	}
	for i := range want {
		if bps[i] != want[i] {
			t.Fatalf("breakpoints %v want %v", bps, want)
		}
	}
}

func TestRenderProfile(t *testing.T) {
	s := feasible()
	out := s.RenderProfile(24)
	if !strings.Contains(out, "peak total speed 2") {
		t.Fatalf("profile header wrong:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || len([]rune(lines[1])) != 24 {
		t.Fatalf("profile body wrong:\n%s", out)
	}
	// First half (speed 2) must use taller glyphs than second (speed 1).
	body := []rune(lines[1])
	if body[2] <= body[20] {
		t.Fatalf("sparkline not monotone with speed:\n%s", out)
	}
	empty := &Schedule{M: 1}
	if got := empty.RenderProfile(10); got != "(empty schedule)" {
		t.Fatalf("empty profile: %q", got)
	}
	// Minimum width is enforced.
	if out := s.RenderProfile(1); len([]rune(strings.Split(out, "\n")[1])) != 8 {
		t.Fatalf("width floor not applied: %q", out)
	}
}

func TestRenderGantt(t *testing.T) {
	s := feasible()
	out := s.RenderGantt(20)
	lines := strings.Split(out, "\n")
	if len(lines) != 3 { // header + 2 processors
		t.Fatalf("gantt shape wrong:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "cpu0 ") || !strings.HasPrefix(lines[2], "cpu1 ") {
		t.Fatalf("processor labels missing:\n%s", out)
	}
	// cpu0 runs job 0 for the whole horizon; cpu1 runs job 1 for the
	// first half, then idles.
	row0 := lines[1][len("cpu0  "):]
	row1 := lines[2][len("cpu1  "):]
	if strings.Contains(row0, ".") || !strings.Contains(row0, "0") {
		t.Fatalf("cpu0 row wrong: %q", row0)
	}
	if !strings.Contains(row1, "1") || !strings.Contains(row1, ".") {
		t.Fatalf("cpu1 row wrong: %q", row1)
	}
	empty := &Schedule{M: 1}
	if empty.RenderGantt(10) != "(empty schedule)" {
		t.Fatal("empty gantt wrong")
	}
}

func TestMaxSpeed(t *testing.T) {
	s := feasible()
	s.Segments[0].Speed = 7
	if s.MaxSpeed() != 7 {
		t.Fatalf("max speed %v", s.MaxSpeed())
	}
}
