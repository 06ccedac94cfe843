package sched

import (
	"math"
	"testing"

	"repro/internal/job"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestVerifyRefusesNonFinite covers what every comparison lets through
// when a value is NaN: a NaN segment time, and NaN processed work on an
// accepted or a rejected job (Inf·0 from a window as wide as float64
// allows). Each schedule is otherwise feasible.
func TestVerifyRefusesNonFinite(t *testing.T) {
	nan := math.NaN()
	unit := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{{ID: 0, Release: 0, Deadline: 1, Work: 1, Value: 1}}}
	wide := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{{ID: 7, Release: -1e308, Deadline: 1e308, Work: 1, Value: 1}}}
	cases := []struct {
		name string
		in   *job.Instance
		s    *Schedule
		want string
	}{
		{"NaN start", unit, &Schedule{M: 1, Segments: []Segment{{T0: nan, T1: 1, Speed: 1}}},
			"sched: segment 0 has non-finite time [NaN,1)"},
		{"NaN end", unit, &Schedule{M: 1, Segments: []Segment{{T0: 0, T1: nan, Speed: 1}}},
			"sched: segment 0 has non-finite time [0,NaN)"},
		{"NaN work, accepted", wide, &Schedule{M: 1, Segments: []Segment{{Job: 7, T0: -1e308, T1: 1e308, Speed: 0}}},
			"sched: job 7 not rejected but only NaN of 1 work processed"},
		{"NaN work, rejected", wide, &Schedule{M: 1, Rejected: []int{7}, Segments: []Segment{{Job: 7, T0: -1e308, T1: 1e308, Speed: 0}}},
			"sched: rejected job 7 has NaN work processed"},
	}
	for _, c := range cases {
		if got := errText(Verify(c.in, c.s)); got != c.want {
			t.Errorf("%s: Verify = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestVerifyTieRule pins how segments that start together are ordered
// for the overlap checks: by end time, then by schedule order. The
// 5e-7-long segment sorts first, so the pair overlaps by 5e-7, inside
// the 1e-6 tolerance, whichever way the schedule lists them; sorting
// the long one first would refuse it. Segments with equal start and end
// keep schedule order, which the message shows.
func TestVerifyTieRule(t *testing.T) {
	in := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 1, Work: 1, Value: 1},
		{ID: 1, Release: 0, Deadline: 1, Work: 5e-7, Value: 1},
	}}
	long := Segment{Job: 0, T0: 0, T1: 1, Speed: 1}
	short := Segment{Job: 1, T0: 0, T1: 5e-7, Speed: 1}
	for _, segs := range [][]Segment{{long, short}, {short, long}} {
		s := &Schedule{M: 1, Segments: segs}
		if err := Verify(in, s); err != nil {
			t.Errorf("segments %v: %v", segs, err)
		}
		if err := VerifyReference(in, s); err != nil {
			t.Errorf("reference, segments %v: %v", segs, err)
		}
	}

	negZero := math.Copysign(0, -1)
	a := Segment{Job: 0, T0: negZero, T1: 1, Speed: 0.5}
	b := Segment{Job: 1, T0: 0, T1: 1, Speed: 0.5}
	in.Jobs[1].Work = 0.5
	in.Jobs[0].Work = 0.5
	for _, c := range []struct {
		segs []Segment
		want string
	}{
		{[]Segment{a, b}, "sched: overlapping segments on processor 0: [-0,1) and [0,1)"},
		{[]Segment{b, a}, "sched: overlapping segments on processor 0: [0,1) and [-0,1)"},
	} {
		s := &Schedule{M: 1, Segments: c.segs}
		if got := errText(Verify(in, s)); got != c.want {
			t.Errorf("segments %v: Verify = %s, want %s", c.segs, got, c.want)
		}
		if got := errText(VerifyReference(in, s)); got != c.want {
			t.Errorf("segments %v: reference = %s, want %s", c.segs, got, c.want)
		}
	}
}

// fuzzSchedule decodes a small instance and a schedule over it from
// bytes. Times come from a palette with ties, sub-tolerance offsets,
// -0 and non-finite values; IDs step by 0 to 2 from a base near zero or
// near either end of int's range, possibly wrapping, so the job index
// meets dense, shifted and scattered ID sets and repeated IDs, and
// segments name IDs in the gaps too. It reports whether any segment
// time is NaN and whether an ID repeats.
func fuzzSchedule(data []byte) (in *job.Instance, s *Schedule, hasNaN, repeats bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	times := [...]float64{0, 0.5, 1, 1.5, 2, 3, 4, 1e-7, 1 - 4e-7, 2 + 5e-7, 0.25, math.Copysign(0, -1),
		math.NaN(), math.Inf(1), math.Inf(-1), -1}
	speeds := [...]float64{1, 0.5, 2, 0, 1e-9, 3, -1, math.NaN(), math.Inf(1), 1e300}
	m := 1 + next()%3
	in = &job.Instance{M: m, Alpha: 2}
	n := 1 + next()%5
	id := [...]int{0, -7, math.MaxInt - 4, math.MinInt}[next()%4]
	for i := range n {
		step := next() % 3
		repeats = repeats || i > 0 && step == 0
		id += step
		r := float64(next() % 4)
		in.Jobs = append(in.Jobs, job.Job{
			ID: id, Release: r, Deadline: r + 0.5 + float64(next()%4),
			Work: [...]float64{1, 0.5, 2, 1e-7}[next()%4], Value: 1,
		})
	}
	s = &Schedule{M: m}
	switch next() % 16 {
	case 0:
		s.M = 0
	case 1:
		s.M = m + 1
	}
	ids := func() int {
		k := next() % (2 * n)
		if k >= n {
			return in.Jobs[k-n].ID + 1 // the next job's, or unknown
		}
		return in.Jobs[k].ID
	}
	for range next() % 4 {
		s.Rejected = append(s.Rejected, ids())
	}
	for range next() % 9 {
		seg := Segment{
			Proc: next()%(m+2) - 1, Job: ids(),
			T0: times[next()%len(times)], T1: times[next()%len(times)],
			Speed: speeds[next()%len(speeds)],
		}
		hasNaN = hasNaN || math.IsNaN(seg.T0) || math.IsNaN(seg.T1)
		s.Segments = append(s.Segments, seg)
	}
	return in, s, hasNaN, repeats
}

// FuzzVerifyMatchesReference: on schedules without NaN times Verify
// returns exactly the reference's verdict and message; with one it
// refuses. Where an ID repeats, only the verdicts must agree: the
// reference checks a repeated ID's segments for overlap at its first
// listing, Verify at its last, so with several faults the first one
// reported may differ.
func FuzzVerifyMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 2, 1})
	f.Add([]byte{1, 2, 0, 1, 2, 0, 1, 1, 2, 0, 0, 5, 1, 0, 4, 8, 0, 2, 1, 2, 4, 3, 0, 1, 4, 8, 2})
	f.Add([]byte{2, 4, 1, 2, 3, 1, 0, 0, 3, 0, 2, 1, 1, 0, 1, 3, 2, 0, 0, 8, 2, 0, 0, 2, 0, 3, 1, 0, 2, 3, 0, 1, 11, 2, 0})
	f.Add([]byte{0, 0, 0, 3, 3, 0, 0, 1, 1, 0, 12, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, s, hasNaN, repeats := fuzzSchedule(data)
		got, want := Verify(in, s), VerifyReference(in, s)
		switch {
		case hasNaN:
			if got == nil {
				t.Fatalf("NaN segment time accepted: %+v", s)
			}
		case repeats:
			if (got == nil) != (want == nil) {
				t.Fatalf("instance %+v\nschedule %+v\nVerify:    %s\nreference: %s", in, s, errText(got), errText(want))
			}
		case errText(got) != errText(want):
			t.Fatalf("instance %+v\nschedule %+v\nVerify:    %s\nreference: %s", in, s, errText(got), errText(want))
		}
	})
}
