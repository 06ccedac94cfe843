package yds

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/job"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/workload"
)

// batchSession is the batch face the serving engine drives.
type batchSession interface {
	session
	ArriveBatch([]job.Job) (int, error)
}

// TestArriveBatchByteIdenticalToSequential pins the tentpole claim of
// the batched ingest path at the policy layer: feeding a trace through
// ArriveBatch under arbitrary batch boundaries — including boundaries
// that split same-release groups, the case OA's replan coalescing must
// get right — produces a schedule byte-identical to one-at-a-time
// Arrive.
func TestArriveBatchByteIdenticalToSequential(t *testing.T) {
	pm := power.New(2)
	mk := map[string]func() batchSession{
		"oa":  func() batchSession { return NewOASession() },
		"avr": func() batchSession { return NewAVRSession() },
		"qoa": func() batchSession { return NewQOASession(pm) },
	}
	for _, tc := range []struct {
		name    string
		horizon float64
		n       int
	}{
		{"spread", 120, 1200},
		{"dense-ties", 6, 800}, // many same-release groups
	} {
		in := workload.HeavyTail(workload.Config{
			N: tc.n, M: 1, Alpha: 2, Seed: 11, Horizon: tc.horizon, ValueScale: math.Inf(1),
		})
		// Quantize releases so ties are common and groups span batches.
		for i := range in.Jobs {
			in.Jobs[i].Release = math.Floor(in.Jobs[i].Release*8) / 8
			if in.Jobs[i].Deadline <= in.Jobs[i].Release {
				in.Jobs[i].Deadline = in.Jobs[i].Release + 0.125
			}
		}
		in.Normalize()
		for name, make := range mk {
			seq := make()
			for _, j := range in.Jobs {
				if err := seq.Arrive(j); err != nil {
					t.Fatalf("%s/%s: sequential arrive: %v", tc.name, name, err)
				}
			}
			want, err := seq.Close()
			if err != nil {
				t.Fatalf("%s/%s: sequential close: %v", tc.name, name, err)
			}
			for trial := 0; trial < 4; trial++ {
				rng := rand.New(rand.NewSource(int64(trial) * 977))
				bat := make()
				for lo := 0; lo < len(in.Jobs); {
					hi := lo + 1 + rng.Intn(37)
					if trial == 0 {
						hi = len(in.Jobs) // one giant batch
					}
					if hi > len(in.Jobs) {
						hi = len(in.Jobs)
					}
					n, err := bat.ArriveBatch(in.Jobs[lo:hi])
					if err != nil || n != hi-lo {
						t.Fatalf("%s/%s: batch arrive [%d,%d): n=%d err=%v", tc.name, name, lo, hi, n, err)
					}
					lo = hi
				}
				got, err := bat.Close()
				if err != nil {
					t.Fatalf("%s/%s: batch close: %v", tc.name, name, err)
				}
				assertSchedulesBitEqual(t, tc.name+"/"+name, want, got)
			}
		}
	}
}

func assertSchedulesBitEqual(t *testing.T, name string, want, got *sched.Schedule) {
	t.Helper()
	if len(want.Segments) != len(got.Segments) {
		t.Fatalf("%s: %d segments sequential vs %d batched", name, len(want.Segments), len(got.Segments))
	}
	for i := range want.Segments {
		a, b := want.Segments[i], got.Segments[i]
		if a.Proc != b.Proc || a.Job != b.Job ||
			math.Float64bits(a.T0) != math.Float64bits(b.T0) ||
			math.Float64bits(a.T1) != math.Float64bits(b.T1) ||
			math.Float64bits(a.Speed) != math.Float64bits(b.Speed) {
			t.Fatalf("%s: segment %d diverges:\nsequential %+v\nbatched    %+v", name, i, a, b)
		}
	}
}

// TestArriveBatchStopsAtFirstError pins the error contract: the batch
// applies its valid prefix and reports how much.
func TestArriveBatchStopsAtFirstError(t *testing.T) {
	s := NewOASession()
	js := []job.Job{
		{ID: 0, Release: 0, Deadline: 2, Work: 1},
		{ID: 1, Release: 1, Deadline: 3, Work: 1},
		{ID: 2, Release: 0.5, Deadline: 9, Work: 1}, // behind the frontier
		{ID: 3, Release: 2, Deadline: 9, Work: 1},
	}
	n, err := s.ArriveBatch(js)
	if n != 2 || err == nil {
		t.Fatalf("ArriveBatch = %d, %v; want 2 jobs and a release-order error", n, err)
	}
	// The session remains usable for in-order arrivals and closes clean.
	if err := s.Arrive(js[3]); err != nil {
		t.Fatalf("arrive after batch error: %v", err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSessionWholeRunBytesBounded extends the alloc guards from counts
// to bytes: a session's cumulative heap allocation over a whole run
// must track the schedule it actually emits (one chunk's worth of
// slack plus per-arrival bookkeeping), not a geometric multiple of it.
// The pre-chunking storage allocated ~5× the final schedule bytes and
// fails this bound.
func TestSessionWholeRunBytesBounded(t *testing.T) {
	pm := power.New(2)
	in := workload.HeavyTail(workload.Config{
		N: 20000, M: 1, Alpha: 2, Seed: 9, Horizon: 2000, ValueScale: math.Inf(1),
	})
	in.Normalize()
	segBytes := int(unsafe.Sizeof(sched.Segment{}))
	for name, mk := range map[string]func() session{
		"oa":  func() session { return NewOASession() },
		"avr": func() session { return NewAVRSession() },
		"qoa": func() session { return NewQOASession(pm) },
	} {
		s := mk()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, j := range in.Jobs {
			if err := s.Arrive(j); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		res, err := s.Close()
		if err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		grew := int(after.TotalAlloc - before.TotalAlloc)
		// Budget: the emitted history itself, one max-size chunk of
		// slack, and modest per-arrival bookkeeping (live set, grid,
		// scratch growth).
		budget := len(res.Segments)*segBytes + sched.SegmentChunkMax*segBytes + len(in.Jobs)*64
		if grew > budget {
			t.Errorf("%s: whole-run heap growth %d B for %d segments (budget %d B) — schedule history storage regressed",
				name, grew, len(res.Segments), budget)
		}
	}
}
