package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/job"
)

func TestStreamOrderAndDueTimes(t *testing.T) {
	in := Bursty(Config{N: 30, M: 2, Alpha: 2, Seed: 9})
	s := NewStream(in, 10*time.Millisecond)
	if s.Len() != 30 || s.Remaining() != 30 {
		t.Fatalf("len/remaining = %d/%d", s.Len(), s.Remaining())
	}
	norm := in.Clone()
	norm.Normalize()
	var prevDue time.Duration
	for i, want := range norm.Jobs {
		j, due, ok := s.Next()
		if !ok {
			t.Fatalf("stream exhausted at %d", i)
		}
		if j != want {
			t.Fatalf("arrival %d = %+v, want %+v (normalized order)", i, j, want)
		}
		if due < prevDue {
			t.Fatalf("due times not monotone at %d: %v < %v", i, due, prevDue)
		}
		wantDue := time.Duration((j.Release - norm.Jobs[0].Release) * float64(10*time.Millisecond))
		if due != wantDue {
			t.Fatalf("arrival %d due = %v, want %v", i, due, wantDue)
		}
		prevDue = due
	}
	if _, _, ok := s.Next(); ok {
		t.Fatal("exhausted stream handed out another arrival")
	}
	s.Rewind()
	if s.Remaining() != 30 {
		t.Fatal("rewind did not reset")
	}
	// Determinism: two streams over the same instance agree exactly.
	a, b := NewStream(in, time.Second), NewStream(in, time.Second)
	for {
		ja, da, oka := a.Next()
		jb, db, okb := b.Next()
		if oka != okb || ja != jb || da != db {
			t.Fatal("streams over the same instance disagree")
		}
		if !oka {
			break
		}
	}
}

func TestStreamScaleZeroAndNegative(t *testing.T) {
	in := Uniform(Config{N: 10, M: 1, Alpha: 2, Seed: 1})
	for _, scale := range []time.Duration{0, -time.Second} {
		s := NewStream(in, scale)
		for {
			_, due, ok := s.Next()
			if !ok {
				break
			}
			if due != 0 {
				t.Fatalf("scale %v: due = %v, want 0", scale, due)
			}
		}
	}
}

// TestStreamIntoSessionMatchesBatchReplay is the streaming-vs-batch
// differential: playing a generated instance through workload.Stream
// into a live engine session must yield byte-identical results to
// batch engine replay of the same instance, for every generator shape
// and every online policy.
func TestStreamIntoSessionMatchesBatchReplay(t *testing.T) {
	gens := map[string]func(Config) *job.Instance{
		"uniform": Uniform, "poisson": Poisson, "bursty": Bursty, "heavytail": HeavyTail,
	}
	for genName, gen := range gens {
		in := gen(Config{N: 35, M: 1, Alpha: 2.3, Seed: 11, ValueScale: 2})
		for _, policy := range []string{"pd", "oa", "avr", "qoa"} {
			spec := engine.Spec{Name: policy, M: 1, Alpha: in.Alpha}
			batch, err := engine.DefaultRegistry().ReplayAll(context.Background(), []*job.Instance{in}, spec, 1)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", genName, policy, err)
			}
			l, err := engine.NewLive(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", genName, policy, err)
			}
			arrive := func(j job.Job) error {
				_, err := l.ApplyBatch([]job.Job{j})
				return err
			}
			if err := NewStream(in, 0).Play(context.Background(), arrive); err != nil {
				t.Fatalf("%s/%s: play: %v", genName, policy, err)
			}
			streamed, err := l.Close()
			if err != nil {
				t.Fatalf("%s/%s: close: %v", genName, policy, err)
			}
			a, b := *batch[0], *streamed
			a.MaxArrive, a.TotalArrive, a.PlanTime = 0, 0, 0
			b.MaxArrive, b.TotalArrive, b.PlanTime = 0, 0, 0
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if !bytes.Equal(aj, bj) {
				t.Fatalf("%s/%s: streamed result differs from batch replay", genName, policy)
			}
		}
	}
}

func TestStreamPlayPacesArrivals(t *testing.T) {
	// Two jobs one model-time-unit apart at 30ms per unit: the second
	// delivery must come no earlier than its due time.
	in := &job.Instance{M: 1, Alpha: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 2, Work: 1},
		{ID: 1, Release: 1, Deadline: 3, Work: 1},
	}}
	const scale = 30 * time.Millisecond
	start := time.Now()
	var stamps []time.Duration
	if err := NewStream(in, scale).Play(context.Background(), func(job.Job) error {
		stamps = append(stamps, time.Since(start))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 2 {
		t.Fatalf("delivered %d arrivals", len(stamps))
	}
	if stamps[1] < scale {
		t.Fatalf("second arrival delivered at %v, before its due time %v", stamps[1], scale)
	}
}

func TestStreamPlayStopsOnErrorAndCancel(t *testing.T) {
	in := Uniform(Config{N: 20, M: 1, Alpha: 2, Seed: 5})
	boom := errors.New("downstream refused")
	s := NewStream(in, 0)
	n := 0
	err := s.Play(context.Background(), func(job.Job) error {
		n++
		if n == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want fn error back, got %v", err)
	}
	if s.Remaining() != 20-4 {
		t.Fatalf("remaining = %d after stopping at 4", s.Remaining())
	}

	// Cancellation mid-sleep keeps the undelivered arrival.
	slow := NewStream(in, time.Hour)
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err = slow.Play(ctx, func(job.Job) error { delivered++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if slow.Remaining() != slow.Len()-delivered {
		t.Fatalf("remaining %d + delivered %d != len %d", slow.Remaining(), delivered, slow.Len())
	}
}
