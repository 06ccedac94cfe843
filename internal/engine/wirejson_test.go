package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSpecAppendJSON pins the hand encoder byte-identical to
// json.Marshal across the param-map and escaping corners.
func TestSpecAppendJSON(t *testing.T) {
	specs := []Spec{
		{Name: "pd", M: 1, Alpha: 2},
		{Name: "oa", M: 4, Alpha: 2.2},
		{Name: "qoa", M: 1, Alpha: 3, Params: map[string]float64{"q": 1.5}},
		{Name: "pd", M: 2, Alpha: 2, Params: map[string]float64{"delta": 0.125, "b": 2, "a": 1e-9}},
		{Name: `we"ird<name>&`, M: 1, Alpha: 1.0000001},
		{Name: "", M: 0, Alpha: 0},
		{Name: "x", M: 1, Alpha: 2, Params: map[string]float64{}},
	}
	for _, s := range specs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", s, err)
		}
		got := s.AppendJSON(nil)
		if string(got) != string(want) {
			t.Errorf("Spec%+v:\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestSnapshotAppendJSON pins the snapshot encoder byte-identical to
// json.Marshal, including the omitempty buffered flag and the float
// formats the wire uses.
func TestSnapshotAppendJSON(t *testing.T) {
	snaps := []Snapshot{
		{},
		{At: 12.5, Arrivals: 3, Pending: 2, PendingWork: 7.25, Speed: 1.5},
		{At: 1e-9, Arrivals: 1, Pending: 1, PendingWork: 1e21, Speed: 0.1},
		{At: 4, Arrivals: 10, Pending: 10, PendingWork: 100, Buffered: true},
		{At: math.MaxFloat64, Arrivals: 1 << 30, Pending: -1, PendingWork: -0.5, Speed: 3},
	}
	for _, sn := range snaps {
		want, err := json.Marshal(sn)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", sn, err)
		}
		got := sn.AppendJSON(nil)
		if string(got) != string(want) {
			t.Errorf("Snapshot%+v:\n got %s\nwant %s", sn, got, want)
		}
	}
}

// TestLiveHistory checks History tracks exactly the accepted arrivals,
// unwinding the refused suffix of a poisoned batch.
func TestLiveHistory(t *testing.T) {
	l, err := NewLive(Spec{Name: "oa", M: 1, Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	batch := []job.Job{
		{ID: 1, Release: 0, Deadline: 10, Work: 1, Value: inf},
		{ID: 2, Release: 1, Deadline: 11, Work: 2, Value: inf},
		{ID: 2, Release: 2, Deadline: 12, Work: 3, Value: inf},
	}
	n, err := l.ApplyBatch(batch)
	if err == nil || n != 2 {
		t.Fatalf("ApplyBatch = %d, %v; want 2 applied and a duplicate-ID error", n, err)
	}
	h := l.History()
	if len(h) != 2 || h[0].ID != 1 || h[1].ID != 2 {
		t.Fatalf("History after poisoned batch = %+v; want jobs 1,2", h)
	}
}

// wireClose is the close endpoint's response as encoding/json renders
// it: the shape WriteCloseJSON is pinned to.
type wireClose struct {
	ID     string  `json:"id"`
	Result *Result `json:"result"`
}

// checkClose diffs WriteCloseJSON against encoding/json on one
// response: the same bytes, or a refusal wherever encoding/json
// refuses, with nothing written.
func checkClose(t *testing.T, id string, res *Result) {
	t.Helper()
	var want, got bytes.Buffer
	werr := json.NewEncoder(&want).Encode(wireClose{id, res})
	n, gerr := WriteCloseJSON(&got, id, res)
	switch {
	case werr != nil:
		if !errors.Is(gerr, ErrUnencodable) || got.Len() != 0 || n != 0 {
			t.Fatalf("encoding/json refuses (%v); WriteCloseJSON wrote %d bytes, error %v", werr, got.Len(), gerr)
		}
	case gerr != nil:
		t.Fatalf("WriteCloseJSON refused what encoding/json encodes: %v\n%s", gerr, want.Bytes())
	case !bytes.Equal(got.Bytes(), want.Bytes()) || n != int64(got.Len()):
		t.Fatalf("close response (%d bytes reported):\n got %s\nwant %s", n, got.Bytes(), want.Bytes())
	}
}

// TestWriteCloseJSON pins the close encoder byte-identical to
// encoding/json across nil and empty lists, escaping, the float format
// cut-overs and the refusals, whose errors name the field.
func TestWriteCloseJSON(t *testing.T) {
	segs := []sched.Segment{
		{Proc: 0, Job: 1, T0: 0, T1: 1e-6, Speed: 1e21},
		{Proc: 1, Job: -2, T0: 1e-6, T1: 0.5, Speed: 1e21},
		{Proc: 3, Job: 1 << 40, T0: 0.5, T1: 999999999999999999999, Speed: math.Copysign(0, -1)},
		{Proc: 0, Job: 7, T0: math.Nextafter(1e-6, 0), T1: math.Nextafter(1e21, 0), Speed: 1.0000000000000002},
		// Neighbours one ulp apart must not share a rendering.
		{Proc: 0, Job: 8, T0: 0.75, T1: 1, Speed: 1},
		{Proc: 0, Job: 8, T0: math.Nextafter(1, 2), T1: 2, Speed: math.Nextafter(1, 2)},
	}
	full := func() *Result {
		return &Result{Policy: "pd", Schedule: &sched.Schedule{M: 4, Segments: slices.Clone(segs), Rejected: []int{3, -9}},
			Energy: 12.5, LostValue: 1e-7, Cost: 12.5000001, Rejected: 2, MaxArrive: 17, TotalArrive: 1 << 40, PlanTime: -1}
	}
	for name, res := range map[string]*Result{
		"nil result":        nil,
		"zero result":       {},
		"no schedule":       {Policy: "oa", Energy: 1},
		"nil segments":      {Schedule: &sched.Schedule{M: 1}},
		"empty segments":    {Schedule: &sched.Schedule{M: 1, Segments: []sched.Segment{}, Rejected: []int{}}},
		"full":              full(),
		"escaped policy":    {Policy: "<a href=\"x\">& \x00\xff"},
		"negative zeros":    {Energy: math.Copysign(0, -1), Cost: math.Copysign(0, -1)},
		"extreme magnitude": {Energy: math.MaxFloat64, LostValue: math.SmallestNonzeroFloat64, Cost: -1e-320},
	} {
		t.Run(name, func(t *testing.T) {
			for _, id := range []string{"", "t-1", "<script>&amp;\"\\\n\t\x7f\xc3\x28 ü"} {
				checkClose(t, id, res)
			}
		})
	}
	for _, c := range []struct {
		mut  func(*Result)
		want string
	}{
		{func(r *Result) { r.Energy = math.Inf(1) }, "energy is +Inf"},
		{func(r *Result) { r.LostValue = math.NaN() }, "lostValue is NaN"},
		{func(r *Result) { r.Cost = math.Inf(-1) }, "cost is -Inf"},
		{func(r *Result) { r.Schedule.Segments[2].T0 = math.NaN() }, "schedule segment 2 has t0 NaN"},
		{func(r *Result) { r.Schedule.Segments[3].T1 = math.Inf(1) }, "schedule segment 3 has t1 +Inf"},
		{func(r *Result) { r.Schedule.Segments[0].Speed = math.Inf(1); r.Energy = math.Inf(1) }, "schedule segment 0 has speed +Inf"},
	} {
		res := full()
		c.mut(res)
		checkClose(t, "x", res)
		if _, err := WriteCloseJSON(io.Discard, "x", res); err == nil || !strings.HasSuffix(err.Error(), c.want) {
			t.Errorf("refusal %v, want it to end in %q", err, c.want)
		}
	}
}

// chunkRecorder records the size of every write it is handed and fails
// once it has taken failAfter writes (never when failAfter is 0).
type chunkRecorder struct {
	sizes     []int
	failAfter int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	if c.failAfter > 0 && len(c.sizes) == c.failAfter {
		return 0, errors.New("client gone")
	}
	c.sizes = append(c.sizes, len(p))
	return len(p), nil
}

// bigResult is a finish-all-shaped Result with n segments that chain
// in time and repeat speeds in runs, as OA's do.
func bigResult(n int) *Result {
	segs := make([]sched.Segment, n)
	t := 0.0
	for i := range segs {
		next := t + 0.1 + float64(i%7)/3
		segs[i] = sched.Segment{Job: i / 2, T0: t, T1: next, Speed: 1 + float64(i/3)/7}
		t = next
	}
	return &Result{Policy: "oa", Schedule: &sched.Schedule{M: 1, Segments: segs}, Energy: 1, Cost: 1}
}

// TestWriteCloseJSONStreams: a Result of 10^5 segments reaches the
// writer in writes of at most 64 KiB, and a writer error stops the
// stream at that write.
func TestWriteCloseJSONStreams(t *testing.T) {
	res := bigResult(100_000)
	var rec chunkRecorder
	n, err := WriteCloseJSON(&rec, "s", res)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sz := range rec.sizes {
		if sz > closeChunk || sz == 0 {
			t.Fatalf("write of %d bytes", sz)
		}
		total += sz
	}
	if int64(total) != n || len(rec.sizes) < 50 {
		t.Fatalf("%d writes totalling %d bytes, reported %d", len(rec.sizes), total, n)
	}
	failing := chunkRecorder{failAfter: 3}
	if n, err := WriteCloseJSON(&failing, "s", res); err == nil || n != 3*closeChunk || len(failing.sizes) != 3 {
		t.Fatalf("failing writer: %d bytes in %d writes, error %v", n, len(failing.sizes), err)
	}
}

// TestWriteCloseJSONAllocs guards the streamed encoder: rendering a
// 10^5-segment Result allocates no more than rendering a 10-segment
// one (the pooled buffer is reused; nothing grows per segment).
func TestWriteCloseJSONAllocs(t *testing.T) {
	small, big := bigResult(10), bigResult(100_000)
	allocs := func(res *Result) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := WriteCloseJSON(io.Discard, "s", res); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(big); b > a || b > 1 {
		t.Fatalf("allocs per close: %v at 10 segments, %v at 10^5", a, b)
	}
}

// FuzzCloseResponseMatchesEncodingJSON diffs WriteCloseJSON against
// encoding/json on Results built from bytes: any float bits (NaN, ±Inf
// and -0 among them, and the 1e-6 and 1e21 format cut-overs from a
// palette), ids and policy names with HTML characters and invalid
// UTF-8, nil and empty segment and rejected lists, and repeated times
// and speeds as the encoder's reuse of renderings meets them.
func FuzzCloseResponseMatchesEncodingJSON(f *testing.F) {
	f.Add([]byte("\x05<id>\x02pd\x01\x03\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"))
	f.Add([]byte("\x03\xff\xfe&\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x00\x00\x02\x02\x05\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		str := func() string {
			n := min(int(next()%16), len(data))
			s := string(data[:n])
			data = data[n:]
			return s
		}
		palette := [...]float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
			-1e21, 0.1, 1, 2.5, 123456789, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324}
		var prev float64
		float := func() float64 {
			switch k := next(); {
			case k < 96:
				return prev // a repeat, as consecutive segments share t1→t0 and speeds
			case k < 192:
				prev = palette[int(k)%len(palette)]
			default:
				var bits uint64
				for range 8 {
					bits = bits<<8 | uint64(next())
				}
				prev = math.Float64frombits(bits)
			}
			return prev
		}
		id := str()
		if next()%16 == 0 {
			checkClose(t, id, nil)
			return
		}
		res := &Result{Policy: str()}
		if k := next(); k%8 != 0 {
			sc := &sched.Schedule{M: int(int8(next()))}
			switch k % 4 {
			case 1:
				sc.Segments = []sched.Segment{}
			case 2, 3:
				for range next() % 12 {
					sc.Segments = append(sc.Segments, sched.Segment{
						Proc: int(int8(next())), Job: int(int16(uint16(next())<<8 | uint16(next()))),
						T0: float(), T1: float(), Speed: float(),
					})
				}
			}
			switch k % 3 {
			case 1:
				sc.Rejected = []int{}
			case 2:
				for range next() % 5 {
					sc.Rejected = append(sc.Rejected, int(int8(next())))
				}
			}
			res.Schedule = sc
		}
		res.Energy, res.LostValue, res.Cost = float(), float(), float()
		res.Rejected = int(int8(next()))
		res.MaxArrive = time.Duration(int64(next()) << (next() % 56))
		res.TotalArrive = time.Duration(-int64(next()))
		res.PlanTime = time.Duration(next())
		checkClose(t, id, res)
	})
}

// closeShapes are the perfbench workloads' sessions at close, drawn in
// process: oa-bulk (131,072 heavy-tail arrivals, OA, every job
// finished: 262,143 segments) and pd-m4 (16,384 Poisson arrivals, PD
// on 4 processors, finite values).
var closeShapes = []struct {
	name string
	spec Spec
	gen  func(workload.Config) *job.Instance
	n    int
	rate float64
	vs   float64
}{
	{"oa-bulk", Spec{Name: "oa", M: 1, Alpha: 2}, workload.HeavyTail, 1 << 17, 10, math.Inf(1)},
	{"pd-m4", Spec{Name: "pd", M: 4, Alpha: 2.5}, workload.Poisson, 1 << 14, 2, 1},
}

// BenchmarkClose times a session's close at the perfbench shapes:
// Live.Close (the policy's close, Verify and the cost columns), and
// the close response streamed by WriteCloseJSON against
// encoding/json's whole-buffer Encode.
func BenchmarkClose(b *testing.B) {
	for _, c := range closeShapes {
		in := c.gen(workload.Config{N: c.n, M: c.spec.M, Alpha: c.spec.Alpha, Seed: 11, Horizon: float64(c.n) / c.rate, ValueScale: c.vs})
		in.Normalize()
		res, err := DefaultRegistry().Race(in, c.spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/live-close", func(b *testing.B) {
			for b.Loop() {
				b.StopTimer()
				l, err := NewLive(c.spec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := l.ApplyBatch(in.Jobs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := l.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/stream", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := WriteCloseJSON(io.Discard, "s00", res[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := json.NewEncoder(io.Discard).Encode(wireClose{"s00", res[0]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
