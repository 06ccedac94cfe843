// Hand-rolled encoders for the engine wire types. A session-open
// record in the WAL carries the Spec, a checkpoint carries the Spec
// plus the Snapshot taken at the cut, and the close endpoint answers
// with the final Result. Each is pinned byte-identical to
// encoding/json (tests diff them field-combination by
// field-combination, and a fuzzer diffs close responses), so a log
// written by the hot path decodes with plain encoding/json on the cold
// recovery path, the recovery integrity check — replayed-state
// snapshot vs the snapshot stored at checkpoint time — can be a byte
// compare instead of a float-by-float tolerance argument, and a
// client sees the same close bytes whichever encoder wrote them.

package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/job"
	"repro/internal/sched"
)

// AppendJSON appends the spec's JSON encoding to dst, byte-identical
// to json.Marshal: fields in declaration order, params omitted when
// empty and rendered with sorted keys (json.Marshal's map order).
func (s Spec) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"name":`...)
	dst = job.AppendString(dst, s.Name)
	dst = append(dst, `,"m":`...)
	dst = strconv.AppendInt(dst, int64(s.M), 10)
	dst = append(dst, `,"alpha":`...)
	dst = job.AppendFloat(dst, s.Alpha)
	if len(s.Params) > 0 {
		dst = append(dst, `,"params":{`...)
		keys := make([]string, 0, len(s.Params))
		for k := range s.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = job.AppendString(dst, k)
			dst = append(dst, ':')
			dst = job.AppendFloat(dst, s.Params[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// AppendJSON appends the snapshot's JSON encoding to dst,
// byte-identical to json.Marshal (buffered carries omitempty, so a
// false value vanishes exactly as the reflective encoder drops it).
func (sn Snapshot) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"at":`...)
	dst = job.AppendFloat(dst, sn.At)
	dst = append(dst, `,"arrivals":`...)
	dst = strconv.AppendInt(dst, int64(sn.Arrivals), 10)
	dst = append(dst, `,"pending":`...)
	dst = strconv.AppendInt(dst, int64(sn.Pending), 10)
	dst = append(dst, `,"pendingWork":`...)
	dst = job.AppendFloat(dst, sn.PendingWork)
	dst = append(dst, `,"speed":`...)
	dst = job.AppendFloat(dst, sn.Speed)
	if sn.Buffered {
		dst = append(dst, `,"buffered":true`...)
	}
	return append(dst, '}')
}

// ErrUnencodable marks a Result that JSON cannot carry: a NaN or
// infinite float, which encoding/json refuses too.
var ErrUnencodable = errors.New("engine: result cannot be encoded as JSON")

// closeChunk bounds each write of a streamed close response.
const closeChunk = 64 << 10

// closeBufs holds the render buffers of streamed close responses,
// sized for one chunk plus the segment that crosses it.
var closeBufs = sync.Pool{New: func() any { b := make([]byte, 0, closeChunk+1<<10); return &b }}

// WriteCloseJSON writes the close endpoint's response for res,
// {"id":…,"result":…} and a newline, to w. The bytes are identical to
// json.NewEncoder(w).Encode of a struct holding id under the tag "id"
// and res (a *Result) under "result". Before writing anything it
// checks every float in res and refuses one that JSON cannot carry
// with an error wrapping ErrUnencodable that names the field, as
// encoding/json would refuse it. It renders into a pooled buffer and
// hands w chunks of at most 64 KiB, so the whole response is never
// held in memory. It returns the number of bytes w accepted and stops
// at w's first error.
func WriteCloseJSON(w io.Writer, id string, res *Result) (int64, error) {
	if err := res.checkJSON(); err != nil {
		return 0, err
	}
	bp := closeBufs.Get().(*[]byte)
	defer closeBufs.Put(bp)
	// Growth past the pooled capacity (a long id) stays local: the
	// pool keeps only the original buffer.
	st := closeStream{w: w}
	b := append((*bp)[:0], `{"id":`...)
	b = job.AppendString(b, id)
	b = append(b, `,"result":`...)
	if res == nil {
		st.spill(append(b, "null}\n"...), true)
		return st.n, st.err
	}
	b = append(b, `{"policy":`...)
	b = job.AppendString(b, res.Policy)
	if sc := res.Schedule; sc != nil {
		b = append(b, `,"schedule":{"m":`...)
		b = strconv.AppendInt(b, int64(sc.M), 10)
		b = append(b, `,"segments":`...)
		if sc.Segments == nil {
			b = append(b, "null"...)
		} else {
			b = append(st.segments(append(b, '['), sc.Segments), ']')
		}
		if len(sc.Rejected) > 0 {
			b = append(b, `,"rejected":[`...)
			for i, id := range sc.Rejected {
				if i > 0 {
					b = append(b, ',')
				}
				b = st.spill(strconv.AppendInt(b, int64(id), 10), false)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	b = append(b, `,"energy":`...)
	b = job.AppendFloat(b, res.Energy)
	b = append(b, `,"lostValue":`...)
	b = job.AppendFloat(b, res.LostValue)
	b = append(b, `,"cost":`...)
	b = job.AppendFloat(b, res.Cost)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendInt(b, int64(res.Rejected), 10)
	b = append(b, `,"maxArrive":`...)
	b = strconv.AppendInt(b, int64(res.MaxArrive), 10)
	b = append(b, `,"totalArrive":`...)
	b = strconv.AppendInt(b, int64(res.TotalArrive), 10)
	b = append(b, `,"planTime":`...)
	b = strconv.AppendInt(b, int64(res.PlanTime), 10)
	st.spill(append(b, "}}\n"...), true)
	return st.n, st.err
}

// checkJSON returns the first float of r, in document order, that
// JSON cannot carry.
func (r *Result) checkJSON() error {
	if r == nil {
		return nil
	}
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	if sc := r.Schedule; sc != nil {
		for i := range sc.Segments {
			seg := &sc.Segments[i]
			for _, f := range [...]struct {
				name string
				v    float64
			}{{"t0", seg.T0}, {"t1", seg.T1}, {"speed", seg.Speed}} {
				if bad(f.v) {
					return fmt.Errorf("%w: schedule segment %d has %s %v", ErrUnencodable, i, f.name, f.v)
				}
			}
		}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"energy", r.Energy}, {"lostValue", r.LostValue}, {"cost", r.Cost}} {
		if bad(f.v) {
			return fmt.Errorf("%w: %s is %v", ErrUnencodable, f.name, f.v)
		}
	}
	return nil
}

// closeStream is a close response on its way to a writer.
type closeStream struct {
	w   io.Writer
	n   int64 // bytes w accepted
	err error // w's first error
}

// spill writes every full chunk of b to w, and with final the rest
// too, and returns what is left, moved to the front of b. After a
// write error it writes nothing more.
func (st *closeStream) spill(b []byte, final bool) []byte {
	for st.err == nil && (len(b) >= closeChunk || final && len(b) > 0) {
		k := min(len(b), closeChunk)
		n, err := st.w.Write(b[:k])
		st.n += int64(n)
		st.err = err
		b = b[:copy(b, b[k:])]
	}
	return b
}

// segments appends the segment list's elements to b, spilling full
// chunks as it goes. A segment's t0 almost always repeats the previous
// segment's t1, and its speed often repeats the previous speed; a
// repeated value copies the previous rendering instead of formatting
// the float again, which is most of the cost per segment.
//
//schedlint:hotpath
func (st *closeStream) segments(b []byte, segs []sched.Segment) []byte {
	var t, v floatMemo
	for i := range segs {
		seg := &segs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"proc":`...)
		b = strconv.AppendInt(b, int64(seg.Proc), 10)
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, int64(seg.Job), 10)
		b = append(b, `,"t0":`...)
		b = t.append(b, seg.T0)
		b = append(b, `,"t1":`...)
		b = t.append(b, seg.T1)
		b = append(b, `,"speed":`...)
		b = v.append(b, seg.Speed)
		b = append(b, '}')
		if len(b) >= closeChunk {
			if b = st.spill(b, false); st.err != nil {
				return b
			}
		}
	}
	return b
}

// floatMemo remembers the last float it rendered, by its bits, so the
// same bits render by copying. Equal bits give equal text, so the
// output is unchanged.
type floatMemo struct {
	bits uint64
	n    int
	text [32]byte // the longest float64 rendering is 25 bytes
}

func (m *floatMemo) append(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if m.n > 0 && bits == m.bits {
		return append(dst, m.text[:m.n]...)
	}
	k := len(dst)
	dst = job.AppendFloat(dst, f)
	m.bits, m.n = bits, copy(m.text[:], dst[k:])
	return dst
}
