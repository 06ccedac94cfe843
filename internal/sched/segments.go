package sched

// SegmentList is the append-only store for an online session's emitted
// schedule history. A plain []Segment grown by append pays Go's ~1.25×
// growth factor as a geometric series: the cumulative bytes allocated
// over a long run are ~5× the final schedule size, plus a full copy of
// the history at every growth step. SegmentList instead fills fixed
// chunks that are never copied or reallocated: cumulative allocation
// equals the final size (to within one chunk), and appending is O(1)
// with no large copies. Materialize concatenates the chunks into the
// one contiguous slice a Schedule needs. The zero value is empty and
// ready to use.
type SegmentList struct {
	cur  []Segment   // chunk being filled
	full [][]Segment // filled chunks, in order
	n    int         // total segments across cur and full
}

const (
	segmentChunkMin = 1 << 10 // first chunk: keep small sessions cheap
	// SegmentChunkMax is the largest chunk a SegmentList allocates:
	// later chunks double up to it to amortize chunk bookkeeping.
	SegmentChunkMax = 1 << 18
)

// Add appends one segment.
//
//schedlint:hotpath
func (l *SegmentList) Add(s Segment) {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		size := segmentChunkMin
		for size < l.n && size < SegmentChunkMax {
			size <<= 1
		}
		l.cur = make([]Segment, 0, size) //schedlint:allowalloc amortized chunk growth, doubling to SegmentChunkMax
	}
	l.cur = append(l.cur, s)
	l.n++
}

// Len returns the number of stored segments.
func (l *SegmentList) Len() int { return l.n }

// Materialize concatenates the chunks into one contiguous slice.
func (l *SegmentList) Materialize() []Segment {
	out := make([]Segment, 0, l.n)
	for _, c := range l.full {
		out = append(out, c...)
	}
	return append(out, l.cur...)
}
