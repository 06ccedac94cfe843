// Package interval maintains the atomic-interval partition of Section
// 2.1 of the paper: time is cut at every release time and deadline seen
// so far, yielding intervals T_k = [τ_{k-1}, τ_k) on which optimal
// schedules run at constant speeds. The partition refines online as new
// jobs arrive; per-interval payloads are split proportionally, which the
// paper shows leaves the algorithm's behaviour unchanged ("Concerning
// the Time Partitioning", Section 3).
package interval

import (
	"fmt"
	"sort"
)

// Interval is one atomic interval [T0, T1).
type Interval struct {
	T0, T1 float64
	// Load maps job ID to the workload (in work units, x_jk·w_j)
	// currently assigned to this interval.
	Load map[int]float64
}

// Len returns the interval length l_k.
func (iv *Interval) Len() float64 { return iv.T1 - iv.T0 }

// clone deep-copies the interval with loads scaled by frac.
func (iv *Interval) scaledCopy(t0, t1, frac float64) *Interval {
	cp := &Interval{T0: t0, T1: t1, Load: make(map[int]float64, len(iv.Load))}
	for id, w := range iv.Load {
		cp.Load[id] = w * frac
	}
	return cp
}

// Partition is the ordered list of atomic intervals covering the time
// horizon seen so far. The zero value is empty and ready to use.
type Partition struct {
	ivs []*Interval
}

// Len returns the number of atomic intervals.
func (p *Partition) Len() int { return len(p.ivs) }

// At returns the k-th interval (0-based).
func (p *Partition) At(k int) *Interval { return p.ivs[k] }

// All returns the intervals in time order. The slice is owned by the
// partition; callers must not mutate its structure.
func (p *Partition) All() []*Interval { return p.ivs }

// Observe inserts boundaries t0 < t1 (a job's release and deadline)
// into the partition, splitting existing intervals proportionally and
// extending coverage where [t0,t1) is not covered yet.
func (p *Partition) Observe(t0, t1 float64) error {
	if t1 <= t0 {
		return fmt.Errorf("interval: empty window [%v,%v)", t0, t1)
	}
	// Extend coverage first: boundary insertion can only split
	// intervals that exist, so a window beyond current coverage must
	// grow the partition before t0/t1 are cut in.
	p.extend(t0, t1)
	p.insertBoundary(t0)
	p.insertBoundary(t1)
	return nil
}

// insertBoundary splits the interval containing t at t. Loads are split
// in proportion to the sub-lengths, matching the paper's refinement.
func (p *Partition) insertBoundary(t float64) {
	k := sort.Search(len(p.ivs), func(i int) bool { return p.ivs[i].T1 > t })
	if k == len(p.ivs) {
		return // t at or beyond current coverage; extend handles it
	}
	iv := p.ivs[k]
	if t <= iv.T0 || t >= iv.T1 {
		return // already a boundary (or before coverage starts)
	}
	l := iv.Len()
	left := iv.scaledCopy(iv.T0, t, (t-iv.T0)/l)
	right := iv.scaledCopy(t, iv.T1, (iv.T1-t)/l)
	p.ivs = append(p.ivs, nil)
	copy(p.ivs[k+2:], p.ivs[k+1:])
	p.ivs[k] = left
	p.ivs[k+1] = right
}

// extend adds empty intervals so that [t0,t1) is fully covered.
func (p *Partition) extend(t0, t1 float64) {
	if len(p.ivs) == 0 {
		p.ivs = append(p.ivs, &Interval{T0: t0, T1: t1, Load: map[int]float64{}})
		return
	}
	first, last := p.ivs[0], p.ivs[len(p.ivs)-1]
	if t0 < first.T0 {
		head := &Interval{T0: t0, T1: first.T0, Load: map[int]float64{}}
		p.ivs = append([]*Interval{head}, p.ivs...)
	}
	if t1 > last.T1 {
		p.ivs = append(p.ivs, &Interval{T0: last.T1, T1: t1, Load: map[int]float64{}})
	}
	// A window strictly inside a gap cannot occur: intervals are
	// contiguous by construction (gaps are never created).
}

// Covering returns the indices k of all intervals with
// [T0,T1) ⊆ [t0,t1), i.e. those with c_jk = 1 for a job with window
// [t0, t1).
func (p *Partition) Covering(t0, t1 float64) []int {
	var ks []int
	for k, iv := range p.ivs {
		if iv.T0 >= t0 && iv.T1 <= t1 {
			ks = append(ks, k)
		}
	}
	return ks
}

// Boundaries returns τ_0 < τ_1 < ... < τ_N.
func (p *Partition) Boundaries() []float64 {
	if len(p.ivs) == 0 {
		return nil
	}
	bs := make([]float64, 0, len(p.ivs)+1)
	bs = append(bs, p.ivs[0].T0)
	for _, iv := range p.ivs {
		bs = append(bs, iv.T1)
	}
	return bs
}

// FromBoundaries builds a static partition from sorted unique times.
// It is used by offline algorithms that know the whole job set.
func FromBoundaries(times []float64) (*Partition, error) {
	if len(times) < 2 {
		return nil, fmt.Errorf("interval: need at least two boundaries, got %d", len(times))
	}
	p := &Partition{}
	for i := 0; i+1 < len(times); i++ {
		if times[i+1] <= times[i] {
			return nil, fmt.Errorf("interval: boundaries not strictly increasing at %d", i)
		}
		p.ivs = append(p.ivs, &Interval{T0: times[i], T1: times[i+1], Load: map[int]float64{}})
	}
	return p, nil
}

// BoundariesOf collects the sorted unique releases and deadlines of a
// set of (release, deadline) windows.
func BoundariesOf(windows [][2]float64) []float64 {
	set := make(map[float64]struct{}, 2*len(windows))
	for _, w := range windows {
		set[w[0]] = struct{}{}
		set[w[1]] = struct{}{}
	}
	out := make([]float64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}
