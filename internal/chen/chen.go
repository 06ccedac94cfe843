// Package chen implements the algorithm of Chen, Hsu, Chuang, Yang,
// Pang and Kuo (ECRTS 2004) that the paper uses as its per-interval
// substrate: given an atomic interval of length l, m speed-scalable
// processors and a work assignment (workload W_j for each job inside
// the interval), compute the energy-minimal feasible schedule.
//
// The structure (Eq. 5 and 6 of the paper) is: sort jobs by workload
// descending; a prefix of "dedicated" jobs each occupies its own
// processor at speed W_j/l, and all remaining "pool" jobs share the
// remaining processors at the common average speed. Job j (1-based in
// sorted order) is dedicated iff
//
//	j ≤ m  ∧  W_j > 0  ∧  W_j ≥ (Σ_{j'>j} W_{j'}) / (m − j).
//
// The condition has a prefix property: if it fails for j it fails for
// every j' > j (assume W_{j+1} ≥ rem_{j+1}/(m−j−1); substituting
// rem_{j+1} = rem_j − W_{j+1} gives W_{j+1} ≥ rem_j/(m−j) > W_j, a
// contradiction with the sort order). The implementation relies on it.
//
// Beyond evaluating the assignment, this package exposes the three
// operations the paper's analysis needs:
//
//   - Energy and per-job speeds (the function P_k, Eq. 6);
//   - the partial derivative ∂E/∂W_j = α·s_j^{α-1} (Proposition 1);
//   - the capacity inversion WorkAtSpeed: the workload z a *new* job
//     must receive in the interval so that its resulting speed is
//     exactly s (the primitive from which PD's water-filling is built);
//   - an explicit McNaughton wrap-around timeline realising the
//     assignment with migratory, non-parallel execution.
package chen

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/power"
	"repro/internal/sched"
)

// System couples a processor count with a power model.
type System struct {
	M     int
	Power power.Model
}

// Item is a job's workload inside one atomic interval.
type Item struct {
	ID   int
	Work float64
}

// Partition is the dedicated/pool split for one interval.
type Partition struct {
	L float64
	// Dedicated jobs, sorted by workload descending. Job i runs alone
	// on processor i at speed Dedicated[i].Work/L.
	Dedicated []Item
	// Pool jobs share the remaining processors at PoolSpeed each.
	Pool []Item
	// PoolSpeed is Σ pool work / ((m-|Dedicated|)·L); zero if no pool.
	PoolSpeed float64
}

// SortItems sorts items in place by workload descending, ties by ID:
// the order Partition and AppendTimeline work in. With distinct IDs
// the order is total, so any sort lands on the same sequence.
func SortItems(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		if a.Work != b.Work { //schedlint:exactfloat sort tie-break on values copied bit-for-bit
			if a.Work > b.Work {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// sortItems returns a sorted copy of items.
func sortItems(items []Item) []Item {
	s := make([]Item, len(items))
	copy(s, items)
	SortItems(s)
	return s
}

// Partition computes the dedicated/pool split of Eq. (5) for an
// interval of length l > 0.
func (sys System) Partition(l float64, items []Item) Partition {
	return sys.split(l, sortItems(items))
}

// split is Partition over items already in SortItems order.
func (sys System) split(l float64, sorted []Item) Partition {
	var total float64
	for _, it := range sorted {
		total += it.Work
	}
	rem := total
	d := 0
	for j := 1; j <= len(sorted) && j <= sys.M; j++ {
		w := sorted[j-1].Work
		rem -= w
		// Dedicated iff W_j·(m−j) ≥ rem; for j = m this degenerates to
		// rem ≤ 0, i.e. nothing is left over for a pool.
		if w > 0 && w*float64(sys.M-j) >= rem {
			d = j
		} else {
			rem += w
			break
		}
	}
	p := Partition{
		L:         l,
		Dedicated: sorted[:d],
		Pool:      sorted[d:],
	}
	if d < sys.M && rem > 0 {
		p.PoolSpeed = rem / (float64(sys.M-d) * l)
	}
	return p
}

// SpeedOf returns the speed at which job id runs, or 0 if absent.
func (p Partition) SpeedOf(id int) float64 {
	for _, it := range p.Dedicated {
		if it.ID == id {
			return it.Work / p.L
		}
	}
	for _, it := range p.Pool {
		if it.ID == id {
			return p.PoolSpeed
		}
	}
	return 0
}

// MinProcessorSpeed returns the speed of the slowest processor: the
// pool speed if any processor is a pool processor, otherwise the
// smallest dedicated speed (all m processors dedicated), otherwise 0.
func (sys System) MinProcessorSpeed(p Partition) float64 {
	if len(p.Dedicated) < sys.M {
		return p.PoolSpeed // possibly 0 when idle processors exist and no pool work
	}
	return p.Dedicated[len(p.Dedicated)-1].Work / p.L
}

// Energy evaluates P_k (Eq. 6): the energy of the energy-minimal
// schedule of the assignment over the interval.
func (sys System) Energy(l float64, items []Item) float64 {
	p := sys.Partition(l, items)
	var e float64
	for _, it := range p.Dedicated {
		e += l * sys.Power.Power(it.Work/l)
	}
	free := sys.M - len(p.Dedicated)
	if free > 0 && p.PoolSpeed > 0 {
		e += float64(free) * l * sys.Power.Power(p.PoolSpeed)
	}
	return e
}

// Marginal returns ∂E/∂W for the workload of job id in the interval:
// α·s^{α-1} with s the job's current speed (Proposition 1, stated per
// unit of workload rather than per unit of x_jk; the paper's
// ∂P_k/∂x_jk equals w_j times this value).
func (sys System) Marginal(p Partition, id int) float64 {
	return sys.Power.Marginal(p.SpeedOf(id))
}

// MarginalForNew returns the marginal energy cost of giving the *first*
// unit of workload to a job not yet present in the interval: α·s^{α-1}
// where s is the speed of the slowest processor (the new job starts as
// a pool job, or shares with the slowest dedicated job when all
// processors are dedicated).
func (sys System) MarginalForNew(p Partition) float64 {
	return sys.Power.Marginal(sys.MinProcessorSpeed(p))
}

// WorkAtSpeed returns the workload z ≥ 0 that a new job must be
// assigned in an interval of length l already carrying `others` so that
// the new job's speed under Partition becomes exactly s. The function
// is continuous, piecewise linear and nondecreasing in s, and zero
// whenever s is at or below the current slowest-processor speed.
//
// Derivation: fix the target speed s and let cutoff = s·l. Existing
// jobs with W > cutoff stay dedicated above the new job; all others
// join the pool. With d such dedicated jobs and P the pool workload of
// the others, the new job can absorb z = (m−d)·l·s − P as a pool job.
// If that exceeds cutoff, the new job is itself dedicated at speed s,
// i.e. z = cutoff (the leftover pool then runs strictly slower than s).
// If d ≥ m there is no capacity at level s at all.
func (sys System) WorkAtSpeed(l float64, others []Item, s float64) float64 {
	if s <= 0 {
		return 0
	}
	cutoff := s * l
	d := 0
	var pool float64
	for _, it := range others {
		if it.Work > cutoff {
			d++
		} else {
			pool += it.Work
		}
	}
	if d >= sys.M {
		return 0
	}
	z := float64(sys.M-d)*l*s - pool
	if z <= 0 {
		return 0
	}
	return math.Min(z, cutoff)
}

// Timeline realises the assignment as explicit segments over the
// original time window [t0, t1). Dedicated jobs occupy processors
// 0..d-1 for the whole interval; pool jobs are packed onto processors
// d..m-1 with McNaughton's wrap-around rule, which is feasible because
// every pool job's processing time W/PoolSpeed is strictly less than
// the interval length (its workload is strictly below the pool
// average — see the prefix-property argument above).
func (sys System) Timeline(t0, t1 float64, items []Item) []sched.Segment {
	return sys.AppendTimeline(nil, t0, t1, sortItems(items))
}

// AppendTimeline appends Timeline's segments to dst, for items already
// in SortItems order. It allocates nothing beyond dst's growth.
func (sys System) AppendTimeline(dst []sched.Segment, t0, t1 float64, sorted []Item) []sched.Segment {
	l := t1 - t0
	p := sys.split(l, sorted)
	for i, it := range p.Dedicated {
		if it.Work <= 0 {
			continue
		}
		dst = append(dst, sched.Segment{
			Proc: i, Job: it.ID, T0: t0, T1: t1, Speed: it.Work / l,
		})
	}
	if p.PoolSpeed <= 0 {
		return dst
	}
	proc := len(p.Dedicated)
	offset := 0.0 // time already filled on current pool processor
	const tiny = 1e-12
	for _, it := range p.Pool {
		if it.Work <= 0 {
			continue
		}
		dur := it.Work / p.PoolSpeed
		for dur > tiny*l && proc < sys.M {
			avail := l - offset
			if avail <= tiny*l {
				proc++
				offset = 0
				continue
			}
			take := math.Min(dur, avail)
			dst = append(dst, sched.Segment{
				Proc: proc, Job: it.ID,
				T0: t0 + offset, T1: t0 + offset + take,
				Speed: p.PoolSpeed,
			})
			dur -= take
			offset += take
		}
	}
	return dst
}
