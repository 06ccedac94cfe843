// The latency histogram shared by the serving daemon's /metrics
// endpoint and the load generator's report: fixed log-spaced buckets,
// so two histograms recorded independently (per tenant, per process)
// merge exactly, bucket by bucket, with no resampling.

package stats

import (
	"fmt"
	"math"
)

// The fixed bucket layout: HistBucketsPerDecade buckets per decade
// from histMin upward. With 5 per decade each bucket spans a factor of
// 10^0.2 ≈ 1.58× — quantile estimates are off by at most that factor,
// plenty for latency reporting. The range covers 1ns … ~10^7s when
// observations are in seconds, but the histogram is unit-agnostic:
// anything below the range lands in the first bucket, anything above
// in the overflow bucket, and Sum/Count/Min/Max stay exact.
const (
	HistBucketsPerDecade = 5
	histMin              = 1e-9
	histDecades          = 16
	histNumBuckets       = HistBucketsPerDecade * histDecades
)

// Histogram counts observations into fixed log-spaced buckets. The
// zero value is ready to use. Histogram is not synchronized; callers
// recording from multiple goroutines must hold their own lock.
type Histogram struct {
	// counts[i] counts observations in bucket i; the trailing slot is
	// the overflow bucket for observations beyond the layout's range.
	counts [histNumBuckets + 1]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(x float64) int {
	if x < histMin {
		return 0
	}
	i := int(math.Floor(math.Log10(x/histMin) * HistBucketsPerDecade))
	if i < 0 {
		i = 0
	}
	if i >= histNumBuckets {
		return histNumBuckets // overflow
	}
	// Floating-point log can land one bucket off at exact boundaries;
	// nudge so x < upperBound(i) always holds.
	if x >= histUpperBound(i) {
		i++
		if i >= histNumBuckets {
			return histNumBuckets
		}
	}
	return i
}

// histUpperBound returns the exclusive upper bound of bucket i.
func histUpperBound(i int) float64 {
	if i >= histNumBuckets {
		return math.Inf(1)
	}
	return histMin * math.Pow(10, float64(i+1)/HistBucketsPerDecade)
}

// Observe records one observation. NaN is ignored; negative values
// count as zero (first bucket) so a clock hiccup cannot poison the
// layout-invariant merge.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	h.counts[bucketOf(x)]++
	h.count++
	h.sum += x
	if h.count == 1 || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
}

// ObserveN records n identical observations in O(1): one bucket
// bump of n instead of n bumps. The serving daemon uses it to charge a
// batch's amortized per-arrival latency to every arrival in the batch
// without paying one histogram update per job.
func (h *Histogram) ObserveN(x float64, n uint64) {
	if n == 0 || math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	h.counts[bucketOf(x)] += n
	wasEmpty := h.count == 0
	h.count += n
	h.sum += x * float64(n)
	if wasEmpty || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
}

// Merge folds o into h, bucket by bucket. Because every Histogram
// shares one fixed layout, the merge is exact: Merge then Quantile
// equals recording all observations into a single histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the exact mean (NaN when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.count)
}

// Min and Max return the exact extremes (zero when empty).
func (h *Histogram) Min() float64 { return h.min }
func (h *Histogram) Max() float64 { return h.max }

// HistQuantile estimates the q-th quantile from the buckets: the upper
// bound of the bucket holding the q-th observation, clamped to the
// exact observed [Min, Max]. The estimate is within one bucket width
// (a factor of 10^(1/HistBucketsPerDecade)) of the true quantile.
// Returns NaN when empty; q is clamped to [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			ub := histUpperBound(i)
			// Clamp: the bucket bound can overshoot the true extremes.
			return math.Min(math.Max(ub, h.min), h.max)
		}
	}
	return h.max
}

// BucketCursor walks the cumulative nonempty buckets plus the +Inf
// terminator in upper-bound order — the `le` series of a Prometheus
// histogram. Empty buckets are skipped (cumulative counts make them
// redundant), so the series stays short however wide the fixed layout
// is. The cursor is a plain value the caller keeps on its stack, so
// hot render paths pay zero allocations.
type BucketCursor struct {
	h          *Histogram
	i          int
	cum        uint64
	emittedInf bool
}

// Cursor returns a bucket cursor positioned before the first nonempty
// bucket.
func (h *Histogram) Cursor() BucketCursor { return BucketCursor{h: h} }

// Next returns the next cumulative bucket, or ok=false when the
// series (including the +Inf terminator) is exhausted.
func (c *BucketCursor) Next() (ub float64, cum uint64, ok bool) {
	for c.i < len(c.h.counts) {
		i := c.i
		c.i++
		cnt := c.h.counts[i]
		if cnt == 0 {
			continue
		}
		c.cum += cnt
		ub = histUpperBound(i)
		if math.IsInf(ub, 1) {
			c.emittedInf = true
		}
		return ub, c.cum, true
	}
	if !c.emittedInf {
		c.emittedInf = true
		return math.Inf(1), c.cum, true
	}
	return 0, 0, false
}

// String renders a compact one-line summary for reports.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}
