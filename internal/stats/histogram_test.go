package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// bucket is one entry of the cumulative series a BucketCursor walks.
type bucket struct {
	ub  float64
	cum uint64
}

// series collects h's cumulative bucket series through its Cursor.
func series(h *Histogram) []bucket {
	var out []bucket
	for c := h.Cursor(); ; {
		ub, cum, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, bucket{ub, cum})
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("zero value must be empty")
	}
	if !math.IsNaN(h.Quantile(0.5)) || !math.IsNaN(h.Mean()) {
		t.Fatal("empty histogram must report NaN quantiles and mean")
	}
	b := series(&h)
	if len(b) != 1 || !math.IsInf(b[0].ub, 1) || b[0].cum != 0 {
		t.Fatalf("empty histogram buckets = %v, want single empty +Inf bucket", b)
	}
	if h.String() != "n=0" {
		t.Fatalf("empty String = %q", h.String())
	}
}

func TestHistogramExactAggregates(t *testing.T) {
	var h Histogram
	xs := []float64{1e-6, 3e-6, 2e-3, 0.5, 0.5, 7}
	var sum float64
	for _, x := range xs {
		h.Observe(x)
		sum += x
	}
	if h.Count() != uint64(len(xs)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(xs))
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %v, want %v", h.Sum(), sum)
	}
	if h.Min() != 1e-6 || h.Max() != 7 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-sum/6) > 1e-15 {
		t.Fatalf("mean = %v", got)
	}
}

func TestHistogramQuantileWithinOneBucket(t *testing.T) {
	// The log-bucket estimate must be within one bucket factor of the
	// true sample quantile.
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	xs := make([]float64, 5000)
	for i := range xs {
		// Log-uniform over 9 decades.
		xs[i] = math.Pow(10, -6+9*rng.Float64())
		h.Observe(xs[i])
	}
	sort.Float64s(xs)
	factor := math.Pow(10, 1.0/HistBucketsPerDecade)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		est := h.Quantile(q)
		truth := Quantile(xs, q)
		if est < truth/factor || est > truth*factor {
			t.Fatalf("q=%v: estimate %v not within factor %v of true %v", q, est, factor, truth)
		}
	}
	if h.Quantile(0) < h.Min() {
		t.Fatal("q=0 below observed min")
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("q=1 = %v, want max %v", h.Quantile(1), h.Max())
	}
}

func TestHistogramMergeIsExact(t *testing.T) {
	// Merging per-shard histograms must equal one histogram fed all
	// observations — the property that lets serve aggregate per-tenant
	// recordings and loadgen aggregate per-worker recordings.
	rng := rand.New(rand.NewSource(7))
	var whole Histogram
	parts := make([]Histogram, 4)
	for i := 0; i < 10000; i++ {
		x := math.Pow(10, -9+14*rng.Float64())
		whole.Observe(x)
		parts[i%len(parts)].Observe(x)
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Count() != whole.Count() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatal("merged aggregates differ from whole")
	}
	if math.Abs(merged.Sum()-whole.Sum()) > 1e-9*whole.Sum() {
		t.Fatalf("merged sum %v != whole sum %v", merged.Sum(), whole.Sum())
	}
	wb, mb := series(&whole), series(&merged)
	if len(wb) != len(mb) {
		t.Fatalf("bucket series lengths differ: %d vs %d", len(wb), len(mb))
	}
	for i := range wb {
		if wb[i] != mb[i] {
			t.Fatalf("bucket %d differs: %v vs %v", i, wb[i], mb[i])
		}
	}
	// Merging an empty or nil histogram is a no-op.
	before := merged.Count()
	merged.Merge(nil)
	merged.Merge(&Histogram{})
	if merged.Count() != before {
		t.Fatal("merging empty changed the histogram")
	}
}

func TestHistogramOutOfRangeAndJunk(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN()) // ignored
	if h.Count() != 0 {
		t.Fatal("NaN must be ignored")
	}
	h.Observe(-5)   // clamps to zero
	h.Observe(0)    // below range → first bucket
	h.Observe(1e99) // above range → overflow bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 1e99 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	b := series(&h)
	last := b[len(b)-1]
	if !math.IsInf(last.ub, 1) || last.cum != 3 {
		t.Fatalf("overflow bucket = %v", last)
	}
	// The overflow bucket is the +Inf terminator; it is not repeated.
	if math.IsInf(b[len(b)-2].ub, 1) {
		t.Fatalf("+Inf bucket emitted twice: %v", b)
	}
}

func TestHistogramBucketsCumulativeAndSorted(t *testing.T) {
	var h Histogram
	for _, x := range []float64{1e-6, 1e-3, 1e-3, 1, 1000} {
		h.Observe(x)
	}
	b := series(&h)
	for i := 1; i < len(b); i++ {
		if b[i].ub <= b[i-1].ub {
			t.Fatalf("bucket bounds not increasing at %d: %v", i, b)
		}
		if b[i].cum < b[i-1].cum {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, b)
		}
	}
	if b[len(b)-1].cum != h.Count() {
		t.Fatal("final cumulative count must equal total")
	}
	if !strings.Contains(h.String(), "n=5") {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramBoundaryObservations(t *testing.T) {
	// Exact bucket boundaries must never land in a bucket whose upper
	// bound equals the observation (buckets are half-open).
	var h Histogram
	for i := 0; i < histNumBuckets; i += 7 {
		x := histUpperBound(i)
		if bi := bucketOf(x); bi <= i {
			t.Fatalf("observation %v at boundary of bucket %d landed in %d", x, i, bi)
		}
		h.Observe(x)
	}
	if h.Count() == 0 {
		t.Fatal("no boundary observations recorded")
	}
}

// TestObserveNMatchesRepeatedObserve pins the batch observation: one
// ObserveN(x, n) must be indistinguishable from n Observe(x) calls —
// buckets, count, sum, extremes and quantiles.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	var batched, looped Histogram
	cases := []struct {
		x float64
		n uint64
	}{{1e-3, 7}, {2.5e-3, 1}, {0, 3}, {-1, 2}, {4.2, 1000}, {9e99, 5}}
	for _, c := range cases {
		batched.ObserveN(c.x, c.n)
		for i := uint64(0); i < c.n; i++ {
			looped.Observe(c.x)
		}
	}
	batched.ObserveN(1, 0) // n=0 must be a no-op
	batched.ObserveN(math.NaN(), 9)
	if batched != looped {
		t.Fatalf("ObserveN diverges from repeated Observe:\n%+v\nvs\n%+v", batched, looped)
	}
	if got, want := batched.String(), looped.String(); got != want {
		t.Fatalf("summary diverges: %q vs %q", got, want)
	}
}
