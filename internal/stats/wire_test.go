package stats

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// TestHistogramWireRoundTrip pins the exactness claim the cluster's
// fleet metrics rest on: decode(encode(h)) reproduces every bucket,
// the count, the sum bits and the extremes, so a merge on the far side
// of a network hop equals a local one.
func TestHistogramWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	for i := 0; i < 10_000; i++ {
		h.Observe(rng.ExpFloat64() * 1e-3)
	}
	h.ObserveN(3.5e-6, 1234)

	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, h)
	}

	// Pointer marshal (the common struct-field case) matches too.
	b2, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("value and pointer marshal differ")
	}
}

func TestHistogramWireEmpty(t *testing.T) {
	var h Histogram
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("empty round trip diverged: %+v", got)
	}
}

// TestHistogramWireMergeExact is the end-to-end exactness argument:
// two histograms shipped through JSON and merged equal one histogram
// fed the union of observations.
func TestHistogramWireMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, union Histogram
	for i := 0; i < 5000; i++ {
		x := rng.ExpFloat64() * 1e-4
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
		union.Observe(x)
	}
	ship := func(h Histogram) Histogram {
		raw, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var out Histogram
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// Shipping is invisible: merging the decoded copies is bit-identical
	// to merging the originals locally.
	merged := ship(a)
	sb := ship(b)
	merged.Merge(&sb)
	local := a
	local.Merge(&b)
	if merged != local {
		t.Fatalf("shipped merge != local merge:\n got %+v\nwant %+v", merged, local)
	}
	// And the merge itself is exact against the union in everything
	// quantiles are computed from (buckets, count, extremes); only the
	// sum carries accumulation-order noise in its last ulps.
	mSum, uSum := merged.Sum(), union.Sum()
	merged.sum, union.sum = 0, 0
	if merged != union {
		t.Fatalf("merge != union:\n got %+v\nwant %+v", merged, union)
	}
	if d := (mSum - uSum) / uSum; d > 1e-12 || d < -1e-12 {
		t.Fatalf("sums diverged beyond accumulation-order noise: %v vs %v", mSum, uSum)
	}
	if merged.Quantile(0.99) != union.Quantile(0.99) { //schedlint:exactfloat exactness is the claim under test
		t.Fatalf("p99 diverged")
	}
}

func TestHistogramWireRefusals(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"layout", `{"layout":"log10x8","counts":[1],"sum":1,"min":1,"max":1}`},
		{"too many buckets", `{"layout":"log5x16","counts":[` + strings.Repeat("1,", 99) + `1],"sum":1,"min":1,"max":1}`},
		{"forged extremes", `{"layout":"log5x16","counts":[],"sum":0,"min":3,"max":9}`},
	}
	for _, tc := range cases {
		var h Histogram
		if err := json.Unmarshal([]byte(tc.in), &h); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}
