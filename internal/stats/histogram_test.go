package stats

import (
	"math"
	"reflect"
	"testing"
)

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{
		nil,
		{},
		{1, 1},
		{2, 1},
		{0, math.NaN()},
		{0, math.Inf(1)},
	} {
		if _, err := NewHistogram(bounds); err == nil {
			t.Errorf("NewHistogram(%v) accepted bad bounds", bounds)
		}
	}
}

// TestHistogramBuckets pins the inclusive-upper-bound bucketing against
// hand-computed counts.
func TestHistogramBuckets(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// bucket 0: x <= 1; bucket 1: 1 < x <= 2; bucket 2: 2 < x <= 4;
	// bucket 3 (overflow): x > 4.
	for _, x := range []float64{-5, 0, 1, 1.5, 2, 2.1, 4, 4.0001, 100, math.NaN()} {
		h.Observe(x)
	}
	want := []int64{3, 2, 2, 3} // NaN lands in overflow
	if got := h.Counts(); !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
	if h.Count() != 10 {
		t.Errorf("count = %d, want 10", h.Count())
	}
}

func TestHistogramSumMean(t *testing.T) {
	h, err := NewHistogram([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 3} {
		h.Observe(x)
	}
	if h.Sum() != 6 {
		t.Errorf("sum = %v, want 6", h.Sum())
	}
	if h.Mean() != 2 {
		t.Errorf("mean = %v, want 2", h.Mean())
	}
	empty, _ := NewHistogram([]float64{1})
	if empty.Mean() != 0 {
		t.Errorf("empty mean = %v, want 0", empty.Mean())
	}
}

// TestNilHistogramObserveNoOp: Observe on a nil histogram must do
// nothing, because the MAC records into every telemetry instrument
// unconditionally and a run without telemetry leaves them nil.
func TestNilHistogramObserveNoOp(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(2) }); allocs != 0 {
		t.Errorf("nil Observe allocated %v times per call", allocs)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, _ := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 10; i++ {
		h.Observe(5) // bucket 0
	}
	for i := 0; i < 10; i++ {
		h.Observe(15) // bucket 1
	}
	// Median sits exactly at the bucket-0/bucket-1 edge.
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("median = %v, want 10", got)
	}
	if got := h.Quantile(1); got != 20 {
		t.Errorf("q1.0 = %v, want 20 (upper bound of last occupied bucket)", got)
	}
	if got := h.Quantile(0.25); got != 5 {
		t.Errorf("q0.25 = %v, want 5 (midpoint of bucket 0 under uniform assumption)", got)
	}
	empty, _ := NewHistogram([]float64{1})
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty quantile should be 0")
	}
}

// TestJainAgainstHandValues pins the fairness index against
// hand-computed values.
func TestJainAgainstHandValues(t *testing.T) {
	equal := func(n int, share float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = share
		}
		return xs
	}
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 1, 1, 1}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},           // one node monopolizes: 1/n
		{[]float64{4, 2}, (6.0 * 6) / (2 * 20)}, // (4+2)²/(2·(16+4)) = 0.9
		{nil, 1},
		{[]float64{0, 0}, 1},
		// Equal shares whose rounded sums put the raw ratio 1 and 2 ulps
		// above 1: the clamp holds the index at its bound.
		{equal(8, 601823.7211705742), 1},
		{equal(9, 594165.127112583), 1},
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); got != c.want {
			t.Errorf("JainIndex(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
