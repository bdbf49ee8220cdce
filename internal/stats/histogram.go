package stats

// Histogram is a fixed-bucket frequency count of a scalar stream. The
// bucket layout is immutable after construction, which is what makes
// histograms mergeable across simulation shards: two histograms built
// from the same bounds combine by summing counts, with no rebinning and
// therefore no information loss beyond the shared bucket resolution
// (telemetry.Merge sums the exported records that way).
//
// Bucket i (0 ≤ i < len(bounds)) counts observations x with
// x ≤ bounds[i] and x > bounds[i-1]; one extra overflow bucket counts
// everything above the last bound. There is no underflow bucket: the
// first bucket is open below.

import (
	"fmt"
	"math"
	"sort"
)

// Histogram counts observations into fixed buckets. Create with
// NewHistogram; the zero value has no buckets and must not be used.
type Histogram struct {
	bounds []float64 // strictly increasing inclusive upper bounds
	counts []int64   // len(bounds)+1; the last entry is the overflow bucket
	n      int64
	sum    float64
}

// NewHistogram creates a histogram over the given inclusive upper
// bounds, which must be non-empty, finite and strictly increasing. The
// bounds slice is copied.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("stats: histogram bound %d is not finite: %v", i, b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("stats: histogram bounds must be strictly increasing, got %v after %v", b, bounds[i-1])
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	return h, nil
}

// Observe records one observation. NaN observations are counted in the
// overflow bucket so they remain visible rather than silently dropped.
// On a nil histogram it does nothing, so instrumented code (the MAC's
// telemetry) records unconditionally and a run without telemetry pays
// one nil check.
//
//desalint:hotpath
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x)
	// SearchFloat64s finds the first bound >= x, which is exactly the
	// inclusive-upper-bound bucket; NaN compares false and lands at
	// len(bounds), the overflow bucket.
	h.counts[i]++
	h.n++
	h.sum += x
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observation (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// Counts returns a copy of the per-bucket counts; the final entry is
// the overflow bucket.
func (h *Histogram) Counts() []int64 {
	return append([]int64(nil), h.counts...)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) assuming a uniform
// distribution within each bucket. The open-ended buckets are pinned to
// their finite edge: estimates never exceed the last bound and never
// fall below the first. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		hi := h.bounds[len(h.bounds)-1]
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		lo := hi
		if i > 0 {
			lo = h.bounds[i-1]
		} else {
			lo = 0
			if hi < 0 {
				lo = hi
			}
		}
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}
