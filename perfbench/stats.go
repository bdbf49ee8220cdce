package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of sorted by the "exclusive" method of
// Python's statistics.quantiles: position p·(n+1), linear interpolation,
// with the bracketing index clamped to the data. Using the same method
// as the acceptance check keeps the spreads this program reports equal
// to the ones computed from its output.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	d := h - float64(j)
	return sorted[j-1] + d*(sorted[j]-sorted[j-1])
}

// dist summarizes a sample: count, median, quartiles and one tail
// percentile.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

// summarize sorts a copy of xs and reports its distribution with the
// tail taken at percentile tailP.
func summarize(xs []float64, tailP float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{
		N: len(s), P50: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		TailP: tailP, Tail: quantile(s, tailP),
	}
}

// median is the 0.5 quantile of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailPercentile picks the highest of the usual report percentiles that
// still leaves at least ten samples beyond it among n, so a tail figure
// never rests on one or two outliers. It returns 0.5 when n is too small
// for any of them.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}
