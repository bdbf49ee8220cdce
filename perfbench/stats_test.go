package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 3, 3}, [3]float64{3, 3, 3}},
	}
	for _, c := range cases {
		for i, p := range []float64{0.25, 0.5, 0.75} {
			if got := quantile(c.data, p); math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quantile(%v, %v) = %v, want %v", c.data, p, got, c.want[i])
			}
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample: want NaN")
	}
}

func TestMedianAndSummarize(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	xs := []float64{9, 8, 7, 6, 5, 4, 3, 2, 1, 10}
	d := summarize(xs, 0.9)
	if d.N != 10 || d.P50 != 5.5 || d.Q1 != 2.75 || d.Q3 != 8.25 || d.TailP != 0.9 {
		t.Errorf("summarize = %+v", d)
	}
	if xs[0] != 9 {
		t.Error("summarize sorted its input in place")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := map[int]float64{
		10000: 0.999, 9999: 0.99, 4000: 0.99, 1000: 0.99, 999: 0.95,
		300: 0.95, 199: 0.9, 135: 0.9, 100: 0.9, 99: 0.75, 50: 0.75, 40: 0.75, 39: 0.5, 3: 0.5,
	}
	for n, want := range cases {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	// Each workload's design sample count fixes its tail percentile.
	want := map[string]float64{"paper-grid": 0.9, "sparse-idle": 0.95, "large-field": 0.75, "served-mix": 0.99}
	for _, w := range workloads {
		if got := w.tailP(); got != want[w.name] {
			t.Errorf("%s: tail percentile %v, want %v", w.name, got, want[w.name])
		}
	}
}
