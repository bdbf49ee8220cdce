// Package stats provides the streaming statistics used by the simulation
// harness: Welford mean/variance accumulators, min/max tracking, Jain's
// fairness index, and normal-approximation confidence intervals.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Stream accumulates scalar observations with Welford's online algorithm.
// The zero value is an empty stream ready to use.
type Stream struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddAll records every value in xs.
func (s *Stream) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// Count returns the number of observations.
func (s *Stream) Count() int64 { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than two
// observations).
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Stream) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval for the mean: 1.96·s/√n. It returns 0 with fewer than two
// observations.
func (s *Stream) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// Summary is a point-in-time snapshot of a Stream.
type Summary struct {
	Count     int64
	Mean, Std float64
	Min, Max  float64
	CI95      float64
}

// Summarize captures the stream's current state.
func (s *Stream) Summarize() Summary {
	return Summary{
		Count: s.n, Mean: s.mean, Std: s.Std(),
		Min: s.min, Max: s.max, CI95: s.CI95(),
	}
}

// String formats the summary as "mean ± ci [min, max] (n=count)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.Mean, s.CI95, s.Min, s.Max, s.Count)
}

// Scale returns a copy with every statistic multiplied by k (for unit
// conversion in reports, e.g. b/s → Kb/s). Negative k also swaps Min/Max
// to keep them ordered.
func (s Summary) Scale(k float64) Summary {
	out := Summary{
		Count: s.Count,
		Mean:  s.Mean * k,
		Std:   math.Abs(k) * s.Std,
		Min:   s.Min * k,
		Max:   s.Max * k,
		CI95:  math.Abs(k) * s.CI95,
	}
	if out.Min > out.Max {
		out.Min, out.Max = out.Max, out.Min
	}
	return out
}

// Reservoir keeps a fixed-size uniform random sample of a stream
// (Vitter's algorithm R), for percentile estimation over runs too long to
// retain every observation. Create with NewReservoir.
type Reservoir struct {
	sample []float64
	seen   int64
	rng    *rand.Rand
}

// NewReservoir creates a reservoir holding up to size samples, driven by
// the given random source (size minimum 1).
func NewReservoir(size int, rng *rand.Rand) *Reservoir {
	if size < 1 {
		size = 1
	}
	return &Reservoir{sample: make([]float64, 0, size), rng: rng}
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.sample) < cap(r.sample) {
		r.sample = append(r.sample, x)
		return
	}
	// Keep with probability cap/seen, replacing a uniform victim.
	if j := r.rng.Int63n(r.seen); j < int64(cap(r.sample)) {
		r.sample[j] = x
	}
}

// Seen returns how many observations were offered.
func (r *Reservoir) Seen() int64 { return r.seen }

// Sample returns a copy of the current sample.
func (r *Reservoir) Sample() []float64 {
	out := make([]float64, len(r.sample))
	copy(out, r.sample)
	return out
}

// Percentile estimates the p-th percentile from the sample.
func (r *Reservoir) Percentile(p float64) float64 {
	return Percentile(r.sample, p)
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) for the given
// allocations: 1.0 when all shares are equal, approaching 1/n when one
// node monopolizes the resource. An empty or all-zero input returns 1
// (vacuously fair). The ratio is clamped to 1, its exact upper bound:
// for equal shares the rounded sums can put it a few ulps above.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return min(sum*sum/(float64(len(xs))*sq), 1)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input.
// An empty input returns 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
