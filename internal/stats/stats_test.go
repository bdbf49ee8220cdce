package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.Count() != 0 || s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 ||
		s.Min() != 0 || s.Max() != 0 || s.CI95() != 0 {
		t.Error("empty stream should be all zeros")
	}
}

func TestStreamSingle(t *testing.T) {
	var s Stream
	s.Add(3.5)
	if s.Count() != 1 || s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single-value stream: %+v", s.Summarize())
	}
	if s.Var() != 0 || s.CI95() != 0 {
		t.Error("variance/CI of one observation must be 0")
	}
}

func TestStreamKnownValues(t *testing.T) {
	var s Stream
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Sample variance with n−1 = 7: Σ(x−5)² = 32 → 32/7.
	if !almostEqual(s.Var(), 32.0/7, 1e-12) {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d, want 8", s.Count())
	}
	wantCI := 1.96 * math.Sqrt(32.0/7) / math.Sqrt(8)
	if !almostEqual(s.CI95(), wantCI, 1e-12) {
		t.Errorf("CI95 = %v, want %v", s.CI95(), wantCI)
	}
}

func TestStreamMatchesNaiveComputation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		xs := make([]float64, n)
		var s Stream
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			s.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var sq float64
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		naiveVar := sq / float64(n-1)
		return almostEqual(s.Mean(), mean, 1e-9) && almostEqual(s.Var(), naiveVar, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	var s Stream
	s.AddAll([]float64{1, 2, 3})
	str := s.Summarize().String()
	if !strings.Contains(str, "n=3") {
		t.Errorf("Summary string %q should mention the count", str)
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 1},
		{"all zero", []float64{0, 0, 0}, 1},
		{"perfectly fair", []float64{5, 5, 5, 5}, 1},
		{"single node", []float64{7}, 1},
		{"monopoly of 4", []float64{10, 0, 0, 0}, 0.25},
		{"two of four", []float64{5, 5, 0, 0}, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := JainIndex(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("JainIndex(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		j := JainIndex(xs)
		return j >= 1/float64(n)-1e-12 && j <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{-5, 15},
		{150, 50},
		{62.5, 37.5}, // interpolated between 35 and 40
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	// Input must not be mutated.
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 || unsorted[1] != 1 || unsorted[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestReservoirBelowCapacity(t *testing.T) {
	r := NewReservoir(10, rand.New(rand.NewSource(1)))
	for i := 0; i < 5; i++ {
		r.Add(float64(i))
	}
	if r.Seen() != 5 {
		t.Errorf("Seen = %d, want 5", r.Seen())
	}
	s := r.Sample()
	if len(s) != 5 {
		t.Errorf("sample size = %d, want 5 (everything kept)", len(s))
	}
	if got := r.Percentile(100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
}

func TestReservoirMinimumSize(t *testing.T) {
	r := NewReservoir(0, rand.New(rand.NewSource(1)))
	r.Add(1)
	r.Add(2)
	if len(r.Sample()) != 1 {
		t.Errorf("size-0 reservoir should clamp to 1")
	}
}

// TestReservoirUniformity: sampling 100 from 10000 sequential values, the
// sample mean must approximate the stream mean (≈ 4999.5).
func TestReservoirUniformity(t *testing.T) {
	var means float64
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(100, rand.New(rand.NewSource(int64(trial))))
		for i := 0; i < 10000; i++ {
			r.Add(float64(i))
		}
		var sum float64
		for _, v := range r.Sample() {
			sum += v
		}
		means += sum / 100
	}
	got := means / trials
	if math.Abs(got-4999.5) > 250 {
		t.Errorf("mean of reservoir means = %v, want ≈ 4999.5 (uniform sampling)", got)
	}
}

func TestSummaryScale(t *testing.T) {
	var s Stream
	s.AddAll([]float64{1000, 2000, 3000})
	scaled := s.Summarize().Scale(1e-3)
	if scaled.Mean != 2 || scaled.Min != 1 || scaled.Max != 3 {
		t.Errorf("Scale(1e-3) = %+v", scaled)
	}
	if scaled.Count != 3 {
		t.Errorf("Scale must preserve the count")
	}
	neg := s.Summarize().Scale(-1)
	if neg.Min != -3000 || neg.Max != -1000 {
		t.Errorf("negative Scale must keep Min <= Max: %+v", neg)
	}
	if neg.Std < 0 || neg.CI95 < 0 {
		t.Errorf("spread statistics must stay non-negative: %+v", neg)
	}
}
