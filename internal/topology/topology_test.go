package topology

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(5).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{N: 1, Radius: 1, Rings: 3},
		{N: 5, Radius: 0, Rings: 3},
		{N: 5, Radius: 1, Rings: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestTotalNodes(t *testing.T) {
	tests := []struct {
		n, rings, want int
	}{
		{3, 3, 27},
		{5, 3, 45},
		{8, 3, 72},
		{4, 1, 4},
		{2, 2, 8},
	}
	for _, tt := range tests {
		cfg := Config{N: tt.n, Radius: 1, Rings: tt.rings}
		if got := cfg.TotalNodes(); got != tt.want {
			t.Errorf("TotalNodes(N=%d rings=%d) = %d, want %d", tt.n, tt.rings, got, tt.want)
		}
	}
}

func TestGenerateRingStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{3, 5, 8} {
		topo, err := Generate(rng, DefaultConfig(n))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if len(topo.Positions) != 9*n {
			t.Fatalf("N=%d: %d positions, want %d", n, len(topo.Positions), 9*n)
		}
		// Ring membership by construction order: N inner, 3N middle, 5N outer.
		for i, pos := range topo.Positions {
			d := pos.Dist(geom.Point{})
			var lo, hi float64
			switch {
			case i < n:
				lo, hi = 0, 1
			case i < 4*n:
				lo, hi = 1, 2
			default:
				lo, hi = 2, 3
			}
			if d < lo || d > hi {
				t.Errorf("N=%d node %d at distance %v, want [%v, %v]", n, i, d, lo, hi)
			}
		}
		if topo.InnerCount() != n || topo.MiddleCount() != 3*n {
			t.Errorf("counts: inner %d middle %d", topo.InnerCount(), topo.MiddleCount())
		}
	}
}

func TestGenerateMeetsConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{3, 5, 8} {
		for trial := 0; trial < 5; trial++ {
			topo, err := Generate(rng, DefaultConfig(n))
			if err != nil {
				t.Fatalf("N=%d: %v", n, err)
			}
			if err := topo.CheckConstraints(); err != nil {
				t.Errorf("N=%d trial %d: %v", n, trial, err)
			}
		}
	}
}

func TestCheckConstraintsRejectsBadTopologies(t *testing.T) {
	// Inner node with zero neighbors.
	topo := &Topology{
		N: 2, Radius: 1, Rings: 2,
		Positions: []geom.Point{
			{X: 0, Y: 0}, {X: 0.5, Y: 0}, // inner pair: degree fine
			{X: 1.5, Y: 0}, {X: -1.5, Y: 0}, {X: 0, Y: 1.5}, {X: 0, Y: -1.5},
			{X: 1.2, Y: 1.2}, {X: -1.2, Y: -1.2},
		},
	}
	if err := topo.CheckConstraints(); err != nil {
		t.Logf("constraint status: %v (expected valid or invalid per geometry)", err)
	}
	isolated := &Topology{
		N: 2, Radius: 1, Rings: 1,
		Positions: []geom.Point{{X: 0, Y: 0}, {X: 0.9, Y: 0}},
	}
	// Each inner node has 1 neighbor < 2 → invalid.
	if err := isolated.CheckConstraints(); err == nil {
		t.Error("degree-1 inner nodes should violate constraints")
	}
	crowded := &Topology{
		N: 2, Radius: 1, Rings: 1,
		Positions: []geom.Point{
			{X: 0, Y: 0}, {X: 0.1, Y: 0}, {X: 0.2, Y: 0}, {X: 0.3, Y: 0},
		},
	}
	// N=2 → inner degree cap 2N−2 = 2, but these have 3.
	crowded.N = 4 // all four are inner
	crowded.Positions = crowded.Positions[:4]
	if err := crowded.CheckConstraints(); err != nil {
		// N=4: cap is 6, degree 3 ok, min 2 ok → valid.
		t.Errorf("crowded line should be valid for N=4: %v", err)
	}
}

func TestDegreesSymmetric(t *testing.T) {
	topo := &Topology{
		N: 3, Radius: 1, Rings: 1,
		Positions: []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 2, Y: 0}},
	}
	deg := topo.Degrees()
	if deg[0] != 1 || deg[1] != 1 || deg[2] != 0 {
		t.Errorf("Degrees = %v, want [1 1 0]", deg)
	}
	nb := topo.Neighbors(0)
	if len(nb) != 1 || nb[0] != 1 {
		t.Errorf("Neighbors(0) = %v, want [1]", nb)
	}
	if topo.Neighbors(2) != nil {
		t.Errorf("Neighbors(2) = %v, want none", topo.Neighbors(2))
	}
}

func TestUniformInAnnulus(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const samples = 100000
	// Full disk: the fraction within radius 0.5 must be 0.25.
	within := 0
	for i := 0; i < samples; i++ {
		p := uniformInAnnulus(rng, 0, 1)
		d := p.Dist(geom.Point{})
		if d > 1 {
			t.Fatalf("point outside disk: %v", d)
		}
		if d <= 0.5 {
			within++
		}
	}
	frac := float64(within) / samples
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("inner-quarter fraction = %v, want 0.25 (area uniformity)", frac)
	}
	// Annulus respects both radii.
	for i := 0; i < 1000; i++ {
		p := uniformInAnnulus(rng, 2, 3)
		d := p.Dist(geom.Point{})
		if d < 2 || d > 3 {
			t.Fatalf("annulus point at distance %v, want [2, 3]", d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(rand.New(rand.NewSource(77)), DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(rand.New(rand.NewSource(77)), DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("same seed produced different topologies at node %d", i)
		}
	}
}

func TestGenerateExhaustion(t *testing.T) {
	// An (effectively) unsatisfiable configuration: huge N in one attempt.
	rng := rand.New(rand.NewSource(5))
	cfg := Config{N: 2, Radius: 1, Rings: 1, MaxAttempts: 1}
	// N=2, one ring, 2 nodes: both inner, need degree ≥ 2 but max possible
	// degree is 1 → always invalid.
	if _, err := Generate(rng, cfg); err == nil {
		t.Error("impossible constraints should exhaust the attempt budget")
	}
}

func TestRingOf(t *testing.T) {
	topo := &Topology{
		N: 1, Radius: 1, Rings: 3,
		Positions: []geom.Point{{X: 0.5, Y: 0}, {X: 1.5, Y: 0}, {X: 2.5, Y: 0}, {X: 3.5, Y: 0}},
	}
	want := []int{0, 1, 2, 2} // beyond-last clamps
	for i, w := range want {
		if got := topo.RingOf(i); got != w {
			t.Errorf("RingOf(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestGenerateAcceptanceRate guards against the rejection sampler becoming
// pathologically slow for the paper's parameters.
func TestGenerateAcceptanceRate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(123))
	for _, n := range []int{3, 5, 8} {
		accepted := 0
		const trials = 200
		topo := &Topology{N: n, Radius: 1, Rings: 3}
		for i := 0; i < trials; i++ {
			topo.sample(rng)
			if topo.CheckConstraints() == nil {
				accepted++
			}
		}
		if accepted == 0 {
			t.Errorf("N=%d: acceptance rate 0/%d — generator impractical", n, trials)
		}
		t.Logf("N=%d acceptance: %d/%d", n, accepted, trials)
	}
}

// refGenerate is Generate's loop before it reused its buffers: a fresh
// Topology, position slice and degree slice per draw. It returns the
// accepted draw and how many draws it took.
func refGenerate(rng *rand.Rand, cfg Config) (*Topology, int) {
	for i := 1; ; i++ {
		positions := make([]geom.Point, 0, cfg.TotalNodes())
		for ring := 0; ring < cfg.Rings; ring++ {
			count := (2*ring + 1) * cfg.N
			rIn := float64(ring) * cfg.Radius
			rOut := float64(ring+1) * cfg.Radius
			for j := 0; j < count; j++ {
				positions = append(positions, uniformInAnnulus(rng, rIn, rOut))
			}
		}
		topo := &Topology{Positions: positions, N: cfg.N, Radius: cfg.Radius, Rings: cfg.Rings}
		if topo.CheckConstraints() == nil {
			return topo, i
		}
	}
}

// TestGenerateMatchesFreshDraws: reusing the buffers across rejected
// draws gives the same Topology, and the same random stream position, as
// allocating each draw afresh.
func TestGenerateMatchesFreshDraws(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		for seed := int64(1); seed <= 50; seed++ {
			rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, err := Generate(rng, DefaultConfig(n))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refGenerate(refRng, DefaultConfig(n))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("N=%d seed %d: Generate differs from fresh draws", n, seed)
			}
			if rng.Int63() != refRng.Int63() {
				t.Fatalf("N=%d seed %d: Generate left the random stream elsewhere", n, seed)
			}
		}
	}
}

// TestGenerateRejectedDrawsAllocNothing: a seed accepted on its first
// draw and one that needs five or more allocate the same.
func TestGenerateRejectedDrawsAllocNothing(t *testing.T) {
	cfg := DefaultConfig(3)
	oneDraw, manyDraws := int64(-1), int64(-1)
	for seed := int64(1); oneDraw < 0 || manyDraws < 0; seed++ {
		switch _, draws := refGenerate(rand.New(rand.NewSource(seed)), cfg); {
		case draws == 1 && oneDraw < 0:
			oneDraw = seed
		case draws >= 5 && manyDraws < 0:
			manyDraws = seed
		}
	}
	allocs := func(seed int64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Generate(rand.New(rand.NewSource(seed)), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(oneDraw), allocs(manyDraws); one != many {
		t.Errorf("seed %d (1 draw) allocates %v, seed %d (5+ draws) %v; rejected draws must allocate nothing", oneDraw, one, manyDraws, many)
	}
}
