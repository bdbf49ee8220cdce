// Package topology generates the node placements of the paper's
// simulation study (Section 4): concentric rings around a focus region,
// with N nodes uniformly placed in the inner circle of radius R, 3N in
// the ring [R, 2R], 5N in [2R, 3R] (and (2k+1)·N in each further ring),
// approximating an infinite uniform field while only the innermost N
// nodes are measured. Generated topologies are filtered by the paper's
// degree constraints.
package topology

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Config controls topology generation.
type Config struct {
	// N is the average number of nodes per coverage disk; the inner
	// circle holds exactly N nodes.
	N int
	// Radius is the transmission range R; ring k spans [kR, (k+1)R].
	Radius float64
	// Rings is the number of regions (inner circle counts as ring 1);
	// the paper uses 3, giving 9N nodes total.
	Rings int
	// MaxAttempts bounds the rejection sampling (0 means 10000).
	MaxAttempts int
}

// DefaultConfig returns the paper's setup for the given N.
func DefaultConfig(n int) Config {
	return Config{N: n, Radius: 1.0, Rings: 3}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("topology: N must be at least 2, got %d", c.N)
	}
	if c.Radius <= 0 {
		return fmt.Errorf("topology: radius must be positive, got %v", c.Radius)
	}
	if c.Rings < 1 {
		return fmt.Errorf("topology: need at least one ring, got %d", c.Rings)
	}
	return nil
}

// TotalNodes returns the node count for the configuration: Rings²·N.
func (c Config) TotalNodes() int {
	return c.Rings * c.Rings * c.N
}

// Topology is a generated placement. The first N positions are the inner
// (measured) nodes; the next 3N are the first ring, and so on.
type Topology struct {
	Positions []geom.Point `json:"positions"`
	N         int          `json:"n"`
	Radius    float64      `json:"radius"`
	Rings     int          `json:"rings"`
}

// ErrExhausted is returned when no valid topology was found within the
// attempt budget.
var ErrExhausted = errors.New("topology: no valid placement found within the attempt budget")

// Generate draws placements until one satisfies the paper's degree
// constraints:
//
//   - each inner node has between 2 and 2N−2 neighbors;
//   - each node of the first surrounding ring has between 1 and 2N−1.
//
// Outer rings are unconstrained (they only provide background
// interference). Every draw refills one position buffer and one degree
// buffer, so a rejected draw allocates nothing.
func Generate(rng *rand.Rand, cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 10000
	}
	topo := &Topology{Positions: make([]geom.Point, 0, cfg.TotalNodes()), N: cfg.N, Radius: cfg.Radius, Rings: cfg.Rings}
	deg := make([]int, cfg.TotalNodes())
	for i := 0; i < attempts; i++ {
		topo.sample(rng)
		if node, _ := topo.firstViolation(deg); node < 0 {
			return topo, nil
		}
	}
	return nil, ErrExhausted
}

// sample refills t.Positions with one unconstrained placement.
func (t *Topology) sample(rng *rand.Rand) {
	t.Positions = t.Positions[:0]
	for ring := 0; ring < t.Rings; ring++ {
		count := (2*ring + 1) * t.N
		rIn := float64(ring) * t.Radius
		rOut := float64(ring+1) * t.Radius
		for i := 0; i < count; i++ {
			t.Positions = append(t.Positions, uniformInAnnulus(rng, rIn, rOut))
		}
	}
}

// uniformInAnnulus draws a point uniformly by area from the annulus with
// the given radii (rIn may be 0 for a full disk).
func uniformInAnnulus(rng *rand.Rand, rIn, rOut float64) geom.Point {
	u := rng.Float64()
	r := math.Sqrt(rIn*rIn + u*(rOut*rOut-rIn*rIn))
	theta := rng.Float64() * 2 * math.Pi
	return geom.Polar(geom.Point{}, r, theta)
}

// Degrees returns each node's neighbor count (nodes within Radius).
func (t *Topology) Degrees() []int {
	deg := make([]int, len(t.Positions))
	t.degreesInto(deg)
	return deg
}

// degreesInto overwrites deg (one entry per node) with each node's
// neighbor count.
func (t *Topology) degreesInto(deg []int) {
	clear(deg)
	r2 := t.Radius * t.Radius
	for i := 0; i < len(t.Positions); i++ {
		for j := i + 1; j < len(t.Positions); j++ {
			if t.Positions[i].Dist2(t.Positions[j]) <= r2 {
				deg[i]++
				deg[j]++
			}
		}
	}
}

// Neighbors returns the indices of nodes within Radius of node i.
func (t *Topology) Neighbors(i int) []int {
	r2 := t.Radius * t.Radius
	var out []int
	for j := range t.Positions {
		if j != i && t.Positions[i].Dist2(t.Positions[j]) <= r2 {
			out = append(out, j)
		}
	}
	return out
}

// InnerCount returns the number of measured (inner circle) nodes.
func (t *Topology) InnerCount() int { return t.N }

// MiddleCount returns the number of first-ring nodes.
func (t *Topology) MiddleCount() int {
	if t.Rings < 2 {
		return 0
	}
	return 3 * t.N
}

// CheckConstraints verifies the paper's degree conditions.
func (t *Topology) CheckConstraints() error {
	switch i, deg := t.firstViolation(make([]int, len(t.Positions))); {
	case i < 0:
		return nil
	case i < t.InnerCount():
		return fmt.Errorf("topology: inner node %d has degree %d, want [2, %d]", i, deg, 2*t.N-2)
	default:
		return fmt.Errorf("topology: middle node %d has degree %d, want [1, %d]", i, deg, 2*t.N-1)
	}
}

// firstViolation returns the first inner or first-ring node whose degree
// breaks the paper's conditions, with that degree, or node -1. It counts
// degrees into d, one entry per node. Generate calls it directly, so a
// rejected draw formats no error.
func (t *Topology) firstViolation(d []int) (node, deg int) {
	t.degreesInto(d)
	for i := 0; i < t.InnerCount(); i++ {
		if d[i] < 2 || d[i] > 2*t.N-2 {
			return i, d[i]
		}
	}
	for i := t.InnerCount(); i < t.InnerCount()+t.MiddleCount(); i++ {
		if d[i] < 1 || d[i] > 2*t.N-1 {
			return i, d[i]
		}
	}
	return -1, 0
}

// RingOf returns which region (0-based ring index) node i was placed in,
// derived from its distance to the origin.
func (t *Topology) RingOf(i int) int {
	d := t.Positions[i].Dist(geom.Point{})
	ring := int(d / t.Radius)
	if ring >= t.Rings {
		ring = t.Rings - 1 // boundary round-off
	}
	return ring
}
