package sim

// The scenario's parts: the node placements and the traffic sources a
// Scenario can name. The set is closed. Each part is one case of a
// switch, GenerateTopology for placements and newSource for traffic,
// and Validate checks a scenario's kinds against TopologyKinds and
// TrafficKinds.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TopologyKinds lists the topology kinds a scenario may name, sorted.
func TopologyKinds() []string { return []string{"explicit", "grid", "rings", "uniform"} }

// TrafficKinds lists the traffic kinds a scenario may name, sorted.
func TrafficKinds() []string { return []string{"cbr", "flows", "none", "saturated"} }

// kinds returns the scenario's topology and traffic kinds, an empty kind
// resolved to the paper's setup: "rings" and "saturated".
func (sc Scenario) kinds() (topologyKind, trafficKind string) {
	topologyKind, trafficKind = sc.Topology.Kind, sc.Traffic.Kind
	if topologyKind == "" {
		topologyKind = "rings"
	}
	if trafficKind == "" {
		trafficKind = "saturated"
	}
	return topologyKind, trafficKind
}

// resolvedTopologyConfig fills generator defaults: radius 1.0, 3 rings.
func (sc Scenario) resolvedTopologyConfig() topology.Config {
	cfg := topology.Config{N: sc.Topology.N, Radius: sc.Topology.Radius, Rings: sc.Topology.Rings}
	if cfg.Radius == 0 {
		cfg.Radius = 1.0
	}
	if cfg.Rings == 0 {
		cfg.Rings = 3
	}
	return cfg
}

// GenerateTopology places the nodes of the scenario's topology section.
// The generator named by Kind draws from rng, which is dedicated to
// topology generation (seed it from Scenario.Seed for the canonical
// placement), so a generator never perturbs protocol randomness. A
// section Validate rejects is rejected here with the same error.
func GenerateTopology(rng *rand.Rand, sc Scenario) (*topology.Topology, error) {
	if err := sc.validateTopology(); err != nil {
		return nil, err
	}
	cfg := sc.resolvedTopologyConfig()
	var topo *topology.Topology
	var err error
	switch kind, _ := sc.kinds(); kind {
	case "rings":
		// The paper's constrained concentric-ring placement.
		topo, err = topology.Generate(rng, cfg)
	case "explicit":
		positions := slices.Clone(sc.Topology.Positions)
		topo = &topology.Topology{Positions: positions, N: cfg.N, Radius: cfg.Radius, Rings: cfg.Rings}
	case "grid":
		topo, err = gridTopology(cfg)
	case "uniform":
		topo = uniformTopology(rng, cfg)
	default:
		return nil, fmt.Errorf("sim: topology.kind: unknown topology kind %q (known: %v)", kind, TopologyKinds())
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return topo, nil
}

// gridTopology places nodes on a square lattice with the paper's density
// (N nodes per coverage disk), clipped to the Rings·R field disk and
// ordered inside-out so the first N lattice points are the measured
// nodes. It models planned deployments (sensor grids, mesh backhauls)
// as opposed to the paper's random fields, and being draw-free it is
// the cheapest generator for very large sharded sweeps.
func gridTopology(cfg topology.Config) (*topology.Topology, error) {
	// Density N per πR² disk → lattice spacing R·√(π/N).
	spacing := cfg.Radius * math.Sqrt(math.Pi/float64(cfg.N))
	bound := float64(cfg.Rings) * cfg.Radius
	// The lattice fills the field disk at density N per coverage disk, so
	// ~Rings²·N points survive the clip — pre-size for them.
	positions := make([]geom.Point, 0, cfg.TotalNodes())
	steps := int(bound/spacing) + 1
	for ix := -steps; ix <= steps; ix++ {
		for iy := -steps; iy <= steps; iy++ {
			p := geom.Point{X: float64(ix) * spacing, Y: float64(iy) * spacing}
			if p.Dist(geom.Point{}) <= bound {
				positions = append(positions, p)
			}
		}
	}
	sortInsideOut(positions)
	if len(positions) < cfg.N {
		return nil, fmt.Errorf("grid topology produced %d nodes, fewer than n=%d", len(positions), cfg.N)
	}
	return &topology.Topology{Positions: positions, N: cfg.N, Radius: cfg.Radius, Rings: cfg.Rings}, nil
}

// uniformTopology scatters the paper's node budget (Rings²·N) uniformly
// by area over the whole field disk — the unconstrained Poisson-like
// field the analytical model assumes, without the ring quotas or degree
// filtering of "rings". Positions are ordered inside-out so the first N
// are the measured nodes.
func uniformTopology(rng *rand.Rand, cfg topology.Config) *topology.Topology {
	bound := float64(cfg.Rings) * cfg.Radius
	total := cfg.TotalNodes()
	positions := make([]geom.Point, total)
	for i := range positions {
		r := bound * math.Sqrt(rng.Float64())
		theta := rng.Float64() * 2 * math.Pi
		positions[i] = geom.Polar(geom.Point{}, r, theta)
	}
	sortInsideOut(positions)
	return &topology.Topology{Positions: positions, N: cfg.N, Radius: cfg.Radius, Rings: cfg.Rings}
}

// sortInsideOut orders positions by distance from the origin, breaking
// exact ties on (X, Y) so the order never depends on the incoming
// permutation. It deals the positions into n buckets by squared
// distance, a bucket index that never decreases as d² grows, then sorts
// each bucket with insideOut: the one total order a single sort would
// give. Both generators that call it spread d² evenly over the field, so
// a bucket holds a position or two and the sort makes O(n) comparisons,
// not O(n log n).
func sortInsideOut(ps []geom.Point) {
	n := len(ps)
	hi := 0.0
	for _, p := range ps {
		hi = max(hi, p.Dist2(geom.Point{}))
	}
	// A scaled d² that is not below n-1, or is NaN (every d² zero or
	// one infinite), goes to the last bucket.
	scale := float64(n) / hi
	bucket := func(p geom.Point) int {
		if b := p.Dist2(geom.Point{}) * scale; b < float64(n-1) {
			return int(b)
		}
		return n - 1
	}
	src := slices.Clone(ps)
	next := make([]int, n+1) // bucket sizes at b+1, then bucket starts at b
	for _, p := range src {
		next[bucket(p)+1]++
	}
	for b := 1; b <= n; b++ {
		next[b] += next[b-1]
	}
	for _, p := range src {
		b := bucket(p)
		ps[next[b]] = p
		next[b]++
	}
	// Each next[b] now ends bucket b, which starts where b-1 ended.
	for b, lo := 0, 0; b < n; lo, b = next[b], b+1 {
		if run := ps[lo:next[b]]; len(run) > 1 {
			slices.SortFunc(run, insideOut)
		}
	}
}

// insideOut compares two positions by squared distance from the origin,
// then X, then Y.
func insideOut(p, q geom.Point) int {
	return cmp.Or(
		cmp.Compare(p.Dist2(geom.Point{}), q.Dist2(geom.Point{})),
		cmp.Compare(p.X, q.X),
		cmp.Compare(p.Y, q.Y),
	)
}

// trafficEnv is what newSource gets to build one node's source with.
type trafficEnv struct {
	// sched is the run's scheduler (for self-driven sources).
	sched *des.Scheduler
	// rand is the protocol random stream shared by all sources.
	rand *rand.Rand
	// id is the node the source is built for (its index in the
	// topology's positions).
	id phy.NodeID
	// neighbors are the node's in-range peers in ascending ID order
	// (never empty: a node without neighbors gets an empty source and no
	// call to newSource). The slice is the PHY's in-range list
	// (phy.Channel.InRange), shared with a ground-truth neighbor table:
	// it is stable for the life of the run, so a source may retain it
	// without copying, and it must never be written.
	neighbors []int32
	// spec is the scenario's traffic section with defaults resolved.
	spec TrafficSpec
	// sources holds the backings the sources are carved from.
	sources *sourceSlab
}

// sourceSlab holds one backing array per source type, each allocated on
// first use with room for every node, so a network's sources cost one
// allocation instead of one per node (DESIGN.md §15).
type sourceSlab struct {
	nodes     int
	saturated []traffic.Saturated
	cbr       []traffic.CBR
}

// carve returns the next unused element of *back, allocating it with
// room for n elements on first use. Build asks for at most one source
// per node, so the backing never grows and no element moves.
func carve[T any](back *[]T, n int) *T {
	if *back == nil {
		*back = make([]T, 0, n)
	}
	*back = (*back)[:len(*back)+1]
	return &(*back)[len(*back)-1]
}

// selfDriven is implemented by traffic sources that schedule their own
// arrivals (traffic.CBR). Build connects the owning MAC node, which the
// source kicks when a packet arrives at its empty queue, and Run calls
// Start once the network is assembled.
type selfDriven interface {
	SetKick(traffic.Kicker)
	Start()
}

// newSource builds one node's packet source for the spec's kind.
func newSource(env trafficEnv) (mac.Source, error) {
	switch env.spec.Kind {
	case "saturated":
		// The paper's always-backlogged source.
		return saturatedSource(env)
	case "cbr":
		// Arrivals paced at the spec's offered load.
		interval := des.Time(float64(env.spec.PacketBytes*8) / env.spec.OfferedLoadBps * float64(des.Second))
		src := carve(&env.sources.cbr, env.sources.nodes)
		if err := traffic.NewCBRInto(src, env.sched, env.rand, env.neighbors, traffic.CBRConfig{
			Interval: interval, Bytes: env.spec.PacketBytes, QueueCap: env.spec.QueueCap,
		}); err != nil {
			return nil, err
		}
		return src, nil
	case "flows":
		// The node saturates the destinations of the flows it sources,
		// in flow order; one that sources no flow only responds. A node
		// with no in-range peer stays silent even if it sources a flow.
		var dsts []int32
		for _, f := range env.spec.Flows {
			if phy.NodeID(f.Src) == env.id {
				dsts = append(dsts, int32(f.Dst))
			}
		}
		if len(dsts) == 0 {
			return traffic.Empty{}, nil
		}
		env.neighbors = dsts
		return saturatedSource(env)
	case "none":
		return traffic.Empty{}, nil
	}
	return nil, fmt.Errorf("sim: traffic.kind: unknown traffic kind %q (known: %v)", env.spec.Kind, TrafficKinds())
}

// saturatedSource draws uniformly among env's neighbors. The neighbor
// slice is stable and read-only (see trafficEnv), so no copy.
func saturatedSource(env trafficEnv) (mac.Source, error) {
	src := carve(&env.sources.saturated, env.sources.nodes)
	if err := traffic.NewSaturatedInto(src, env.rand, env.neighbors, env.spec.PacketBytes); err != nil {
		return nil, err
	}
	return src, nil
}
