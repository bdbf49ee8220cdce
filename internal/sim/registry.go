package sim

// Registries for the pluggable scenario components. A new workload —
// another placement pattern, traffic model or antenna mode — is added by
// registering a builder under a name; every consumer (Build, the CLIs,
// the sharded Runner) picks it up through the scenario file without any
// assembly-code edits.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TopologyBuilder produces a node placement from the scenario. The rng
// is dedicated to topology generation (seeded from Scenario.Seed), so a
// builder may draw freely without perturbing protocol randomness.
type TopologyBuilder func(rng *rand.Rand, sc Scenario) (*topology.Topology, error)

// TrafficEnv is what a traffic builder gets to work with for one node.
type TrafficEnv struct {
	// Sched is the run's scheduler (for self-driven sources).
	Sched *des.Scheduler
	// Rand is the protocol random stream shared by all sources.
	Rand *rand.Rand
	// ID is the node the source is built for (its index in the
	// topology's positions).
	ID phy.NodeID
	// Neighbors are the node's in-range peers in ascending ID order
	// (never empty; nodes without neighbors get an empty source without
	// consulting the builder). The slice is the PHY's in-range list
	// (phy.Channel.InRange), shared with a ground-truth neighbor table:
	// it is stable for the life of the run, so a source may retain it
	// without copying, and it must never be written.
	Neighbors []int32
	// Spec is the scenario's traffic section with defaults resolved
	// (PacketBytes and QueueCap filled in).
	Spec TrafficSpec

	// sources holds the backings Build carves the built-in sources
	// from.
	sources *sourceSlab
}

// sourceSlab holds one backing array per built-in source type, each
// allocated on first use with room for every node, so a network's
// sources cost one allocation instead of one per node (DESIGN.md §15).
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

// TrafficBuilder produces one node's packet source. Sources that drive
// themselves from the scheduler should implement SelfDriven; Build wires
// the owning node and Run starts them after all nodes started.
type TrafficBuilder func(env TrafficEnv) (mac.Source, error)

// SelfDriven is implemented by traffic sources that schedule their own
// arrivals (for example traffic.CBR). Build connects the owning MAC
// node, which the source kicks when a packet arrives at its empty
// queue, and Run calls Start once the network is assembled.
type SelfDriven interface {
	SetKick(traffic.Kicker)
	Start()
}

var (
	topologyReg = map[string]TopologyBuilder{}
	trafficReg  = map[string]TrafficBuilder{}
	schemeReg   = map[string]core.Scheme{}
)

// RegisterTopology adds a topology generator under kind. Registering a
// duplicate or empty kind panics: registration happens at init time and
// a collision is a programming error.
func RegisterTopology(kind string, b TopologyBuilder) {
	if kind == "" || b == nil {
		panic("sim: RegisterTopology needs a kind and a builder")
	}
	if _, dup := topologyReg[kind]; dup {
		panic(fmt.Sprintf("sim: topology kind %q registered twice", kind))
	}
	topologyReg[kind] = b
}

// RegisterTraffic adds a traffic source builder under kind.
func RegisterTraffic(kind string, b TrafficBuilder) {
	if kind == "" || b == nil {
		panic("sim: RegisterTraffic needs a kind and a builder")
	}
	if _, dup := trafficReg[kind]; dup {
		panic(fmt.Sprintf("sim: traffic kind %q registered twice", kind))
	}
	trafficReg[kind] = b
}

// RegisterScheme adds an antenna/beam-mode alias resolving to a core
// scheme (for example "omni" → ORTS-OCTS).
func RegisterScheme(name string, s core.Scheme) {
	norm := normalizeSchemeName(name)
	if norm == "" {
		panic("sim: RegisterScheme needs a name")
	}
	if _, dup := schemeReg[norm]; dup {
		panic(fmt.Sprintf("sim: scheme alias %q registered twice", name))
	}
	schemeReg[norm] = s
}

func lookupTopology(kind string) (TopologyBuilder, bool) {
	b, ok := topologyReg[kind]
	return b, ok
}

func lookupTraffic(kind string) (TrafficBuilder, bool) {
	b, ok := trafficReg[kind]
	return b, ok
}

// TopologyKinds lists the registered topology generators, sorted.
func TopologyKinds() []string { return sortedKeys(topologyReg) }

// TrafficKinds lists the registered traffic sources, sorted.
func TrafficKinds() []string { return sortedKeys(trafficReg) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// normalizeSchemeName lower-cases and strips separators so registry
// lookups accept the same spelling variants core.ParseScheme does.
func normalizeSchemeName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c-'A'+'a')
		case c == '-' || c == '_' || c == '/' || c == ' ':
			// separator: ignored
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// ResolveScheme maps a scheme or beam-mode name to a core.Scheme,
// consulting registered aliases first and core.ParseScheme's spellings
// second.
func ResolveScheme(name string) (core.Scheme, error) {
	if s, ok := schemeReg[normalizeSchemeName(name)]; ok {
		return s, nil
	}
	return core.ParseScheme(name)
}

func init() {
	// Antenna/beam modes: the paper's schemes under their own names plus
	// the two descriptive aliases.
	for _, s := range core.AllSchemes() {
		RegisterScheme(s.String(), s)
	}
	RegisterScheme("omni", core.ORTSOCTS)
	RegisterScheme("directional", core.DRTSDCTS)

	RegisterTopology("rings", buildRings)
	RegisterTopology("explicit", buildExplicit)
	RegisterTopology("grid", buildGrid)
	RegisterTopology("uniform", buildUniform)

	RegisterTraffic("saturated", buildSaturated)
	RegisterTraffic("cbr", buildCBR)
	RegisterTraffic("flows", buildFlows)
	RegisterTraffic("none", buildNone)
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

// buildRings draws the paper's constrained concentric-ring placement.
func buildRings(rng *rand.Rand, sc Scenario) (*topology.Topology, error) {
	return topology.Generate(rng, sc.resolvedTopologyConfig())
}

// buildExplicit wraps the scenario's inline positions.
func buildExplicit(rng *rand.Rand, sc Scenario) (*topology.Topology, error) {
	cfg := sc.resolvedTopologyConfig()
	positions := make([]geom.Point, len(sc.Topology.Positions))
	copy(positions, sc.Topology.Positions)
	return &topology.Topology{
		Positions: positions,
		N:         cfg.N,
		Radius:    cfg.Radius,
		Rings:     cfg.Rings,
	}, nil
}

// buildGrid places nodes on a square lattice with the paper's density
// (N nodes per coverage disk), clipped to the Rings·R field disk and
// ordered inside-out so the first N lattice points are the measured
// nodes. It models planned deployments (sensor grids, mesh backhauls)
// as opposed to the paper's random fields, and being draw-free it is
// the cheapest generator for very large sharded sweeps.
func buildGrid(rng *rand.Rand, sc Scenario) (*topology.Topology, error) {
	cfg := sc.resolvedTopologyConfig()
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
		return nil, fmt.Errorf("sim: grid topology produced %d nodes, fewer than n=%d", len(positions), cfg.N)
	}
	return &topology.Topology{Positions: positions, N: cfg.N, Radius: cfg.Radius, Rings: cfg.Rings}, nil
}

// buildUniform scatters the paper's node budget (Rings²·N) uniformly by
// area over the whole field disk — the unconstrained Poisson-like field
// the analytical model assumes, without the ring quotas or degree
// filtering of "rings". Positions are ordered inside-out so the first N
// are the measured nodes.
func buildUniform(rng *rand.Rand, sc Scenario) (*topology.Topology, error) {
	cfg := sc.resolvedTopologyConfig()
	bound := float64(cfg.Rings) * cfg.Radius
	total := cfg.TotalNodes()
	positions := make([]geom.Point, total)
	for i := range positions {
		r := bound * math.Sqrt(rng.Float64())
		theta := rng.Float64() * 2 * math.Pi
		positions[i] = geom.Polar(geom.Point{}, r, theta)
	}
	sortInsideOut(positions)
	return &topology.Topology{Positions: positions, N: cfg.N, Radius: cfg.Radius, Rings: cfg.Rings}, nil
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

// buildSaturated is the paper's always-backlogged source. Env neighbor
// slices are stable and read-only (see TrafficEnv), so no copy.
func buildSaturated(env TrafficEnv) (mac.Source, error) {
	src := carve(&env.sources.saturated, env.sources.nodes)
	if err := traffic.NewSaturatedInto(src, env.Rand, env.Neighbors, env.Spec.PacketBytes); err != nil {
		return nil, err
	}
	return src, nil
}

// buildCBR paces arrivals at the spec's offered load.
func buildCBR(env TrafficEnv) (mac.Source, error) {
	interval := des.Time(float64(env.Spec.PacketBytes*8) / env.Spec.OfferedLoadBps * float64(des.Second))
	src := carve(&env.sources.cbr, env.sources.nodes)
	if err := traffic.NewCBRInto(src, env.Sched, env.Rand, env.Neighbors, traffic.CBRConfig{
		Interval: interval, Bytes: env.Spec.PacketBytes, QueueCap: env.Spec.QueueCap,
	}); err != nil {
		return nil, err
	}
	return src, nil
}

// buildFlows saturates the node's explicit flows: its source draws
// uniformly among the destinations of the flows it sources, listed in
// flow order. A node that sources no flow gets an empty source and only
// responds. Like every kind, the builder is consulted only for nodes
// with an in-range peer: a node with none stays silent even if it
// sources a flow.
func buildFlows(env TrafficEnv) (mac.Source, error) {
	var dsts []int32
	for _, f := range env.Spec.Flows {
		if phy.NodeID(f.Src) == env.ID {
			dsts = append(dsts, int32(f.Dst))
		}
	}
	if len(dsts) == 0 {
		return traffic.Empty{}, nil
	}
	env.Neighbors = dsts
	return buildSaturated(env)
}

// buildNone leaves the node silent.
func buildNone(env TrafficEnv) (mac.Source, error) {
	return traffic.Empty{}, nil
}
