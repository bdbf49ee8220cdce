// Package experiments assembles complete simulation runs and regenerates
// every table and figure of the paper's evaluation: the analytical Fig. 5
// curves, the simulated throughput (Fig. 6) and delay (Fig. 7)
// comparisons, and the collision-ratio and fairness statistics that the
// paper describes but omits for space.
//
// Assembly itself lives in internal/sim: SimConfig is the stable typed
// front door, converted to a declarative sim.Scenario and executed by
// sim.Build/sim.Runner. The two descriptions are interchangeable —
// SimConfig.Scenario and ConfigFromScenario round-trip — so flag-driven
// tools and scenario files share one code path.
package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
)

// SimConfig describes one simulation run.
type SimConfig struct {
	// Scheme is the collision-avoidance variant under test.
	Scheme core.Scheme
	// BeamwidthDeg is the transmission beamwidth in degrees (ignored by
	// ORTS-OCTS).
	BeamwidthDeg float64
	// N is the paper's density parameter: the inner circle holds N
	// measured nodes; the whole network has 9N.
	N int
	// Seed drives topology generation and all protocol randomness.
	Seed int64
	// Duration is the measured simulation time.
	Duration des.Time
	// PacketBytes is the data payload size (defaults to 1460).
	PacketBytes int
	// TopologyKind selects a registered sim topology generator (empty
	// means "rings", the paper's constrained placement). Ignored when
	// Topology supplies an explicit placement.
	TopologyKind string
	// Topology optionally supplies a pre-generated placement; when nil a
	// fresh topology is drawn from the seed.
	Topology *topology.Topology
	// HelloBootstrap populates neighbor tables with the over-the-air
	// HELLO protocol instead of ground truth.
	HelloBootstrap bool
	// Capture enables the first-signal capture ablation at the receiver.
	Capture bool
	// NAVOracle enables the oracle virtual-carrier-sense ablation:
	// out-of-beam neighbors still learn frame durations and defer.
	NAVOracle bool
	// DisableEIFS disables extended-IFS deference (ablation).
	DisableEIFS bool
	// Tracer, when non-nil, receives every node's protocol events.
	Tracer trace.Tracer
	// Cache, when non-nil, serves repeat runs from a content-addressed
	// result store (bypassed while Topology or Tracer overrides are
	// attached; see sim.Options.Cache).
	Cache *cache.Store
	// BasicAccess disables RTS/CTS (the hidden-terminal-prone baseline).
	BasicAccess bool
	// OfferedLoadBps, when positive, replaces the saturated sources with
	// paced CBR sources offering this many bits per second per node
	// (bounded queue of 64 packets). Zero means saturation, as in the
	// paper.
	OfferedLoadBps float64
	// MaxSpeed, when positive, animates nodes with a random-waypoint walk
	// at uniform speeds up to this many transmission ranges per second
	// (extension; the paper's networks are static). Neighbor tables are
	// refreshed from ground truth every RefreshInterval.
	MaxSpeed float64
	// RefreshInterval bounds neighbor-location staleness under mobility
	// (default 1 s).
	RefreshInterval des.Time
	// SampleDelays, when true, reservoir-samples per-packet delays of the
	// inner nodes so SimResult carries delay percentiles, not just means.
	SampleDelays bool
	// AdaptiveRTS enables the Ko et al.-style adaptive variant on
	// directional schemes: RTS falls back to omni when the destination's
	// location is staler than this threshold, and every frame piggybacks
	// the sender's position to refresh tables (0 disables).
	AdaptiveRTS des.Time
	// SINR replaces the paper's overlap-collision receiver with the
	// physical SINR model (path loss α=2, 10 dB threshold, low noise
	// floor): strong frames capture, and directional gain follows the
	// paper's footnote 2.
	SINR bool
	// TelemetryInterval, when positive, samples per-node and aggregate
	// metrics every interval of sim time and streams them to Telemetry
	// (see internal/telemetry). Zero disables telemetry entirely.
	TelemetryInterval des.Time
	// TelemetryMetrics restricts the registered instruments to the named
	// subset of sim.TelemetryMetricNames(); empty registers all.
	TelemetryMetrics []string
	// Telemetry receives the streaming export when TelemetryInterval is
	// set. Batch runs buffer per shard and merge deterministically in
	// shard order. Like Tracer, a telemetry-enabled run bypasses Cache.
	Telemetry telemetry.Sink
	// Workers sizes RunBatch's shard pool (0 means GOMAXPROCS); RunSim
	// ignores it. Results never depend on it.
	Workers int
}

// Validate checks the configuration.
func (c SimConfig) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("experiments: N must be at least 2, got %d", c.N)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("experiments: duration must be positive, got %v", c.Duration)
	}
	if c.Scheme != core.ORTSOCTS && (c.BeamwidthDeg <= 0 || c.BeamwidthDeg > 360) {
		return fmt.Errorf("experiments: beamwidth must be in (0, 360] degrees, got %v", c.BeamwidthDeg)
	}
	return nil
}

// SimResult holds the per-run metrics for the measured inner nodes; it is
// internal/sim's Result under the package's historical name.
type SimResult = sim.Result

// Scenario converts the config to its declarative equivalent. The
// mapping is exact: running the returned scenario reproduces RunSim(c)
// bit for bit (the kernel-determinism goldens pin this).
func (c SimConfig) Scenario() sim.Scenario {
	sc := sim.Scenario{
		Scheme:       c.Scheme.String(),
		BeamwidthDeg: c.BeamwidthDeg,
		Seed:         c.Seed,
		Duration:     sim.Duration(c.Duration),
		Topology:     sim.TopologySpec{Kind: c.TopologyKind, N: c.N},
		Traffic:      sim.TrafficSpec{PacketBytes: c.PacketBytes},
		PHY:          sim.PHYSpec{Capture: c.Capture, NAVOracle: c.NAVOracle, SINR: c.SINR},
		Ablations: sim.AblationSpec{
			DisableEIFS:    c.DisableEIFS,
			BasicAccess:    c.BasicAccess,
			HelloBootstrap: c.HelloBootstrap,
			AdaptiveRTS:    sim.Duration(c.AdaptiveRTS),
		},
		SampleDelays: c.SampleDelays,
		Telemetry: sim.TelemetrySpec{
			Interval: sim.Duration(c.TelemetryInterval),
			Metrics:  c.TelemetryMetrics,
		},
	}
	if c.OfferedLoadBps > 0 {
		sc.Traffic.Kind = "cbr"
		sc.Traffic.OfferedLoadBps = c.OfferedLoadBps
	}
	if c.MaxSpeed > 0 {
		sc.Mobility.Kind = "waypoint"
		sc.Mobility.MaxSpeed = c.MaxSpeed
		sc.Mobility.RefreshInterval = sim.Duration(c.RefreshInterval)
	}
	return sc
}

// ConfigFromScenario maps a declarative scenario back onto a SimConfig.
// It errors on specs only internal/sim can express (explicit positions,
// silent traffic, trace sinks), so callers never silently run a
// different experiment than the file describes.
func ConfigFromScenario(sc sim.Scenario) (SimConfig, error) {
	scheme, err := sc.ResolvedScheme()
	if err != nil {
		return SimConfig{}, err
	}
	cfg := SimConfig{
		Scheme:            scheme,
		BeamwidthDeg:      sc.BeamwidthDeg,
		N:                 sc.Topology.N,
		Seed:              sc.Seed,
		Duration:          des.Time(sc.Duration),
		PacketBytes:       sc.Traffic.PacketBytes,
		TopologyKind:      sc.Topology.Kind,
		HelloBootstrap:    sc.Ablations.HelloBootstrap,
		Capture:           sc.PHY.Capture,
		NAVOracle:         sc.PHY.NAVOracle,
		DisableEIFS:       sc.Ablations.DisableEIFS,
		BasicAccess:       sc.Ablations.BasicAccess,
		SampleDelays:      sc.SampleDelays,
		AdaptiveRTS:       des.Time(sc.Ablations.AdaptiveRTS),
		SINR:              sc.PHY.SINR,
		TelemetryInterval: des.Time(sc.Telemetry.Interval),
		TelemetryMetrics:  sc.Telemetry.Metrics,
	}
	switch sc.Traffic.Kind {
	case "", "saturated":
	case "cbr":
		cfg.OfferedLoadBps = sc.Traffic.OfferedLoadBps
	default:
		return SimConfig{}, fmt.Errorf("experiments: traffic kind %q has no SimConfig equivalent", sc.Traffic.Kind)
	}
	if sc.Mobility.Kind == "waypoint" {
		cfg.MaxSpeed = sc.Mobility.MaxSpeed
		cfg.RefreshInterval = des.Time(sc.Mobility.RefreshInterval)
	}
	if len(sc.Topology.Positions) > 0 {
		return SimConfig{}, fmt.Errorf("experiments: explicit topology positions have no SimConfig equivalent")
	}
	if sc.Trace.Kind != "" && sc.Trace.Kind != "none" {
		return SimConfig{}, fmt.Errorf("experiments: trace sink %q has no SimConfig equivalent", sc.Trace.Kind)
	}
	return cfg, nil
}

// RunSim executes one complete simulation: topology, PHY, neighbor
// bootstrap, MAC per node, traffic, and metric collection on the inner N
// nodes. It is a thin wrapper over sim.Build + Run.
func RunSim(cfg SimConfig) (*SimResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return sim.RunScenario(cfg.Scenario(), sim.Options{
		Topology: cfg.Topology, Tracer: cfg.Tracer, Cache: cfg.Cache, Telemetry: cfg.Telemetry,
	})
}

// BatchResult aggregates one (scheme, N, beamwidth) cell over many random
// topologies, mirroring the paper's mean + vertical range presentation.
type BatchResult struct {
	// ThroughputBps summarizes the per-topology mean inner-node goodput.
	ThroughputBps stats.Summary
	// DelaySec summarizes the per-topology mean service delay.
	DelaySec stats.Summary
	// CollisionRatio summarizes the per-topology mean collision ratio.
	CollisionRatio stats.Summary
	// Jain summarizes the per-topology fairness index.
	Jain stats.Summary
	// Runs is the number of topologies aggregated.
	Runs int
}

// AggregateBatch folds per-shard results (in shard order) into the
// paper's mean + range presentation.
func AggregateBatch(results []*SimResult) *BatchResult {
	var out BatchResult
	var th, dl, cr, jn stats.Stream
	for _, r := range results {
		th.Add(r.MeanThroughputBps())
		dl.Add(r.MeanDelaySec())
		cr.Add(r.MeanCollisionRatio())
		jn.Add(r.Jain)
	}
	out.ThroughputBps = th.Summarize()
	out.DelaySec = dl.Summarize()
	out.CollisionRatio = cr.Summarize()
	out.Jain = jn.Summarize()
	out.Runs = len(results)
	return &out
}

// RunBatch runs cfg over `topologies` independent random topologies
// (seeds cfg.Seed, cfg.Seed+1, ...) on sim.Runner's bounded worker pool
// and aggregates the per-topology means. Errors are deterministic: the
// lowest-indexed failing shard decides the returned error regardless of
// goroutine scheduling.
func RunBatch(cfg SimConfig, topologies int) (*BatchResult, error) {
	if topologies < 1 {
		return nil, fmt.Errorf("experiments: need at least one topology, got %d", topologies)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	runner := sim.Runner{
		Workers: cfg.Workers,
		Options: sim.Options{Tracer: cfg.Tracer, Cache: cfg.Cache, Telemetry: cfg.Telemetry},
	}
	results, err := runner.Run(cfg.Scenario(), topologies)
	if err != nil {
		return nil, err
	}
	return AggregateBatch(results), nil
}

// GridCell is one point of the paper's Fig. 6/7 sweep.
type GridCell struct {
	Scheme       core.Scheme
	N            int
	BeamwidthDeg float64
	Batch        *BatchResult
}

// PaperGrid returns the paper's simulation sweep: N ∈ {3, 5, 8} and
// beamwidth ∈ {30°, 90°, 150°}.
func PaperGrid() (ns []int, beamsDeg []float64) {
	return []int{3, 5, 8}, []float64{30, 90, 150}
}

// RunGrid evaluates every (scheme, N, beamwidth) combination over the
// given number of topologies. Base supplies Duration, Seed and ablation
// switches. ORTS-OCTS ignores beamwidth but is run once per beamwidth for
// table alignment (its results differ only by random stream).
func RunGrid(base SimConfig, schemes []core.Scheme, ns []int, beamsDeg []float64, topologies int) ([]GridCell, error) {
	var cells []GridCell
	for _, n := range ns {
		for _, beam := range beamsDeg {
			for _, s := range schemes {
				cfg := base
				cfg.Scheme = s
				cfg.N = n
				cfg.BeamwidthDeg = beam
				batch, err := RunBatch(cfg, topologies)
				if err != nil {
					return nil, fmt.Errorf("grid cell %v N=%d θ=%v: %w", s, n, beam, err)
				}
				cells = append(cells, GridCell{Scheme: s, N: n, BeamwidthDeg: beam, Batch: batch})
			}
		}
	}
	return cells, nil
}
