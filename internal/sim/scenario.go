// Package sim owns simulation assembly: a declarative, JSON-serializable
// Scenario spec describing one complete run (scheme, beamwidth, topology,
// traffic, mobility, PHY parameters, ablation toggles, seeds, duration and
// trace sinks), the closed set of parts a scenario can name (topology and
// traffic kinds), a Build step that wires the spec into a live scheduler
// + channel + MAC nodes, and a sharded Runner that fans a scenario out
// over independent seeds with a bounded worker pool.
//
// A Scenario plus Options is the only description of a run, and Build is
// the only assembly path outside the MAC test fixtures (sim/simtest):
// the CLIs, the experiment studies, the daemon and the dirca facade all
// build a Scenario, and whole experiment grids are files, not flag soup.
// Determinism is the contract — building and running the same Scenario
// twice produces bit-identical results (pinned by the kernel-determinism
// goldens and the countdown corpus).
package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
)

// Duration is a des.Time that serializes as a Go duration string
// ("300ms", "5s"), keeping scenario files human-editable while the
// simulator keeps its integer-nanosecond clock.
type Duration des.Time

// String renders the duration like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the canonical duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON accepts a Go duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("sim: duration must be a string like \"300ms\": %w", err)
	}
	td, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("sim: bad duration %q: %w", s, err)
	}
	*d = Duration(td.Nanoseconds())
	return nil
}

// TopologySpec selects and parameterizes a node-placement generator.
type TopologySpec struct {
	// Kind names a topology generator (TopologyKinds); empty means
	// "rings" (the paper's constrained concentric-ring placement).
	Kind string `json:"kind,omitempty"`
	// N is the density parameter: the number of measured inner nodes.
	N int `json:"n"`
	// Radius is the transmission range R (0 means 1.0).
	Radius float64 `json:"radius,omitempty"`
	// Rings is the number of concentric regions (0 means 3, the paper's
	// 9N-node setup). Non-ring generators reuse it as the field extent
	// in units of R.
	Rings int `json:"rings,omitempty"`
	// Positions supplies an explicit placement for kind "explicit"; the
	// first N entries are the measured nodes.
	Positions []geom.Point `json:"positions,omitempty"`
}

// TrafficSpec selects and parameterizes the per-node traffic source.
type TrafficSpec struct {
	// Kind names a traffic source (TrafficKinds); empty means
	// "saturated" (the paper's always-backlogged CBR). "cbr" paces
	// arrivals at OfferedLoadBps; "flows" saturates the explicit Flows;
	// "none" generates nothing.
	Kind string `json:"kind,omitempty"`
	// PacketBytes is the data payload size (0 means 1460, Table 1).
	PacketBytes int `json:"packetBytes,omitempty"`
	// OfferedLoadBps is the per-node offered load for kind "cbr".
	OfferedLoadBps float64 `json:"offeredLoadBps,omitempty"`
	// QueueCap bounds the CBR backlog (0 means 64).
	QueueCap int `json:"queueCap,omitempty"`
	// Flows lists the saturated demands of kind "flows", as indices into
	// topology.positions. A node may source several flows; one that
	// sources none only responds. As under every kind, a node with no
	// in-range peer stays silent.
	Flows []Flow `json:"flows,omitempty"`
}

// Flow is an always-backlogged demand from node Src to node Dst.
type Flow struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// MobilitySpec animates node positions.
type MobilitySpec struct {
	// Kind is empty or "none" for static networks, "waypoint" for the
	// random-waypoint walk.
	Kind string `json:"kind,omitempty"`
	// MaxSpeed is the top uniform speed in transmission ranges/second.
	MaxSpeed float64 `json:"maxSpeed,omitempty"`
	// RefreshInterval bounds neighbor-location staleness (0 means 1 s).
	RefreshInterval Duration `json:"refreshInterval,omitempty"`
}

// PHYSpec toggles the receiver-model variants.
type PHYSpec struct {
	// Capture enables first-signal capture at receivers.
	Capture bool `json:"capture,omitempty"`
	// NAVOracle enables the oracle virtual-carrier-sense ablation.
	NAVOracle bool `json:"navOracle,omitempty"`
	// SINR replaces the overlap-collision receiver with the physical
	// SINR model (path loss α=2, 10 dB threshold, low noise floor).
	SINR bool `json:"sinr,omitempty"`
}

// AblationSpec collects the MAC-level ablation switches.
type AblationSpec struct {
	// DisableEIFS disables extended-IFS deference.
	DisableEIFS bool `json:"disableEIFS,omitempty"`
	// BasicAccess disables RTS/CTS (the hidden-terminal-prone baseline).
	BasicAccess bool `json:"basicAccess,omitempty"`
	// HelloBootstrap populates neighbor tables over the air instead of
	// from ground truth.
	HelloBootstrap bool `json:"helloBootstrap,omitempty"`
	// AdaptiveRTS enables the Ko et al. adaptive variant with this
	// staleness threshold (0 disables).
	AdaptiveRTS Duration `json:"adaptiveRTS,omitempty"`
}

// TraceSpec selects a trace sink for protocol events.
type TraceSpec struct {
	// Kind is empty or "none" for no tracing, "recorder" for a bounded
	// in-memory ring exposed as Sim.Recorder.
	Kind string `json:"kind,omitempty"`
	// Capacity is the recorder ring size (0 means 1024).
	Capacity int `json:"capacity,omitempty"`
}

// TelemetrySpec enables sim-time sampled telemetry for the run. The
// zero value disables telemetry entirely.
type TelemetrySpec struct {
	// Interval is the sim-time sampling period; a positive value enables
	// telemetry, zero disables it.
	Interval Duration `json:"interval,omitempty"`
	// Metrics restricts the exported metrics to the named subset (see
	// TelemetryMetricNames for the catalog); empty exports all.
	Metrics []string `json:"metrics,omitempty"`
	// MaxNodes bounds per-node series cardinality: when positive and
	// below the inner-node count, only a deterministic sample of that
	// many inner nodes emits per-node records (selection is seeded from
	// the scenario, so exports stay byte-reproducible). Aggregate records
	// always cover every inner node exactly. Zero means no bound.
	MaxNodes int `json:"maxNodes,omitempty"`
}

// Enabled reports whether the spec turns telemetry on.
func (t TelemetrySpec) Enabled() bool { return t.Interval > 0 }

// Scenario is the declarative description of one simulation run. It is
// the JSON contract of `netsim -scenario` and the unit the sharded
// Runner fans out; every field is serializable, so a scenario file plus
// a binary is a complete, reproducible experiment.
type Scenario struct {
	// Name optionally labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Scheme names the collision-avoidance variant (any spelling
	// core.ParseScheme accepts, aliases "omni" and "directional"
	// included).
	Scheme string `json:"scheme"`
	// BeamwidthDeg is the transmission beamwidth in degrees (ignored by
	// ORTS-OCTS).
	BeamwidthDeg float64 `json:"beamwidthDeg,omitempty"`
	// Seed drives topology generation and all protocol randomness.
	Seed int64 `json:"seed"`
	// Duration is the measured simulation time.
	Duration Duration `json:"duration"`
	// Topology, Traffic, Mobility, PHY, Ablations and Trace select the
	// pluggable parts.
	Topology  TopologySpec `json:"topology"`
	Traffic   TrafficSpec  `json:"traffic"`
	Mobility  MobilitySpec `json:"mobility,omitempty"`
	PHY       PHYSpec      `json:"phy,omitempty"`
	Ablations AblationSpec `json:"ablations,omitempty"`
	Trace     TraceSpec    `json:"trace,omitempty"`
	// Telemetry enables sim-time sampled metrics and streaming export.
	Telemetry TelemetrySpec `json:"telemetry,omitempty"`
	// SampleDelays reservoir-samples per-packet delays of the inner
	// nodes so the Result carries delay percentiles, not just means.
	SampleDelays bool `json:"sampleDelays,omitempty"`
	// FastForward is accepted for compatibility with existing scenario
	// files and clients, validated, and otherwise ignored: every backoff
	// countdown already runs as one exact timer (DESIGN.md §12). The
	// result cache key normalizes it away.
	FastForward bool `json:"fastforward,omitempty"`
	// Partition is accepted for compatibility with existing scenario
	// files and clients ("", "auto" or "off"), validated, and otherwise
	// ignored: every run executes on one scheduler (DESIGN.md §14). The
	// result cache key normalizes it away.
	Partition string `json:"partition,omitempty"`
}

// ResolvedScheme parses the scenario's scheme name with core.ParseScheme.
func (sc Scenario) ResolvedScheme() (core.Scheme, error) {
	return core.ParseScheme(sc.Scheme)
}

// Validate checks the scenario's part kinds and parameter ranges. It is
// called by Build, but cheap enough to run up front when loading
// user-supplied files. Error messages name the offending field by its
// JSON path ("sim: topology.n: must be at least 2, ..."), so a bad
// hand-written file points straight at the line to fix.
func (sc Scenario) Validate() error {
	scheme, err := sc.ResolvedScheme()
	if err != nil {
		// core.ParseScheme reports in core's vocabulary ("core: unknown
		// scheme ..."); rewrap so the message names the JSON path like
		// every other validation error here.
		return fmt.Errorf("sim: scheme: %w", err)
	}
	if scheme != core.ORTSOCTS && (sc.BeamwidthDeg <= 0 || sc.BeamwidthDeg > 360) {
		return fmt.Errorf("sim: beamwidthDeg: must be in (0, 360] degrees for directional schemes, got %v", sc.BeamwidthDeg)
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("sim: duration: must be positive, got %v", sc.Duration)
	}
	if err := sc.validateTopology(); err != nil {
		return err
	}
	if err := sc.validateTraffic(); err != nil {
		return err
	}
	if err := sc.validateMobility(); err != nil {
		return err
	}
	switch sc.Trace.Kind {
	case "", "none", "recorder":
	default:
		return fmt.Errorf("sim: trace.kind: unknown trace sink %q (want \"recorder\" or \"none\")", sc.Trace.Kind)
	}
	if sc.Trace.Capacity < 0 {
		return fmt.Errorf("sim: trace.capacity: must be non-negative, got %d", sc.Trace.Capacity)
	}
	if sc.Ablations.AdaptiveRTS < 0 {
		return fmt.Errorf("sim: ablations.adaptiveRTS: must be non-negative, got %v", sc.Ablations.AdaptiveRTS)
	}
	if sc.FastForward && sc.PHY.NAVOracle {
		// The retired fast-forward mode could not run with oracle NAV
		// hints, and files combining the two were always rejected. The
		// switch is a no-op now, but the rule stays so a scenario file is
		// accepted or rejected the same way by every version.
		return fmt.Errorf("sim: fastforward: incompatible with phy.navOracle (fastforward is a no-op; drop it)")
	}
	switch sc.Partition {
	case "", "auto", "off":
	default:
		return fmt.Errorf("sim: partition: unknown mode %q (want \"auto\" or \"off\")", sc.Partition)
	}
	return sc.validateTelemetry()
}

func (sc Scenario) validateTopology() error {
	kind, _ := sc.kinds()
	if !slices.Contains(TopologyKinds(), kind) {
		return fmt.Errorf("sim: topology.kind: unknown topology kind %q (known: %v)", kind, TopologyKinds())
	}
	if sc.Topology.N < 2 {
		return fmt.Errorf("sim: topology.n: must be at least 2, got %d", sc.Topology.N)
	}
	if sc.Topology.Radius < 0 {
		return fmt.Errorf("sim: topology.radius: must be non-negative, got %v", sc.Topology.Radius)
	}
	if sc.Topology.Rings < 0 {
		return fmt.Errorf("sim: topology.rings: must be non-negative, got %d", sc.Topology.Rings)
	}
	if kind == "explicit" {
		if len(sc.Topology.Positions) == 0 {
			return fmt.Errorf("sim: topology.positions: explicit topology needs positions")
		}
		if sc.Topology.N > len(sc.Topology.Positions) {
			return fmt.Errorf("sim: topology.positions: has %d entries but topology.n=%d measured nodes",
				len(sc.Topology.Positions), sc.Topology.N)
		}
	} else if len(sc.Topology.Positions) > 0 {
		return fmt.Errorf("sim: topology.positions: kind %q does not take explicit positions", kind)
	}
	return nil
}

func (sc Scenario) validateTraffic() error {
	topo, kind := sc.kinds()
	if !slices.Contains(TrafficKinds(), kind) {
		return fmt.Errorf("sim: traffic.kind: unknown traffic kind %q (known: %v)", kind, TrafficKinds())
	}
	if sc.Traffic.PacketBytes < 0 {
		return fmt.Errorf("sim: traffic.packetBytes: must be non-negative, got %d", sc.Traffic.PacketBytes)
	}
	if sc.Traffic.QueueCap < 0 {
		return fmt.Errorf("sim: traffic.queueCap: must be non-negative, got %d", sc.Traffic.QueueCap)
	}
	if kind == "cbr" && sc.Traffic.OfferedLoadBps <= 0 {
		return fmt.Errorf("sim: traffic.offeredLoadBps: cbr traffic needs a positive load, got %v", sc.Traffic.OfferedLoadBps)
	}
	if kind != "cbr" && sc.Traffic.OfferedLoadBps != 0 {
		return fmt.Errorf("sim: traffic.offeredLoadBps: only meaningful for cbr traffic, got kind %q", kind)
	}
	if kind != "flows" {
		if len(sc.Traffic.Flows) > 0 {
			return fmt.Errorf("sim: traffic.flows: only meaningful for kind \"flows\", got kind %q", kind)
		}
		return nil
	}
	if len(sc.Traffic.Flows) == 0 {
		return fmt.Errorf("sim: traffic.flows: kind \"flows\" needs at least one flow")
	}
	if topo != "explicit" {
		return fmt.Errorf("sim: traffic.flows: flows index topology.positions, so topology.kind must be \"explicit\", got %q", topo)
	}
	nodes := len(sc.Topology.Positions)
	for i, f := range sc.Traffic.Flows {
		if f.Src < 0 || f.Src >= nodes || f.Dst < 0 || f.Dst >= nodes {
			return fmt.Errorf("sim: traffic.flows[%d]: node indices must be in [0, %d), got src %d dst %d", i, nodes, f.Src, f.Dst)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("sim: traffic.flows[%d]: node %d sends to itself", i, f.Src)
		}
	}
	return nil
}

func (sc Scenario) validateMobility() error {
	switch sc.Mobility.Kind {
	case "", "none":
		if sc.Mobility.MaxSpeed != 0 {
			return fmt.Errorf("sim: mobility.maxSpeed: set but mobility kind is %q; use kind \"waypoint\"", sc.Mobility.Kind)
		}
	case "waypoint":
		if sc.Mobility.MaxSpeed <= 0 {
			return fmt.Errorf("sim: mobility.maxSpeed: waypoint mobility needs a positive speed, got %v", sc.Mobility.MaxSpeed)
		}
	default:
		return fmt.Errorf("sim: mobility.kind: unknown mobility kind %q (want \"waypoint\" or \"none\")", sc.Mobility.Kind)
	}
	if sc.Mobility.RefreshInterval < 0 {
		return fmt.Errorf("sim: mobility.refreshInterval: must be non-negative, got %v", sc.Mobility.RefreshInterval)
	}
	return nil
}

func (sc Scenario) validateTelemetry() error {
	if sc.Telemetry.Interval < 0 {
		return fmt.Errorf("sim: telemetry.interval: not a positive duration, got %v", sc.Telemetry.Interval)
	}
	if len(sc.Telemetry.Metrics) > 0 && sc.Telemetry.Interval == 0 {
		return fmt.Errorf("sim: telemetry.metrics: set but telemetry.interval is zero (telemetry disabled)")
	}
	if sc.Telemetry.MaxNodes < 0 {
		return fmt.Errorf("sim: telemetry.maxNodes: must be non-negative, got %d", sc.Telemetry.MaxNodes)
	}
	if sc.Telemetry.MaxNodes > 0 && sc.Telemetry.Interval == 0 {
		return fmt.Errorf("sim: telemetry.maxNodes: set but telemetry.interval is zero (telemetry disabled)")
	}
	for _, name := range sc.Telemetry.Metrics {
		if names := TelemetryMetricNames(); !slices.Contains(names, name) {
			return fmt.Errorf("sim: telemetry.metrics: unknown metric %q (registered: %v)", name, names)
		}
	}
	return nil
}

// MarshalScenario renders the canonical byte form of a scenario: two-space
// indented JSON with a trailing newline. Scenario files kept in this form
// round-trip byte-identically through ParseScenario.
func MarshalScenario(sc Scenario) ([]byte, error) {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sim: marshal scenario: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteScenario writes the canonical form to w.
func WriteScenario(w io.Writer, sc Scenario) error {
	b, err := MarshalScenario(sc)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ParseScenario decodes a scenario from JSON. Unknown fields are
// rejected so typos in hand-written files fail loudly instead of
// silently running a different experiment, and so is anything but
// whitespace after the scenario object.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("sim: parse scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, fmt.Errorf("sim: parse scenario: data after the scenario object")
	}
	return sc, nil
}

// LoadScenario reads and parses (but does not validate) a scenario file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("sim: %w", err)
	}
	return ParseScenario(data)
}
