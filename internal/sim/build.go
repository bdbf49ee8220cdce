package sim

// Build wires a Scenario into a live simulation. The assembly order —
// topology draw, scheduler, channel, radios, neighbor bootstrap, per-node
// sources and MAC instances, starts, mobility — is part of the
// determinism contract: every random draw comes from either the topology
// stream (seeded Seed) or the protocol stream (seeded Seed^0x5eed) in a
// fixed sequence, so identical scenarios produce bit-identical results.
// Observers that draw (the delay reservoir, the telemetry node sample)
// have streams of their own. The kernel-determinism goldens in
// internal/experiments pin this.

import (
	"math"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/phy"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// delaySampleSeed salts the scenario seed for the delay reservoir's
// stream, as telemetrySampleSeed does for the telemetry node sample.
const delaySampleSeed = 0xde1a7

// Options carries the runtime (non-serializable) hooks a caller may
// attach alongside a declarative Scenario.
type Options struct {
	// Tracer receives every node's protocol events. It takes precedence
	// over the scenario's trace sink.
	Tracer trace.Tracer
	// Cache, when set, lets RunScenario (and therefore Runner.Run) serve
	// results from a content-addressed store instead of re-running
	// identical scenarios. Runs with a Tracer bypass the cache: its side
	// effects are not part of the content address.
	Cache *cache.Store
	// Telemetry receives the streaming export of a run whose scenario
	// enables telemetry (ignored otherwise); without a sink the run
	// samples nothing. A run with a sink bypasses the cache — like
	// Tracer, the sink's side effects cannot be replayed from a cached
	// result.
	Telemetry telemetry.Sink
	// Workers is ignored: every run executes on one scheduler. It stays
	// so that callers written against the retired partitioned kernel
	// still compile. Runner.Workers sizes the shard pool.
	Workers int
}

// Sim is a fully assembled, not-yet-started simulation.
type Sim struct {
	// Scenario is the spec the simulation was built from.
	Scenario Scenario
	// Sched is the run's event scheduler.
	Sched *des.Scheduler
	// Channel is the shared PHY.
	Channel *phy.Channel
	// Topology is the resolved node placement.
	Topology *topology.Topology
	// Nodes are the MAC instances, indexed by phy.NodeID.
	Nodes []*mac.Node
	// Tables are the per-node neighbor tables.
	Tables []*neighbor.Table
	// Recorder is the trace ring when the scenario asked for one
	// (trace kind "recorder" and no Options.Tracer override).
	Recorder *trace.Recorder

	starters []selfDriven
	delayRes *stats.Reservoir
	tel      *telemetryCollector
}

// Partitions reports how many event queues the run uses. It is always
// 1: every run executes on one scheduler (DESIGN.md §14).
func (s *Sim) Partitions() int { return 1 }

// Result holds the per-run metrics for the measured inner nodes. Field
// names are a stable contract: the kernel-determinism goldens are the
// canonical JSON encoding of this struct.
type Result struct {
	// ThroughputBps is each inner node's acknowledged goodput in bits/s.
	ThroughputBps []float64
	// DelaySec is each inner node's mean MAC service delay in seconds
	// (NaN markers are excluded: nodes that delivered nothing carry 0).
	DelaySec []float64
	// CollisionRatio is each inner node's ACK-timeout fraction of
	// data-phase handshakes.
	CollisionRatio []float64
	// Jain is the fairness index over the inner nodes' throughput.
	Jain float64
	// DelaySamplesSec holds a uniform sample of per-packet service delays
	// of the inner nodes (populated when Scenario.SampleDelays is set).
	DelaySamplesSec []float64
	// SpatialReuse is the network's concurrency factor: total transmit
	// airtime across all nodes divided by elapsed time. Values above 1
	// mean simultaneous transmissions coexisted — the reuse the paper's
	// directional schemes are built to unlock.
	SpatialReuse float64
	// AirtimeShare breaks the on-air time down by frame type (fractions
	// of TotalTxAirtime).
	AirtimeShare map[string]float64
	// NodeStats are the raw MAC counters for every node (all rings).
	NodeStats []mac.Stats
}

// MeanThroughputBps returns the average inner-node goodput.
func (r *Result) MeanThroughputBps() float64 { return mean(r.ThroughputBps) }

// MeanDelaySec returns the average inner-node service delay over nodes
// that delivered at least one packet.
func (r *Result) MeanDelaySec() float64 {
	var sum float64
	var n int
	for i, d := range r.DelaySec {
		if r.NodeStats[i].DelayCount > 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanCollisionRatio returns the average inner-node collision ratio.
func (r *Result) MeanCollisionRatio() float64 { return mean(r.CollisionRatio) }

// DelayPercentileSec returns the p-th percentile of the sampled
// per-packet delays (0 without SampleDelays).
func (r *Result) DelayPercentileSec(p float64) float64 {
	return stats.Percentile(r.DelaySamplesSec, p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// resolvedTrafficSpec fills the traffic defaults: kind "saturated",
// 1460-byte packets, a 64-packet CBR queue.
func (sc Scenario) resolvedTrafficSpec() TrafficSpec {
	spec := sc.Traffic
	_, spec.Kind = sc.kinds()
	if spec.PacketBytes == 0 {
		spec.PacketBytes = traffic.PaperPacketBytes
	}
	if spec.QueueCap == 0 {
		spec.QueueCap = 64
	}
	return spec
}

// Build assembles the scenario into a runnable simulation. The returned
// Sim is idle; call Run to execute it, or drive Sched directly for
// custom instrumentation.
func Build(sc Scenario, opts Options) (*Sim, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	scheme, err := sc.ResolvedScheme()
	if err != nil {
		return nil, err
	}
	topo, err := GenerateTopology(rand.New(rand.NewSource(sc.Seed)), sc)
	if err != nil {
		return nil, err
	}

	sched := des.New(sc.Seed ^ 0x5eed)
	phyParams := phy.DefaultParams()
	phyParams.Range = topo.Radius
	phyParams.Capture = sc.PHY.Capture
	phyParams.NAVOracle = sc.PHY.NAVOracle
	if sc.PHY.SINR {
		phyParams.SINRThreshold = 10
		phyParams.PathLoss = 2
		phyParams.NoiseFloor = 0.001
	}
	ch, err := phy.NewChannel(sched, phyParams)
	if err != nil {
		return nil, err
	}
	ch.AddRadios(topo.Positions)

	var tables []*neighbor.Table
	if sc.Ablations.HelloBootstrap {
		tables = neighbor.Bootstrap(sched, ch)
	} else {
		tables = neighbor.GroundTruth(ch)
	}

	tracer := opts.Tracer
	var recorder *trace.Recorder
	if tracer == nil && sc.Trace.Kind == "recorder" {
		capacity := sc.Trace.Capacity
		if capacity == 0 {
			capacity = 1024
		}
		recorder = trace.NewRecorder(capacity)
		tracer = recorder
	}

	var tel *telemetryCollector
	if sc.Telemetry.Enabled() && opts.Telemetry != nil {
		tel, err = newTelemetryCollector(sc, opts.Telemetry, ch, topo.InnerCount())
		if err != nil {
			return nil, err
		}
	}

	macCfg := mac.DefaultConfig(scheme, sc.BeamwidthDeg*math.Pi/180)
	macCfg.DisableEIFS = sc.Ablations.DisableEIFS
	macCfg.Tracer = tracer
	if tel != nil {
		macCfg.Metrics = tel.macMetrics()
	}
	macCfg.BasicAccess = sc.Ablations.BasicAccess
	macCfg.AdaptiveRTSStaleness = des.Time(sc.Ablations.AdaptiveRTS)
	// Every node reads one shared config; the inner nodes read a copy
	// that also reports each delivery's delay when the scenario samples
	// delays. The reservoir draws from a stream of its own: once it is
	// full, every delivery draws, and a draw from the protocol stream
	// would move every later backoff.
	innerCfg := &macCfg
	var delayRes *stats.Reservoir
	if sc.SampleDelays {
		delayRes = stats.NewReservoir(4096, rand.New(rand.NewSource(sc.Seed^delaySampleSeed)))
		inner := macCfg
		inner.OnDelivery = func(d des.Time) { delayRes.Add(d.Seconds()) }
		innerCfg = &inner
	}

	trafficSpec := sc.resolvedTrafficSpec()
	s := &Sim{
		Scenario: sc,
		Sched:    sched,
		Channel:  ch,
		Topology: topo,
		Nodes:    make([]*mac.Node, ch.NumRadios()),
		Tables:   tables,
		Recorder: recorder,
		delayRes: delayRes,
		tel:      tel,
	}
	// Per-node assembly is allocation-lean (DESIGN.md §15): MAC nodes
	// come from one backing array and share their config, the built-in
	// sources come from one backing per type, and every source draws
	// from the PHY's in-range list itself, which the ground-truth tables
	// share too, so the loop allocates nothing per node: a self-driven
	// source gets its node as a traffic.Kicker, not a bound method value.
	nodeBacking := make([]mac.Node, ch.NumRadios())
	sources := &sourceSlab{nodes: ch.NumRadios()}
	for i := 0; i < ch.NumRadios(); i++ {
		id := phy.NodeID(i)
		var src mac.Source = traffic.Empty{}
		if nbs := ch.InRange(id); len(nbs) > 0 {
			src, err = newSource(trafficEnv{
				sched: sched, rand: sched.Rand(), id: id, neighbors: nbs, spec: trafficSpec,
				sources: sources,
			})
			if err != nil {
				return nil, err
			}
		}
		nodeCfg := &macCfg
		if i < topo.InnerCount() {
			nodeCfg = innerCfg
		}
		s.Nodes[i] = &nodeBacking[i]
		if err := mac.NewInto(s.Nodes[i], sched, ch.Radio(id), tables[i], src, nodeCfg); err != nil {
			return nil, err
		}
		if sd, ok := src.(selfDriven); ok {
			sd.SetKick(s.Nodes[i])
			if s.starters == nil {
				s.starters = make([]selfDriven, 0, ch.NumRadios()-i)
			}
			s.starters = append(s.starters, sd)
		}
	}
	return s, nil
}

// Run starts every node and self-driven source, attaches mobility when
// the scenario asks for it, executes the measured duration and collects
// the inner-node metrics.
func (s *Sim) Run() (*Result, error) {
	sc := s.Scenario
	for _, n := range s.Nodes {
		n.Start()
	}
	for _, st := range s.starters {
		st.Start()
	}
	if sc.Mobility.Kind == "waypoint" {
		// The nodes walk the field the topology filled: the Rings·R disk.
		mob, err := mobility.New(s.Sched, s.Channel, mobility.Config{
			Bound:    float64(s.Topology.Rings) * s.Topology.Radius,
			MaxSpeed: sc.Mobility.MaxSpeed,
		})
		if err != nil {
			return nil, err
		}
		mob.Start()
		refresh := des.Time(sc.Mobility.RefreshInterval)
		if refresh <= 0 {
			refresh = des.Second
		}
		if err := neighbor.PeriodicRefresh(s.Sched, s.Channel, s.Tables, refresh); err != nil {
			return nil, err
		}
	}
	start := s.Sched.Now() // after any bootstrap
	duration := des.Time(sc.Duration)
	if s.tel != nil {
		if err := s.tel.startSampling(s, duration); err != nil {
			return nil, err
		}
	}
	s.Sched.Run(start + duration)
	if s.tel != nil {
		if err := s.tel.finish(); err != nil {
			return nil, err
		}
	}

	res := &Result{
		ThroughputBps:  make([]float64, s.Topology.InnerCount()),
		DelaySec:       make([]float64, s.Topology.InnerCount()),
		CollisionRatio: make([]float64, s.Topology.InnerCount()),
		NodeStats:      make([]mac.Stats, len(s.Nodes)),
	}
	for i, n := range s.Nodes {
		res.NodeStats[i] = n.Stats()
	}
	for i := 0; i < s.Topology.InnerCount(); i++ {
		st := res.NodeStats[i]
		res.ThroughputBps[i] = float64(st.BitsAcked) / duration.Seconds()
		res.DelaySec[i] = st.AvgDelay().Seconds()
		res.CollisionRatio[i] = st.CollisionRatio()
	}
	res.Jain = stats.JainIndex(res.ThroughputBps)
	res.SpatialReuse = s.Channel.TotalTxAirtime().Seconds() / duration.Seconds()
	if total := s.Channel.TotalTxAirtime(); total > 0 {
		res.AirtimeShare = make(map[string]float64, 4)
		for _, ft := range []phy.FrameType{phy.RTS, phy.CTS, phy.Data, phy.ACK} {
			res.AirtimeShare[ft.String()] = s.Channel.TxAirtime(ft).Seconds() / total.Seconds()
		}
	}
	if s.delayRes != nil {
		res.DelaySamplesSec = s.delayRes.Sample()
	}
	return res, nil
}
