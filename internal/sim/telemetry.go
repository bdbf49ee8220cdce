package sim

// Telemetry assembly: the canonical metric catalog, the wiring of
// instruments into the MAC/PHY configs, and the collector that samples
// per-node and aggregate series on the simulation clock.
//
// The collector's end-of-run sample computes every aggregate with the
// exact same expressions (and the same node iteration order) as the
// Result collection in Run, so the final "agg" record of an export
// reproduces the run's CollisionRatio / Jain / mean throughput
// bit-for-bit — cmd/simtrace relies on this to cross-check exports
// against experiment output without tolerance windows.

import (
	"fmt"
	"math/rand"

	"repro/internal/des"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// telemetrySampleSeed salts the scenario seed for the per-node sample
// draw, so bounding cardinality never perturbs topology or protocol
// randomness (which use Seed and Seed^0x5eed respectively).
const telemetrySampleSeed = 0x7e1e6e7a

// Canonical metric names. The catalog is the validation contract for
// Scenario.Telemetry.Metrics and the registration-order contract for
// exports (metric records always appear in catalog order).
const (
	// MetricBackoffSlots observes every backoff draw, in slots.
	MetricBackoffSlots = "mac/backoff-slots"
	// MetricCW observes the contention window at every draw, in slots.
	MetricCW = "mac/cw"
	// MetricHandshakeUs observes the MAC service time of acknowledged
	// packets, in microseconds.
	MetricHandshakeUs = "mac/handshake-us"
	// MetricNAVUs observes NAV durations adopted via virtual carrier
	// sensing, in microseconds.
	MetricNAVUs = "mac/nav-us"
	// MetricTxFrames counts frames put on the air, network-wide.
	MetricTxFrames = "phy/tx-frames"
	// MetricRxFrames counts successfully decoded receptions.
	MetricRxFrames = "phy/rx-frames"
	// MetricRxErrors counts garbled receptions (collision damage).
	MetricRxErrors = "phy/rx-errors"
)

// telemetryMetricDef describes one catalog entry. Histogram bounds are
// part of the export contract: changing them changes golden bytes.
type telemetryMetricDef struct {
	name   string
	bounds []float64 // nil for counters
}

// telemetryCatalog lists every metric in registration (= export) order.
var telemetryCatalog = []telemetryMetricDef{
	{MetricBackoffSlots, []float64{0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023}},
	{MetricCW, []float64{31, 63, 127, 255, 511, 1023}},
	{MetricHandshakeUs, []float64{1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000}},
	{MetricNAVUs, []float64{100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000}},
	{MetricTxFrames, nil},
	{MetricRxFrames, nil},
	{MetricRxErrors, nil},
}

// TelemetryMetricNames returns the canonical metric catalog in export
// order (the names Scenario.Telemetry.Metrics may reference).
func TelemetryMetricNames() []string {
	names := make([]string, len(telemetryCatalog))
	for i, d := range telemetryCatalog {
		names[i] = d.name
	}
	return names
}

// knownTelemetryMetric reports whether name is in the catalog.
func knownTelemetryMetric(name string) bool {
	for _, d := range telemetryCatalog {
		if d.name == name {
			return true
		}
	}
	return false
}

// telemetryCollector owns a run's registry, instruments and series
// state. Its probe runs as a scheduler event and must only read
// simulation state — never draw randomness — so enabling telemetry
// leaves results bit-identical (pinned by the goldens).
type telemetryCollector struct {
	sink     telemetry.Sink
	reg      *telemetry.Registry
	interval des.Time
	start    des.Time
	sampler  *telemetry.Sampler

	// Wired into the MAC/PHY configs at Build time; fields stay nil for
	// metrics excluded by the scenario's filter.
	macMetrics mac.Metrics
	phyMetrics phy.Metrics

	// prevBits/prevT hold the previous sample's cumulative acknowledged
	// bits per inner node, for the instantaneous (per-window) series.
	prevBits []int64
	prevT    des.Time
	cums     []float64 // scratch: per-inner-node cumulative throughput

	// exported gates per-node records when the scenario bounds series
	// cardinality (telemetry.maxNodes); nil exports every inner node.
	// Aggregates are computed over all inner nodes either way.
	exported []bool
	nSampled int // nodes emitting records; 0 when unbounded

	err error // first sink error; surfaced by finish
}

// newTelemetryCollector builds the registry for sc's metric selection
// and prepares instruments for Build to wire into the layers.
func newTelemetryCollector(sc Scenario, sink telemetry.Sink, innerCount int) (*telemetryCollector, error) {
	c := &telemetryCollector{
		sink:     sink,
		reg:      telemetry.NewRegistry(),
		interval: des.Time(sc.Telemetry.Interval),
		prevBits: make([]int64, innerCount),
		cums:     make([]float64, innerCount),
	}
	if k := sc.Telemetry.MaxNodes; k > 0 && k < innerCount {
		// Deterministic sample of k inner nodes: a partial Fisher-Yates
		// over the index range, seeded only from the scenario, so the
		// same scenario always exports the same node set regardless of
		// sink, shard or worker count.
		rng := rand.New(rand.NewSource(sc.Seed ^ telemetrySampleSeed))
		idx := make([]int, innerCount)
		for i := range idx {
			idx[i] = i
		}
		c.exported = make([]bool, innerCount)
		for i := 0; i < k; i++ {
			j := i + rng.Intn(innerCount-i)
			idx[i], idx[j] = idx[j], idx[i]
			c.exported[idx[i]] = true
		}
		c.nSampled = k
	}
	var keep map[string]bool
	if len(sc.Telemetry.Metrics) > 0 {
		keep = make(map[string]bool, len(sc.Telemetry.Metrics))
		for _, n := range sc.Telemetry.Metrics {
			keep[n] = true
		}
	}
	for _, d := range telemetryCatalog {
		if keep != nil && !keep[d.name] {
			continue // instrument stays nil: zero cost, nothing exported
		}
		var err error
		if d.bounds == nil {
			var ctr *telemetry.Counter
			if ctr, err = c.reg.Counter(d.name); err == nil {
				switch d.name {
				case MetricTxFrames:
					c.phyMetrics.TxFrames = ctr
				case MetricRxFrames:
					c.phyMetrics.RxFrames = ctr
				case MetricRxErrors:
					c.phyMetrics.RxErrors = ctr
				}
			}
		} else {
			var h *telemetry.Histogram
			if h, err = c.reg.Histogram(d.name, d.bounds); err == nil {
				switch d.name {
				case MetricBackoffSlots:
					c.macMetrics.Backoff = h
				case MetricCW:
					c.macMetrics.CW = h
				case MetricHandshakeUs:
					c.macMetrics.HandshakeUs = h
				case MetricNAVUs:
					c.macMetrics.NAVUs = h
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// header renders the export header for a run of s.
func (c *telemetryCollector) header(s *Sim, duration des.Time) telemetry.Header {
	return telemetry.Header{
		Format:       telemetry.FormatV1,
		Scenario:     s.Scenario.Name,
		Scheme:       s.Scenario.Scheme,
		Seed:         s.Scenario.Seed,
		Nodes:        len(s.Nodes),
		InnerNodes:   s.Topology.InnerCount(),
		IntervalNs:   int64(c.interval),
		DurationNs:   int64(duration),
		Metrics:      c.reg.Names(),
		SampledNodes: c.nSampled,
	}
}

// startSampling writes the header and schedules the probe. Called by
// Run at measurement start (after any bootstrap), so tick times align
// with the measured window.
func (c *telemetryCollector) startSampling(s *Sim, duration des.Time) error {
	if err := c.sink.WriteHeader(c.header(s, duration)); err != nil {
		return err
	}
	c.start = s.Sched.Now()
	c.prevT = c.start
	sampler, err := telemetry.NewSampler(s.Sched, c.interval, func(now des.Time) {
		c.sample(s, now)
	})
	if err != nil {
		return err
	}
	c.sampler = sampler
	sampler.Start()
	return nil
}

// sample emits one per-node record per exported inner node (all of
// them, or the deterministic telemetry.maxNodes sample) plus one
// aggregate record covering every inner node exactly. All floats use
// the same expressions as Result collection:
// cumulative throughput is BitsAcked divided by elapsed seconds, the
// aggregate is the plain mean in node-index order, and fairness is
// stats.JainIndex over the cumulative series.
func (c *telemetryCollector) sample(s *Sim, now des.Time) {
	if c.err != nil {
		return // sink already failed; stop producing
	}
	elapsed := now - c.start
	window := now - c.prevT
	t := int64(elapsed)
	var instSum, cumSum, collSum float64
	for i := range c.cums {
		st := s.Nodes[i].Stats()
		cum := float64(st.BitsAcked) / elapsed.Seconds()
		inst := float64(st.BitsAcked-c.prevBits[i]) / window.Seconds()
		coll := st.CollisionRatio()
		c.cums[i] = cum
		c.prevBits[i] = st.BitsAcked
		instSum += inst
		cumSum += cum
		collSum += coll
		if c.err == nil && (c.exported == nil || c.exported[i]) {
			c.err = c.sink.WriteRecord(telemetry.Record{
				Kind: telemetry.KindNode, T: t, Node: i,
				ThroughputBps: inst, CumThroughputBps: cum, CollisionRatio: coll,
				BitsAcked: st.BitsAcked, Successes: st.Successes,
				ACKTimeouts: st.ACKTimeouts, Drops: st.Drops,
			})
		}
	}
	n := float64(len(c.cums))
	if c.err == nil {
		c.err = c.sink.WriteRecord(telemetry.Record{
			Kind: telemetry.KindAgg, T: t, Node: -1,
			ThroughputBps:    instSum / n,
			CumThroughputBps: cumSum / n,
			CollisionRatio:   collSum / n,
			Jain:             stats.JainIndex(c.cums),
		})
	}
	c.prevT = now
}

// finish flushes the final sample (the end-of-run state, whatever the
// duration's remainder modulo the interval) and the metric records, and
// surfaces any sink error encountered along the way.
func (c *telemetryCollector) finish(s *Sim) error {
	c.sampler.Flush()
	if c.err != nil {
		return fmt.Errorf("sim: telemetry export: %w", c.err)
	}
	t := des.Time(c.sampler.LastSample() - c.start)
	if err := c.reg.WriteMetrics(c.sink, t); err != nil {
		return fmt.Errorf("sim: telemetry export: %w", err)
	}
	return nil
}
