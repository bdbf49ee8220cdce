package sim

// Telemetry assembly: the canonical metric catalog, the wiring of
// histograms into the MAC config, and the collector that samples
// per-node and aggregate series on the simulation clock and writes the
// end-of-run metric records.
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
	"slices"

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
// Scenario.Telemetry.Metrics and the order contract for exports (metric
// records always appear in catalog order).
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

// telemetryMetricDef describes one catalog entry: a histogram the MAC
// fills, or a count the channel already keeps. Histogram bounds are
// part of the export contract: changing them changes golden bytes.
type telemetryMetricDef struct {
	name   string
	bounds []float64                // histograms only
	count  func(*phy.Channel) int64 // counters only: the channel's running count
}

// telemetryCatalog lists every metric in export order.
var telemetryCatalog = []telemetryMetricDef{
	{name: MetricBackoffSlots, bounds: []float64{0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023}},
	{name: MetricCW, bounds: []float64{31, 63, 127, 255, 511, 1023}},
	{name: MetricHandshakeUs, bounds: []float64{1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000}},
	{name: MetricNAVUs, bounds: []float64{100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000}},
	{name: MetricTxFrames, count: (*phy.Channel).TotalTxCount},
	{name: MetricRxFrames, count: (*phy.Channel).RxFrames},
	{name: MetricRxErrors, count: (*phy.Channel).RxErrors},
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

// telemetryMetric is one metric a run exports.
type telemetryMetric struct {
	telemetryMetricDef
	hist *stats.Histogram // histograms: the instrument wired into the MAC
	base int64            // counters: the channel's count when the collector was created
}

// telemetryCollector owns a run's metrics and series state. It is the
// des.Event of its own sample ticks, which must only read simulation
// state — never draw randomness — so enabling telemetry leaves results
// bit-identical (pinned by the goldens).
type telemetryCollector struct {
	s        *Sim
	sink     telemetry.Sink
	interval des.Time
	start    des.Time

	metrics []telemetryMetric // exported metrics, in catalog order

	// prevBits/prevT hold the previous sample's cumulative acknowledged
	// bits per inner node and its time, for the instantaneous
	// (per-window) series.
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

// newTelemetryCollector prepares sc's metric selection: it builds the
// histograms for Build to wire into the MAC and records the channel's
// counts as the counters' bases, so they leave out what went on the air
// before (a HELLO bootstrap has already run on ch by now).
func newTelemetryCollector(sc Scenario, sink telemetry.Sink, ch *phy.Channel, innerCount int) (*telemetryCollector, error) {
	c := &telemetryCollector{
		sink:     sink,
		interval: des.Time(sc.Telemetry.Interval),
		metrics:  make([]telemetryMetric, 0, len(telemetryCatalog)),
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
	for _, d := range telemetryCatalog {
		if len(sc.Telemetry.Metrics) > 0 && !slices.Contains(sc.Telemetry.Metrics, d.name) {
			continue // left out: nothing wired, nothing exported
		}
		m := telemetryMetric{telemetryMetricDef: d}
		if d.count != nil {
			m.base = d.count(ch)
		} else {
			h, err := stats.NewHistogram(d.bounds)
			if err != nil {
				return nil, fmt.Errorf("sim: telemetry metric %q: %w", d.name, err)
			}
			m.hist = h
		}
		c.metrics = append(c.metrics, m)
	}
	return c, nil
}

// macMetrics returns the histograms for Build to put in the MAC config;
// one the scenario's filter leaves out stays nil.
func (c *telemetryCollector) macMetrics() mac.Metrics {
	hist := func(name string) *stats.Histogram {
		for _, m := range c.metrics {
			if m.name == name {
				return m.hist
			}
		}
		return nil
	}
	return mac.Metrics{
		Backoff:     hist(MetricBackoffSlots),
		CW:          hist(MetricCW),
		HandshakeUs: hist(MetricHandshakeUs),
		NAVUs:       hist(MetricNAVUs),
	}
}

// header renders the export header for the run.
func (c *telemetryCollector) header(duration des.Time) telemetry.Header {
	s := c.s
	names := make([]string, len(c.metrics))
	for i, m := range c.metrics {
		names[i] = m.name
	}
	return telemetry.Header{
		Format:       telemetry.FormatV1,
		Scenario:     s.Scenario.Name,
		Scheme:       s.Scenario.Scheme,
		Seed:         s.Scenario.Seed,
		Nodes:        len(s.Nodes),
		InnerNodes:   s.Topology.InnerCount(),
		IntervalNs:   int64(c.interval),
		DurationNs:   int64(duration),
		Metrics:      names,
		SampledNodes: c.nSampled,
	}
}

// startSampling writes the header and schedules the first tick one
// interval from now. Called by Run at measurement start (after any
// bootstrap), so tick times align with the measured window.
func (c *telemetryCollector) startSampling(s *Sim, duration des.Time) error {
	c.s = s
	if err := c.sink.WriteHeader(c.header(duration)); err != nil {
		return err
	}
	c.start = s.Sched.Now()
	c.prevT = c.start
	s.Sched.ScheduleEvent(c.interval, c)
	return nil
}

// Fire takes one sample and schedules the next tick. The tick left
// pending at the end of a run is harmless: the scheduler never reaches
// it.
func (c *telemetryCollector) Fire() {
	c.sample(c.s.Sched.Now())
	c.s.Sched.ScheduleEvent(c.interval, c)
}

// sample emits one per-node record per exported inner node (all of
// them, or the deterministic telemetry.maxNodes sample) plus one
// aggregate record covering every inner node exactly. All floats use
// the same expressions as Result collection:
// cumulative throughput is BitsAcked divided by elapsed seconds, the
// aggregate is the plain mean in node-index order, and fairness is
// stats.JainIndex over the cumulative series.
func (c *telemetryCollector) sample(now des.Time) {
	if c.err != nil {
		return // sink already failed; stop producing
	}
	elapsed := now - c.start
	window := now - c.prevT
	t := int64(elapsed)
	var instSum, cumSum, collSum float64
	for i := range c.cums {
		st := c.s.Nodes[i].Stats()
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

// finish takes the final sample if the last tick came earlier (the
// duration need not be a multiple of the interval, and the end-of-run
// state is what reproduces the Result's aggregates), writes one record
// per exported metric in catalog order, and surfaces any sink error
// met along the way.
func (c *telemetryCollector) finish() error {
	if now := c.s.Sched.Now(); now > c.prevT {
		c.sample(now)
	}
	if c.err != nil {
		return fmt.Errorf("sim: telemetry export: %w", c.err)
	}
	t := int64(c.prevT - c.start)
	for _, m := range c.metrics {
		rec := telemetry.Record{T: t, Node: -1, Name: m.name}
		if m.hist == nil {
			rec.Kind = telemetry.KindCounter
			rec.Count = m.count(c.s.Channel) - m.base
		} else {
			rec.Kind = telemetry.KindHist
			rec.Count, rec.Sum = m.hist.Count(), m.hist.Sum()
			rec.Bounds, rec.Counts = m.hist.Bounds(), m.hist.Counts()
		}
		if err := c.sink.WriteRecord(rec); err != nil {
			return fmt.Errorf("sim: telemetry export: %w", err)
		}
	}
	return nil
}
