// Package dirca (DIRectional Collision Avoidance) is the public API of
// this reproduction of "Collision Avoidance in Single-Channel Ad Hoc
// Networks Using Directional Antennas" (Wang & Garcia-Luna-Aceves,
// ICDCS 2003).
//
// It exposes two entry points:
//
//   - The analytical model (Section 2 of the paper): saturation
//     throughput of the ORTS-OCTS, DRTS-DCTS and DRTS-OCTS
//     collision-avoidance schemes on a Poisson plane of nodes, via
//     Throughput, MaxThroughput and Fig5Table.
//
//   - The discrete-event simulator (Section 4): a full IEEE 802.11 DCF
//     implementation with directional-transmission variants, via
//     Simulate and SimulateBatch. A run is described by a Scenario, the
//     same declarative spec `netsim -scenario` reads: the paper's
//     concentric rings by default, or hand-placed nodes with explicit
//     flows (topology kind "explicit", traffic kind "flows").
//
// A minimal session:
//
//	p, th, _ := dirca.MaxThroughput(dirca.DRTSDCTS, dirca.ModelParams{
//		N: 5, Beamwidth: math.Pi / 6, Lengths: dirca.PaperLengths(),
//	})
//	res, _ := dirca.Simulate(dirca.Scenario{
//		Scheme: "DRTS-DCTS", BeamwidthDeg: 30, Seed: 1,
//		Duration: 5 * dirca.Second, Topology: dirca.TopologySpec{N: 5},
//	})
package dirca

import (
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/sim"
)

// Scheme identifies a collision-avoidance scheme.
type Scheme = core.Scheme

// The three schemes analyzed in the paper.
const (
	// ORTSOCTS transmits every frame omni-directionally (standard
	// IEEE 802.11 collision avoidance).
	ORTSOCTS = core.ORTSOCTS
	// DRTSDCTS transmits every frame directionally.
	DRTSDCTS = core.DRTSDCTS
	// DRTSOCTS transmits RTS/DATA/ACK directionally and the CTS
	// omni-directionally.
	DRTSOCTS = core.DRTSOCTS
)

// Schemes returns all three schemes in the paper's order.
func Schemes() []Scheme { return core.Schemes() }

// Duration is a scenario duration in nanoseconds; it serializes as a
// Go duration string ("300ms").
type Duration = sim.Duration

// Duration units, for writing Scenario durations (5 * dirca.Second).
const (
	Microsecond = Duration(des.Microsecond)
	Millisecond = Duration(des.Millisecond)
	Second      = Duration(des.Second)
)

// ModelParams parameterizes the analytical model: density N (average
// nodes per coverage disk), beamwidth in radians, and the packet lengths
// in slots.
type ModelParams = core.Params

// Lengths holds analytical packet lengths in slots.
type Lengths = core.Lengths

// PaperLengths returns the Section 3 configuration: 5-slot control
// packets and 100-slot data packets.
func PaperLengths() Lengths { return core.PaperLengths() }

// Throughput returns the normalized saturation throughput of scheme s at
// per-slot attempt probability p.
func Throughput(s Scheme, p float64, mp ModelParams) (float64, error) {
	return core.Throughput(s, p, mp)
}

// MaxThroughput returns the attempt probability maximizing throughput and
// the achieved maximum. Pass pMax = 0 for the default search bound.
func MaxThroughput(s Scheme, mp ModelParams, pMax float64) (bestP, bestTh float64, err error) {
	return core.MaxThroughput(s, mp, pMax)
}

// Fig5Row is one analytical beamwidth point (all three schemes).
type Fig5Row = experiments.Fig5Row

// Fig5Table computes the paper's Fig. 5 sweep (max throughput vs
// beamwidth, 15°..180°) for each density in ns.
func Fig5Table(ns []float64) ([]Fig5Row, error) { return experiments.Fig5(ns) }

// Scenario describes one simulation run: the same spec `netsim
// -scenario` reads, with the same sections. A Flow is a saturated
// src→dst demand of traffic kind "flows", as indices into
// TopologySpec.Positions; a Point is a position in units of the
// transmission range. See internal/sim for the field documentation and
// the topology, traffic and scheme names it accepts.
type (
	Scenario      = sim.Scenario
	TopologySpec  = sim.TopologySpec
	TrafficSpec   = sim.TrafficSpec
	MobilitySpec  = sim.MobilitySpec
	PHYSpec       = sim.PHYSpec
	AblationSpec  = sim.AblationSpec
	TraceSpec     = sim.TraceSpec
	TelemetrySpec = sim.TelemetrySpec
	Flow          = sim.Flow
	Point         = geom.Point
)

// SimResult holds per-run metrics for the measured inner nodes.
type SimResult = sim.Result

// BatchResult aggregates a scenario over many random topologies.
type BatchResult = experiments.BatchResult

// Simulate runs one complete simulation and reports the metrics of the
// scenario's measured nodes.
func Simulate(sc Scenario) (*SimResult, error) { return sim.RunScenario(sc, sim.Options{}) }

// SimulateBatch runs sc over the given number of independent topologies
// (seeds sc.Seed, sc.Seed+1, ...) in parallel and aggregates the
// per-topology means.
func SimulateBatch(sc Scenario, topologies int) (*BatchResult, error) {
	return experiments.RunBatch(sim.Runner{}, sc, topologies)
}
