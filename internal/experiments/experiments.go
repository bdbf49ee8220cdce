// Package experiments regenerates every table and figure of the paper's
// evaluation: the analytical Fig. 5 curves, the simulated throughput
// (Fig. 6) and delay (Fig. 7) comparisons, and the collision-ratio and
// fairness statistics that the paper describes but omits for space.
//
// A study is a sweep over a base sim.Scenario: each study function takes
// a sim.Runner (worker pool, cache, tracer and telemetry hooks) and the
// base, and sets each cell's varied fields on a copy of it. Every other
// field of the base reaches every cell unchanged, so a scenario file can
// drive any study.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SimConfig is the six-field run description perfbench compiles
// against; it is kept for perfbench only, together with its Scenario
// method and RunGrid. Everything else in the repository describes a run
// with a sim.Scenario, whose fields these mirror.
type SimConfig struct {
	Scheme       core.Scheme
	BeamwidthDeg float64
	N            int
	Seed         int64
	Duration     des.Time
	Workers      int // shard pool size (0 means GOMAXPROCS)
}

// Scenario converts the config to its declarative equivalent.
func (c SimConfig) Scenario() sim.Scenario {
	return sim.Scenario{
		Scheme:       c.Scheme.String(),
		BeamwidthDeg: c.BeamwidthDeg,
		Seed:         c.Seed,
		Duration:     sim.Duration(c.Duration),
		Topology:     sim.TopologySpec{N: c.N},
	}
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
func AggregateBatch(results []*sim.Result) *BatchResult {
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

// RunBatch runs base over `topologies` independent random topologies
// (seeds base.Seed, base.Seed+1, ...) on r's bounded worker pool and
// aggregates the per-topology means. Errors are deterministic: the
// lowest-indexed failing shard decides the returned error regardless of
// goroutine scheduling.
func RunBatch(r sim.Runner, base sim.Scenario, topologies int) (*BatchResult, error) {
	results, err := r.Run(base, topologies)
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

// Grid evaluates every (scheme, N, beamwidth) combination over the
// given number of topologies, in (N, beamwidth, scheme) order; the base
// supplies every other field. ORTS-OCTS never forms a beam, so it runs
// once per N, at the first beamwidth, and that batch fills its cell at
// every other beamwidth.
func Grid(r sim.Runner, base sim.Scenario, schemes []core.Scheme, ns []int, beamsDeg []float64, topologies int) ([]GridCell, error) {
	var cells []GridCell
	for _, n := range ns {
		var omni *BatchResult
		for _, beam := range beamsDeg {
			for _, s := range schemes {
				if s == core.ORTSOCTS && omni != nil {
					cells = append(cells, GridCell{Scheme: s, N: n, BeamwidthDeg: beam, Batch: omni})
					continue
				}
				sc := base
				sc.Scheme = s.String()
				sc.Topology.N = n
				sc.BeamwidthDeg = beam
				batch, err := RunBatch(r, sc, topologies)
				if err != nil {
					return nil, fmt.Errorf("grid cell %v N=%d θ=%v: %w", s, n, beam, err)
				}
				if s == core.ORTSOCTS {
					omni = batch
				}
				cells = append(cells, GridCell{Scheme: s, N: n, BeamwidthDeg: beam, Batch: batch})
			}
		}
	}
	return cells, nil
}

// RunGrid is Grid over base.Scenario() with base.Workers workers. It is
// kept for perfbench only, like SimConfig.
func RunGrid(base SimConfig, schemes []core.Scheme, ns []int, beamsDeg []float64, topologies int) ([]GridCell, error) {
	return Grid(sim.Runner{Workers: base.Workers}, base.Scenario(), schemes, ns, beamsDeg, topologies)
}
