package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
)

// LoadCell is one point of an offered-load sweep: one scheme at one
// per-node offered load, aggregated over topologies.
type LoadCell struct {
	Scheme     core.Scheme
	OfferedBps float64
	Batch      *BatchResult
}

// LoadSweep runs the classic offered-load study the paper's saturation
// analysis brackets: per-node CBR load swept from light to beyond
// saturation, for each scheme. Each cell sets the scheme and cbr traffic
// at its load on a copy of base.
func LoadSweep(r sim.Runner, base sim.Scenario, schemes []core.Scheme, loadsBps []float64, topologies int) ([]LoadCell, error) {
	if len(loadsBps) == 0 {
		return nil, fmt.Errorf("experiments: load sweep needs at least one load")
	}
	var cells []LoadCell
	for _, load := range loadsBps {
		if load <= 0 {
			return nil, fmt.Errorf("experiments: offered load must be positive, got %v", load)
		}
		for _, s := range schemes {
			sc := base
			sc.Scheme = s.String()
			sc.Traffic.Kind = "cbr"
			sc.Traffic.OfferedLoadBps = load
			batch, err := RunBatch(r, sc, topologies)
			if err != nil {
				return nil, fmt.Errorf("load sweep %v at %v b/s: %w", s, load, err)
			}
			cells = append(cells, LoadCell{Scheme: s, OfferedBps: load, Batch: batch})
		}
	}
	return cells, nil
}

// PaperLoads returns a default sweep bracketing the saturation point of
// the paper's configurations: 25 Kb/s to 800 Kb/s per node.
func PaperLoads() []float64 {
	return []float64{25_000, 50_000, 100_000, 200_000, 400_000, 800_000}
}

// WriteLoadSweep renders the sweep: one row per offered load, columns
// per scheme with delivered throughput and delay.
func WriteLoadSweep(w io.Writer, cells []LoadCell) error {
	if len(cells) == 0 {
		return fmt.Errorf("experiments: empty load sweep")
	}
	var (
		loads   []float64
		schemes []core.Scheme
		seenL   = map[float64]bool{}
		seenS   = map[core.Scheme]bool{}
		byKey   = map[float64]map[core.Scheme]LoadCell{}
	)
	for _, c := range cells {
		if !seenL[c.OfferedBps] {
			seenL[c.OfferedBps] = true
			loads = append(loads, c.OfferedBps)
		}
		if !seenS[c.Scheme] {
			seenS[c.Scheme] = true
			schemes = append(schemes, c.Scheme)
		}
		if byKey[c.OfferedBps] == nil {
			byKey[c.OfferedBps] = map[core.Scheme]LoadCell{}
		}
		byKey[c.OfferedBps][c.Scheme] = c
	}
	fmt.Fprintf(w, "Offered-load sweep — delivered Kb/s per node (delay ms), %d topologies per point\n",
		cells[0].Batch.Runs)
	fmt.Fprintf(w, "%14s", "offered Kb/s")
	for _, s := range schemes {
		fmt.Fprintf(w, " %22s", s)
	}
	fmt.Fprintln(w)
	for _, load := range loads {
		fmt.Fprintf(w, "%14.0f", load/1000)
		for _, s := range schemes {
			c, ok := byKey[load][s]
			if !ok {
				fmt.Fprintf(w, " %22s", "-")
				continue
			}
			fmt.Fprintf(w, " %22s", fmt.Sprintf("%.1f (%.1f)",
				c.Batch.ThroughputBps.Mean/1000, c.Batch.DelaySec.Mean*1000))
		}
		fmt.Fprintln(w)
	}
	return nil
}
