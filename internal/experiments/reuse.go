package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ReuseCell reports the network concurrency achieved by one scheme at
// one beamwidth: total transmit airtime divided by elapsed time (> 1
// means simultaneous transmissions coexisted) plus the airtime share of
// data frames.
type ReuseCell struct {
	Scheme       core.Scheme
	N            int
	BeamwidthDeg float64
	// Reuse summarizes the per-topology spatial-reuse factor.
	Reuse stats.Summary
	// DataShare summarizes the fraction of on-air time spent on data
	// frames (the rest is control overhead).
	DataShare stats.Summary
}

// ReuseStudy measures the spatial-reuse factor across schemes and
// beamwidths — the paper's central mechanism quantified directly rather
// than inferred from throughput. Each cell runs `topologies` shards on r.
// ORTS-OCTS never forms a beam, so, as in Grid, it runs once, at the
// first beamwidth, and its results stand for every other θ.
func ReuseStudy(r sim.Runner, base sim.Scenario, schemes []core.Scheme, n int, beamsDeg []float64, topologies int) ([]ReuseCell, error) {
	var cells []ReuseCell
	var omni []*sim.Result
	for _, beam := range beamsDeg {
		for _, s := range schemes {
			results := omni
			if s != core.ORTSOCTS || omni == nil {
				sc := base
				sc.Scheme = s.String()
				sc.Topology.N = n
				sc.BeamwidthDeg = beam
				var err error
				if results, err = r.Run(sc, topologies); err != nil {
					return nil, fmt.Errorf("reuse cell %v θ=%v: %w", s, beam, err)
				}
				if s == core.ORTSOCTS {
					omni = results
				}
			}
			var reuse, share stats.Stream
			for _, res := range results {
				reuse.Add(res.SpatialReuse)
				share.Add(res.AirtimeShare["DATA"])
			}
			cells = append(cells, ReuseCell{
				Scheme: s, N: n, BeamwidthDeg: beam,
				Reuse: reuse.Summarize(), DataShare: share.Summarize(),
			})
		}
	}
	return cells, nil
}

// WriteReuseStudy renders the study as a table.
func WriteReuseStudy(w io.Writer, cells []ReuseCell) error {
	if len(cells) == 0 {
		return fmt.Errorf("experiments: empty reuse study")
	}
	fmt.Fprintf(w, "Spatial-reuse study — concurrent-airtime factor (data share of airtime), N=%d\n", cells[0].N)
	fmt.Fprintf(w, "%10s %8s %18s %12s\n", "scheme", "theta", "reuse factor", "data share")
	for _, c := range cells {
		fmt.Fprintf(w, "%10s %7.0f° %18s %12.3f\n",
			c.Scheme, c.BeamwidthDeg,
			fmt.Sprintf("%.2f [%.2f,%.2f]", c.Reuse.Mean, c.Reuse.Min, c.Reuse.Max),
			c.DataShare.Mean)
	}
	return nil
}

// DelayCDFRow is one percentile row of a delay distribution comparison.
type DelayCDFRow struct {
	Percentile float64
	// DelayMsByScheme maps scheme name to the percentile delay in ms.
	DelayMsByScheme map[string]float64
}

// DelayCDF runs base once per scheme with per-packet delay sampling and
// tabulates the given percentiles — the tail view that Fig. 7's means
// hide (BEB unfairness lives in the tail).
func DelayCDF(r sim.Runner, base sim.Scenario, schemes []core.Scheme, percentiles []float64) ([]DelayCDFRow, error) {
	if len(percentiles) == 0 {
		return nil, fmt.Errorf("experiments: need at least one percentile")
	}
	samples := make(map[string]*sim.Result, len(schemes))
	for _, s := range schemes {
		sc := base
		sc.Scheme = s.String()
		sc.SampleDelays = true
		res, err := sim.RunScenario(sc, r.Options)
		if err != nil {
			return nil, fmt.Errorf("delay CDF %v: %w", s, err)
		}
		samples[s.String()] = res
	}
	rows := make([]DelayCDFRow, 0, len(percentiles))
	for _, p := range percentiles {
		row := DelayCDFRow{Percentile: p, DelayMsByScheme: map[string]float64{}}
		// Iterate the caller's scheme order, not the sample map's.
		for _, s := range schemes {
			row.DelayMsByScheme[s.String()] = samples[s.String()].DelayPercentileSec(p) * 1000
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteDelayCDF renders the percentile table.
func WriteDelayCDF(w io.Writer, rows []DelayCDFRow, schemes []core.Scheme) error {
	if len(rows) == 0 {
		return fmt.Errorf("experiments: empty delay CDF")
	}
	fmt.Fprintln(w, "Per-packet delay percentiles (ms)")
	fmt.Fprintf(w, "%12s", "percentile")
	for _, s := range schemes {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%11.0f%%", r.Percentile)
		for _, s := range schemes {
			fmt.Fprintf(w, " %12.1f", r.DelayMsByScheme[s.String()])
		}
		fmt.Fprintln(w)
	}
	return nil
}
