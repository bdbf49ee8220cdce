package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
)

// MobilityCell is one point of a mobility sweep: one scheme at one
// maximum node speed, aggregated over topologies.
type MobilityCell struct {
	Scheme   core.Scheme
	MaxSpeed float64 // transmission ranges per second
	Batch    *BatchResult
}

// MobilitySweep runs the extension study the paper's future-work section
// gestures at: node speed swept from static to fast random-waypoint
// motion, with neighbor locations refreshed every
// base.Mobility.RefreshInterval. Directional schemes aim beams using
// snapshots up to one refresh interval old, so narrow beams increasingly
// miss moving receivers while the omni scheme is unaffected by location
// error. The static cells (speed 0) run without a mobility section.
func MobilitySweep(r sim.Runner, base sim.Scenario, schemes []core.Scheme, speeds []float64, topologies int) ([]MobilityCell, error) {
	if len(speeds) == 0 {
		return nil, fmt.Errorf("experiments: mobility sweep needs at least one speed")
	}
	var cells []MobilityCell
	for _, v := range speeds {
		if v < 0 {
			return nil, fmt.Errorf("experiments: speed must be non-negative, got %v", v)
		}
		for _, s := range schemes {
			sc := base
			sc.Scheme = s.String()
			sc.Mobility = sim.MobilitySpec{}
			if v > 0 {
				sc.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: v, RefreshInterval: base.Mobility.RefreshInterval}
			}
			batch, err := RunBatch(r, sc, topologies)
			if err != nil {
				return nil, fmt.Errorf("mobility sweep %v at speed %v: %w", s, v, err)
			}
			cells = append(cells, MobilityCell{Scheme: s, MaxSpeed: v, Batch: batch})
		}
	}
	return cells, nil
}

// PaperSpeeds returns a default sweep: static, pedestrian, vehicular
// (in transmission ranges per second; with R = 250 m, 0.04 R/s ≈ 10 m/s).
func PaperSpeeds() []float64 {
	return []float64{0, 0.02, 0.05, 0.1, 0.2, 0.5}
}

// WriteMobilitySweep renders the sweep: one row per speed, columns per
// scheme with delivered throughput (and collision ratio).
func WriteMobilitySweep(w io.Writer, cells []MobilityCell) error {
	if len(cells) == 0 {
		return fmt.Errorf("experiments: empty mobility sweep")
	}
	var (
		speeds  []float64
		schemes []core.Scheme
		seenV   = map[float64]bool{}
		seenS   = map[core.Scheme]bool{}
		byKey   = map[float64]map[core.Scheme]MobilityCell{}
	)
	for _, c := range cells {
		if !seenV[c.MaxSpeed] {
			seenV[c.MaxSpeed] = true
			speeds = append(speeds, c.MaxSpeed)
		}
		if !seenS[c.Scheme] {
			seenS[c.Scheme] = true
			schemes = append(schemes, c.Scheme)
		}
		if byKey[c.MaxSpeed] == nil {
			byKey[c.MaxSpeed] = map[core.Scheme]MobilityCell{}
		}
		byKey[c.MaxSpeed][c.Scheme] = c
	}
	fmt.Fprintf(w, "Mobility sweep — delivered Kb/s per node (collision ratio), %d topologies per point\n",
		cells[0].Batch.Runs)
	fmt.Fprintf(w, "%14s", "speed R/s")
	for _, s := range schemes {
		fmt.Fprintf(w, " %22s", s)
	}
	fmt.Fprintln(w)
	for _, v := range speeds {
		fmt.Fprintf(w, "%14.2f", v)
		for _, s := range schemes {
			c, ok := byKey[v][s]
			if !ok {
				fmt.Fprintf(w, " %22s", "-")
				continue
			}
			fmt.Fprintf(w, " %22s", fmt.Sprintf("%.1f (%.3f)",
				c.Batch.ThroughputBps.Mean/1000, c.Batch.CollisionRatio.Mean))
		}
		fmt.Fprintln(w)
	}
	return nil
}
