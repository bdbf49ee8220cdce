package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/phy"
)

// WriteFig5 renders the analytical Fig. 5 table to w, one block per N.
func WriteFig5(w io.Writer, rows []Fig5Row) error {
	var lastN = -1.0
	for _, r := range rows {
		if r.N != lastN {
			if lastN >= 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "Fig. 5 — max throughput vs beamwidth (N=%g, l_rts=l_cts=l_ack=5, l_data=100)\n", r.N)
			fmt.Fprintf(w, "%10s %12s %12s %12s\n", "theta_deg", "ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS")
			lastN = r.N
		}
		fmt.Fprintf(w, "%10.0f %12.4f %12.4f %12.4f\n", r.BeamwidthDeg, r.ORTSOCTS, r.DRTSDCTS, r.DRTSOCTS)
	}
	return nil
}

// WriteFig5CSV renders the Fig. 5 table as CSV.
func WriteFig5CSV(w io.Writer, rows []Fig5Row) error {
	fmt.Fprintln(w, "n,theta_deg,orts_octs,drts_dcts,drts_octs")
	for _, r := range rows {
		fmt.Fprintf(w, "%g,%.0f,%.6f,%.6f,%.6f\n", r.N, r.BeamwidthDeg, r.ORTSOCTS, r.DRTSDCTS, r.DRTSOCTS)
	}
	return nil
}

// Metric selects which batch statistic a grid report shows.
type Metric int

// Metrics available from a simulation grid.
const (
	MetricThroughput Metric = iota + 1 // Fig. 6
	MetricDelay                        // Fig. 7
	MetricCollision                    // Section 4 collision-ratio study
	MetricFairness                     // Section 4 fairness observations
)

var metricNames = map[Metric]string{
	MetricThroughput: "throughput (Kb/s per inner node)",
	MetricDelay:      "delay (ms)",
	MetricCollision:  "collision ratio",
	MetricFairness:   "Jain fairness index",
}

// String names the metric.
func (m Metric) String() string {
	if n, ok := metricNames[m]; ok {
		return n
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// value extracts (mean, min, max) of the metric in display units.
func (m Metric) value(c GridCell) (mean, min, max float64) {
	switch m {
	case MetricThroughput:
		s := c.Batch.ThroughputBps
		return s.Mean / 1000, s.Min / 1000, s.Max / 1000
	case MetricDelay:
		s := c.Batch.DelaySec
		return s.Mean * 1000, s.Min * 1000, s.Max * 1000
	case MetricCollision:
		s := c.Batch.CollisionRatio
		return s.Mean, s.Min, s.Max
	case MetricFairness:
		s := c.Batch.Jain
		return s.Mean, s.Min, s.Max
	default:
		return 0, 0, 0
	}
}

// WriteGrid renders a Fig. 6/7-style table: one block per N, one row per
// beamwidth, one column per scheme with "mean [min,max]" over topologies.
func WriteGrid(w io.Writer, title string, cells []GridCell, m Metric) error {
	if len(cells) == 0 {
		return fmt.Errorf("experiments: empty grid")
	}
	byN := map[int]map[float64]map[core.Scheme]GridCell{}
	var ns []int
	var beams []float64
	var schemes []core.Scheme
	seenN := map[int]bool{}
	seenB := map[float64]bool{}
	seenS := map[core.Scheme]bool{}
	for _, c := range cells {
		if !seenN[c.N] {
			seenN[c.N] = true
			ns = append(ns, c.N)
		}
		if !seenB[c.BeamwidthDeg] {
			seenB[c.BeamwidthDeg] = true
			beams = append(beams, c.BeamwidthDeg)
		}
		if !seenS[c.Scheme] {
			seenS[c.Scheme] = true
			schemes = append(schemes, c.Scheme)
		}
		if byN[c.N] == nil {
			byN[c.N] = map[float64]map[core.Scheme]GridCell{}
		}
		if byN[c.N][c.BeamwidthDeg] == nil {
			byN[c.N][c.BeamwidthDeg] = map[core.Scheme]GridCell{}
		}
		byN[c.N][c.BeamwidthDeg][c.Scheme] = c
	}
	runs := cells[0].Batch.Runs
	for _, n := range ns {
		fmt.Fprintf(w, "%s — %s, N=%d (%d topologies)\n", title, m, n, runs)
		fmt.Fprintf(w, "%10s", "theta_deg")
		for _, s := range schemes {
			fmt.Fprintf(w, " %26s", s)
		}
		fmt.Fprintln(w)
		for _, b := range beams {
			fmt.Fprintf(w, "%10.0f", b)
			for _, s := range schemes {
				c, ok := byN[n][b][s]
				if !ok {
					fmt.Fprintf(w, " %26s", "-")
					continue
				}
				mean, lo, hi := m.value(c)
				fmt.Fprintf(w, " %26s", fmt.Sprintf("%.4g [%.4g,%.4g]", mean, lo, hi))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteGridCSV renders a grid as CSV with all four metrics.
func WriteGridCSV(w io.Writer, cells []GridCell) error {
	fmt.Fprintln(w, "scheme,n,theta_deg,runs,"+
		"throughput_kbps_mean,throughput_kbps_min,throughput_kbps_max,"+
		"delay_ms_mean,delay_ms_min,delay_ms_max,"+
		"collision_ratio_mean,jain_mean")
	for _, c := range cells {
		b := c.Batch
		fmt.Fprintf(w, "%s,%d,%.0f,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%.4f\n",
			strings.ReplaceAll(c.Scheme.String(), ",", ""), c.N, c.BeamwidthDeg, b.Runs,
			b.ThroughputBps.Mean/1000, b.ThroughputBps.Min/1000, b.ThroughputBps.Max/1000,
			b.DelaySec.Mean*1000, b.DelaySec.Min*1000, b.DelaySec.Max*1000,
			b.CollisionRatio.Mean, b.Jain.Mean)
	}
	return nil
}

// WriteTable1 prints the IEEE 802.11 configuration constants used by the
// simulator (the paper's Table 1), for verification against the paper.
func WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — IEEE 802.11 protocol configuration parameters")
	fmt.Fprintf(w, "  RTS %dB  CTS %dB  data %dB  ACK %dB\n", mac.RTSBytes, mac.CTSBytes, 1460, mac.ACKBytes)
	fmt.Fprintf(w, "  DIFS %v  SIFS %v  slot %v\n", mac.DIFS, mac.SIFS, mac.Slot)
	fmt.Fprintf(w, "  contention window %d-%d\n", mac.CWMin, mac.CWMax)
	fmt.Fprintf(w, "  sync time %v  propagation delay %v  bit rate %d Mb/s\n", phy.SyncTime, phy.PropDelay, phy.BitRate/1_000_000)
}
