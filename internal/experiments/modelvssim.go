package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/mac"
	"repro/internal/phy"
)

// ModelVsSimRow compares the analytical model against the simulator at
// one (scheme, N, beamwidth) point, both expressed as normalized
// saturation throughput: the fraction of time a node spends successfully
// delivering data payload.
type ModelVsSimRow struct {
	Scheme       core.Scheme
	N            int
	BeamwidthDeg float64
	// Analytical is the model's maximum achievable throughput (over p).
	Analytical float64
	// Simulated is the measured per-inner-node successful data airtime
	// fraction, averaged over topologies.
	Simulated float64
}

// SimLengths converts the simulator's Table 1 frame timings into the
// analytical model's slot units (airtime / slot time, rounded):
// l_rts = 272 µs/20 µs ≈ 14, l_cts = l_ack = 248 µs/20 µs ≈ 12,
// l_data = 6032 µs/20 µs ≈ 302.
func SimLengths() core.Lengths {
	const slot = float64(mac.Slot)
	round := func(t des.Time) int {
		v := int(math.Round(float64(t) / slot))
		if v < 1 {
			v = 1
		}
		return v
	}
	return core.Lengths{
		RTS:  round(phy.Airtime(mac.RTSBytes)),
		CTS:  round(phy.Airtime(mac.CTSBytes)),
		Data: round(phy.Airtime(1460)),
		ACK:  round(phy.Airtime(mac.ACKBytes)),
	}
}

// ModelVsSim pairs each simulated grid cell with the analytical model
// at the same (scheme, N, beamwidth), using the simulator's real frame
// timings for the model's packet lengths. This is the paper's Section 4
// argument — "simulation results largely agree with what is predicted
// in the analytical model" — made quantitative.
func ModelVsSim(cells []GridCell) ([]ModelVsSimRow, error) {
	lengths := SimLengths()
	dataAir := phy.Airtime(1460)
	rows := make([]ModelVsSimRow, 0, len(cells))
	for _, c := range cells {
		pr := core.Params{N: float64(c.N), Beamwidth: c.BeamwidthDeg * math.Pi / 180, Lengths: lengths}
		_, ana, err := core.MaxThroughput(c.Scheme, pr, 0)
		if err != nil {
			return nil, fmt.Errorf("model point %v N=%d θ=%v: %w", c.Scheme, c.N, c.BeamwidthDeg, err)
		}
		// Mean inner-node goodput (b/s) → packets/s → airtime fraction.
		pktPerSec := c.Batch.ThroughputBps.Mean / (1460 * 8)
		rows = append(rows, ModelVsSimRow{
			Scheme: c.Scheme, N: c.N, BeamwidthDeg: c.BeamwidthDeg,
			Analytical: ana, Simulated: pktPerSec * dataAir.Seconds(),
		})
	}
	return rows, nil
}

// SpearmanRank returns the Spearman rank correlation between the
// analytical and simulated columns — how well the model predicts the
// simulator's *ordering* of configurations, which is what the paper's
// comparison rests on.
func SpearmanRank(rows []ModelVsSimRow) float64 {
	n := len(rows)
	if n < 2 {
		return 1
	}
	rank := func(key func(r ModelVsSimRow) float64) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return key(rows[idx[a]]) < key(rows[idx[b]]) })
		ranks := make([]float64, n)
		for pos, i := range idx {
			ranks[i] = float64(pos)
		}
		return ranks
	}
	ra := rank(func(r ModelVsSimRow) float64 { return r.Analytical })
	rs := rank(func(r ModelVsSimRow) float64 { return r.Simulated })
	var d2 float64
	for i := range ra {
		d := ra[i] - rs[i]
		d2 += d * d
	}
	nf := float64(n)
	return 1 - 6*d2/(nf*(nf*nf-1))
}

// WriteModelVsSim renders the comparison table and the rank correlation.
func WriteModelVsSim(w io.Writer, rows []ModelVsSimRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("experiments: empty model-vs-sim table")
	}
	fmt.Fprintln(w, "Analytical model vs simulation — normalized saturation throughput")
	fmt.Fprintf(w, "%10s %4s %8s %12s %12s %8s\n", "scheme", "N", "theta", "analytical", "simulated", "ratio")
	for _, r := range rows {
		ratio := math.NaN()
		if r.Analytical > 0 {
			ratio = r.Simulated / r.Analytical
		}
		fmt.Fprintf(w, "%10s %4d %7.0f° %12.4f %12.4f %8.2f\n",
			r.Scheme, r.N, r.BeamwidthDeg, r.Analytical, r.Simulated, ratio)
	}
	fmt.Fprintf(w, "Spearman rank correlation (ordering agreement): %.3f\n", SpearmanRank(rows))
	return nil
}
