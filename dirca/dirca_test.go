package dirca_test

import (
	"math"
	"testing"

	"repro/dirca"
)

func TestAnalyticalFacade(t *testing.T) {
	mp := dirca.ModelParams{N: 5, Beamwidth: math.Pi / 6, Lengths: dirca.PaperLengths()}
	th, err := dirca.Throughput(dirca.DRTSDCTS, 0.02, mp)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0 || th >= 1 {
		t.Errorf("throughput = %v outside (0,1)", th)
	}
	p, peak, err := dirca.MaxThroughput(dirca.DRTSDCTS, mp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if peak < th {
		t.Errorf("max %v below a sampled point %v", peak, th)
	}
	if p <= 0 || p >= 0.5 {
		t.Errorf("optimal p = %v out of expected range", p)
	}
}

func TestSchemesFacade(t *testing.T) {
	ss := dirca.Schemes()
	if len(ss) != 3 || ss[0] != dirca.ORTSOCTS || ss[1] != dirca.DRTSDCTS || ss[2] != dirca.DRTSOCTS {
		t.Errorf("Schemes = %v", ss)
	}
	if dirca.DRTSDCTS.String() != "DRTS-DCTS" {
		t.Errorf("scheme name = %q", dirca.DRTSDCTS.String())
	}
}

func TestFig5TableFacade(t *testing.T) {
	rows, err := dirca.Fig5Table([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	// The paper's headline result via the public API: DRTS-DCTS wins at 15°.
	if !(rows[0].DRTSDCTS > rows[0].ORTSOCTS) {
		t.Errorf("DRTS-DCTS %v should beat ORTS-OCTS %v at 15°", rows[0].DRTSDCTS, rows[0].ORTSOCTS)
	}
}

func TestSimulateFacade(t *testing.T) {
	res, err := dirca.Simulate(dirca.Scenario{
		Scheme: "ORTS-OCTS", Seed: 2,
		Duration: 500 * dirca.Millisecond,
		Topology: dirca.TopologySpec{N: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanThroughputBps() <= 0 {
		t.Error("facade simulation made no progress")
	}
	if len(res.ThroughputBps) != 3 {
		t.Errorf("inner nodes = %d, want 3", len(res.ThroughputBps))
	}
}

func TestSimulateBatchFacade(t *testing.T) {
	b, err := dirca.SimulateBatch(dirca.Scenario{
		Scheme: "DRTS-OCTS", BeamwidthDeg: 90, Seed: 4,
		Duration: 300 * dirca.Millisecond,
		Topology: dirca.TopologySpec{N: 3},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Runs != 2 {
		t.Errorf("runs = %d, want 2", b.Runs)
	}
}

func TestTimeUnits(t *testing.T) {
	if dirca.Second != 1000*dirca.Millisecond || dirca.Millisecond != 1000*dirca.Microsecond {
		t.Error("time unit ladder broken")
	}
	var d dirca.Duration = 2*dirca.Second + 500*dirca.Millisecond
	if d.String() != "2.5s" {
		t.Errorf("String = %q, want 2.5s", d.String())
	}
}
