package dirca_test

import (
	"math"
	"testing"

	"repro/dirca"
)

func TestAllSchemesFacade(t *testing.T) {
	all := dirca.AllSchemes()
	if len(all) != 4 || all[3] != dirca.ORTSDCTS {
		t.Errorf("AllSchemes = %v", all)
	}
	s, err := dirca.ParseScheme("drts-dcts")
	if err != nil || s != dirca.DRTSDCTS {
		t.Errorf("ParseScheme = %v, %v", s, err)
	}
	if _, err := dirca.ParseScheme("nope"); err == nil {
		t.Error("bad name should fail")
	}
}

func TestAttemptProbabilityFacade(t *testing.T) {
	p, err := dirca.AttemptProbability(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p >= 0.1 {
		t.Errorf("p = %v outside (0, p0)", p)
	}
	mp := dirca.ModelParams{N: 5, Beamwidth: math.Pi / 6, Lengths: dirca.PaperLengths()}
	th, err := dirca.ThroughputFromReadiness(dirca.DRTSDCTS, 0.1, mp)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0 || th >= 1 {
		t.Errorf("throughput = %v", th)
	}
}

func TestFig5SensitivityFacade(t *testing.T) {
	series, err := dirca.Fig5Sensitivity(3, []int{100})
	if err != nil {
		t.Fatal(err)
	}
	if len(series[100]) != 12 {
		t.Errorf("rows = %d, want 12", len(series[100]))
	}
}
