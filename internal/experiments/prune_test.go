package experiments

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sim"
)

// TestPruneGridDomination pins the margin semantics: within each
// density the predicted-best cell always survives, a margin of 1 keeps
// only the best cell(s), and a loose margin keeps everything.
func TestPruneGridDomination(t *testing.T) {
	schemes := []core.Scheme{core.DRTSDCTS, core.ORTSOCTS}
	ns := []int{3, 8}
	beams := []float64{30, 150}

	verdicts, err := PruneGrid(schemes, ns, beams, 0.9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != len(schemes)*len(ns)*len(beams) {
		t.Fatalf("verdict count %d, want %d", len(verdicts), len(schemes)*len(ns)*len(beams))
	}
	for _, n := range ns {
		best, kept := 0.0, 0
		for _, v := range verdicts {
			if v.N != n {
				continue
			}
			if v.Estimate > best {
				best = v.Estimate
			}
			if !v.Skip {
				kept++
			}
		}
		if kept == 0 {
			t.Fatalf("N=%d: pruning must keep at least the best cell", n)
		}
		for _, v := range verdicts {
			if v.N == n && v.Estimate == best && v.Skip {
				t.Errorf("N=%d: best cell %+v was pruned", n, v)
			}
			if v.N == n && v.Skip && v.Estimate >= 0.9*best {
				t.Errorf("N=%d: cell %+v within margin was pruned", n, v)
			}
		}
	}

	// A near-zero margin keeps every cell.
	loose, err := PruneGrid(schemes, ns, beams, 0.0001, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range loose {
		if v.Skip {
			t.Errorf("near-zero margin pruned %+v", v)
		}
	}
	if _, err := PruneGrid(schemes, ns, beams, 0, nil); err == nil {
		t.Error("margin 0 must be rejected")
	}
	if _, err := PruneGrid(schemes, ns, beams, 1.5, nil); err == nil {
		t.Error("margin > 1 must be rejected")
	}
}

// TestPruneGridCache verifies verdicts are memoized through the store
// and that a warm call reproduces the cold one exactly.
func TestPruneGridCache(t *testing.T) {
	store, err := cache.NewStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []core.Scheme{core.DRTSDCTS, core.DRTSOCTS, core.ORTSOCTS, core.ORTSDCTS}
	ns := []int{3, 5, 8}
	beams := []float64{30, 90, 150}
	cold, err := PruneGrid(schemes, ns, beams, 0.8, store)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := PruneGrid(schemes, ns, beams, 0.8, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("verdict %d changed between cold and warm runs: %+v vs %+v", i, cold[i], warm[i])
		}
	}
	// The omni scheme's verdict must not depend on the beamwidth column
	// it was computed under (the key canonicalizes beamwidth to zero).
	var omni []PruneVerdict
	for _, v := range warm {
		if v.Scheme == core.ORTSOCTS && v.N == 5 {
			omni = append(omni, v)
		}
	}
	for _, v := range omni[1:] {
		if v.Estimate != omni[0].Estimate {
			t.Errorf("omni estimate varies with beamwidth: %+v vs %+v", omni[0], v)
		}
	}
}

// TestRunGridPruned runs a tiny real sweep with pruning and checks the
// surviving cells match the verdicts, every kept cell simulated, every
// skipped cell absent.
func TestRunGridPruned(t *testing.T) {
	base := sim.Scenario{Seed: 7, Duration: sim.Duration(20 * des.Millisecond)}
	schemes := []core.Scheme{core.DRTSDCTS, core.ORTSOCTS}
	ns := []int{3}
	beams := []float64{30, 150}
	cells, verdicts, err := RunGridPruned(sim.Runner{}, base, schemes, ns, beams, 1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, v := range verdicts {
		if !v.Skip {
			kept++
		}
	}
	if len(cells) != kept {
		t.Fatalf("simulated %d cells, verdicts kept %d", len(cells), kept)
	}
	if kept == len(verdicts) {
		t.Fatalf("margin 0.95 over %d cells pruned nothing; predictor is not discriminating", len(verdicts))
	}
	have := make(map[gridKey]bool)
	for _, c := range cells {
		if c.Batch.ThroughputBps.Mean < 0 {
			t.Fatalf("cell %+v: nonsense throughput", c)
		}
		have[gridKey{c.Scheme, c.N, c.BeamwidthDeg}] = true
	}
	for _, v := range verdicts {
		if v.Skip == have[gridKey{v.Scheme, v.N, v.BeamwidthDeg}] {
			t.Errorf("verdict %+v inconsistent with simulated set", v)
		}
	}
}
