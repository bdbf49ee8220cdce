package experiments

// Kernel-determinism goldens: the DES scheduler and PHY channel are
// performance-critical and get optimized aggressively (typed event heap,
// timer free list, spatial indexing). None of that is allowed to change
// simulation results — not even in the last bit of a float. These tests
// pin the complete sim.Result (per-node throughput, delays, collision
// ratios, fairness, airtime shares and every raw MAC counter) for a
// spread of configurations to JSON goldens generated from the reference
// implementation.
//
// encoding/json renders float64 with strconv's shortest round-trippable
// form, so byte-equality of the canonical JSON is bit-equality of the
// results. Regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestKernelDeterminismGolden

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sim"
)

// goldenCases covers both directional schemes and the omni baseline at
// two densities, plus the configurations that exercise the optimized
// code paths hardest: mobility (grid cell moves and in-range list
// rebuilds via SetPos), SINR (the received-power computation), and the
// NAV oracle (out-of-beam scheduling).
func goldenCases() map[string]sim.Scenario {
	base := func(s core.Scheme, n int, beam float64) sim.Scenario {
		return sim.Scenario{
			Scheme:       s.String(),
			BeamwidthDeg: beam,
			Seed:         7,
			Duration:     sim.Duration(300 * des.Millisecond),
			Topology:     sim.TopologySpec{N: n},
		}
	}
	cases := map[string]sim.Scenario{
		"drtsdcts_n3_b90":  base(core.DRTSDCTS, 3, 90),
		"drtsdcts_n8_b30":  base(core.DRTSDCTS, 8, 30),
		"drtsocts_n3_b150": base(core.DRTSOCTS, 3, 150),
		"ortsocts_n8":      base(core.ORTSOCTS, 8, 0),
	}
	mob := base(core.DRTSDCTS, 5, 90)
	mob.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 0.5, RefreshInterval: sim.Duration(100 * des.Millisecond)}
	cases["mobility_n5_b90"] = mob

	sinr := base(core.DRTSDCTS, 5, 30)
	sinr.PHY.SINR = true
	cases["sinr_n5_b30"] = sinr

	oracle := base(core.DRTSDCTS, 5, 30)
	oracle.PHY.NAVOracle = true
	cases["navoracle_n5_b30"] = oracle
	return cases
}

// canonicalJSON renders a sim.Result deterministically (json sorts map
// keys, slices keep order).
func canonicalJSON(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(res); err != nil {
		t.Fatalf("encode result: %v", err)
	}
	return buf.Bytes()
}

func TestKernelDeterminismGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for name, sc := range goldenCases() {
		name, sc := name, sc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := sim.RunScenario(sc, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalJSON(t, res)
			path := filepath.Join("testdata", fmt.Sprintf("golden_%s.json", name))
			if update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to generate): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("simulation result diverged from golden %s\n"+
					"the optimized kernel must be bit-identical to the reference implementation", path)
			}
		})
	}
}
