package experiments

// The retired fast-forward switch. Every backoff countdown is one exact
// timer (DESIGN.md §12), and the scenario key "fastforward" survives
// only as a validated no-op. The test families that once compared the
// switch on against off now check that the switch changes nothing and
// that the kernel reproduces the slot-by-slot bytes:
//
//  1. The kernel-determinism goldens run through the Scenario path with
//     the switch set, with and without 10 ms telemetry, against the
//     SAME golden files.
//  2. The randomized differential family and the sparse mobile pair run
//     against SHA-256 digests of their canonical results recorded with
//     the slot-by-slot kernel. Regenerate only for an intended
//     behaviour change:
//
//	UPDATE_PINNED=1 go test ./internal/experiments -run 'TestFastForwardDifferential'

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestKernelDeterminismGoldenFastForward(t *testing.T) {
	for name, base := range goldenCases() {
		if base.PHY.NAVOracle {
			// sim.Validate rejects fastforward+navOracle (the rule outlived
			// the mode so files are judged the same by every version); the
			// plain golden run covers the oracle configuration.
			continue
		}
		for _, tel := range []bool{false, true} {
			sc := base
			sc.FastForward = true
			var opts sim.Options
			sub := name
			if tel {
				sc.Telemetry.Interval = sim.Duration(10 * des.Millisecond)
				opts.Telemetry = telemetry.Discard{}
				sub += "_telemetry"
			}
			t.Run(sub, func(t *testing.T) {
				t.Parallel()
				res, err := sim.RunScenario(sc, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := canonicalJSON(t, res)
				path := filepath.Join("testdata", fmt.Sprintf("golden_%s.json", name))
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (generate via TestKernelDeterminismGolden with UPDATE_GOLDEN=1): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("the no-op fastforward switch changed golden %s", path)
				}
			})
		}
	}
}

// pinnedDigests checks subtest results against a digest file recorded
// with the slot-by-slot kernel, or rewrites it under UPDATE_PINNED.
type pinnedDigests struct {
	path   string
	update bool
	mu     sync.Mutex
	want   map[string]string
	got    map[string]string
}

func newPinnedDigests(t *testing.T, file string) *pinnedDigests {
	p := &pinnedDigests{
		path:   filepath.Join("testdata", file),
		update: os.Getenv("UPDATE_PINNED") != "",
		got:    make(map[string]string),
	}
	if p.update {
		t.Cleanup(func() {
			b, err := json.MarshalIndent(p.got, "", "  ")
			if err == nil {
				err = os.WriteFile(p.path, append(b, '\n'), 0o644)
			}
			if err != nil {
				t.Error(err)
			}
		})
		return p
	}
	raw, err := os.ReadFile(p.path)
	if err != nil {
		t.Fatalf("missing digests (run with UPDATE_PINNED=1 to generate): %v", err)
	}
	if err := json.Unmarshal(raw, &p.want); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *pinnedDigests) check(t *testing.T, canonical []byte) {
	t.Helper()
	sum := sha256.Sum256(canonical)
	got := hex.EncodeToString(sum[:])
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.update {
		p.got[t.Name()] = got
		return
	}
	if want := p.want[t.Name()]; got != want {
		t.Errorf("result digest %s, want %s (recorded with the slot-by-slot kernel)", got, want)
	}
}

// TestFastForwardDifferential runs the randomized family of small
// scenarios the fast-forward on/off comparison used — every scheme,
// sparse CBR and saturated traffic, mobility, SINR, basic access, EIFS
// off — against their slot-by-slot digests.
func TestFastForwardDifferential(t *testing.T) {
	pinned := newPinnedDigests(t, "pinned_ff_differential.json")
	schemes := []core.Scheme{core.DRTSDCTS, core.DRTSOCTS, core.ORTSOCTS, core.ORTSDCTS}
	for i := 0; i < 12; i++ {
		i := i
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			t.Parallel()
			sc := sim.Scenario{
				Scheme:       schemes[i%len(schemes)].String(),
				BeamwidthDeg: []float64{30, 90, 150}[i%3],
				Seed:         int64(100 + 13*i),
				Duration:     sim.Duration(60 * des.Millisecond),
				Topology:     sim.TopologySpec{N: 2 + i%4},
			}
			var opts sim.Options
			switch i % 4 {
			case 1:
				sc.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 50_000} // sparse: long idle stretches
			case 2:
				sc.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 0.5, RefreshInterval: sim.Duration(20 * des.Millisecond)}
				sc.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 200_000}
			case 3:
				sc.PHY.SINR = true
				sc.Ablations.BasicAccess = i%2 == 1
			}
			if i%5 == 0 {
				sc.Ablations.DisableEIFS = true
			}
			if i%6 == 3 {
				sc.Telemetry.Interval = sim.Duration(5 * des.Millisecond)
				opts.Telemetry = telemetry.Discard{}
			}
			res, err := sim.RunScenario(sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			pinned.check(t, canonicalJSON(t, res))
		})
	}
}

// TestFastForwardDifferentialSparsePair runs the two-node explicit pair
// under waypoint mobility with a 1 s refresh interval — stale bearings
// drive CTS timeouts and ratchet the contention window to CWMax, so
// nearly every countdown spans a long idle stretch — with the no-op
// switch set, against the slot-by-slot digests.
func TestFastForwardDifferentialSparsePair(t *testing.T) {
	pinned := newPinnedDigests(t, "pinned_ff_sparse_pair.json")
	for _, seed := range []int64{1, 7, 23, 41} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := sim.Scenario{
				Scheme: "DRTS-DCTS", BeamwidthDeg: 30, Seed: seed,
				Duration: sim.Duration(300 * des.Millisecond),
				Topology: sim.TopologySpec{Kind: "explicit", N: 2,
					Positions: []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}},
				Traffic:     sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 500_000},
				Mobility:    sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: sim.Duration(des.Second)},
				FastForward: !pinned.update,
			}
			res, err := sim.RunScenario(sc, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			pinned.check(t, b)
		})
	}
}
