package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
)

// TestScenarioGoldenRoundTrip pins the JSON contract: every scenario in
// testdata parses, validates, and re-serializes byte-identically through
// the canonical MarshalScenario form. Regenerate with UPDATE_GOLDEN=1.
func TestScenarioGoldenRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected at least 3 scenario goldens in testdata, got %d", len(paths))
	}
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := LoadScenario(path)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			out, err := MarshalScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if update {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			in, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(in) != string(out) {
				t.Errorf("round-trip not byte-identical (run with UPDATE_GOLDEN=1 to canonicalize)\n--- file ---\n%s--- re-marshal ---\n%s", in, out)
			}
			// A second pass through parse must be a fixed point.
			sc2, err := ParseScenario(out)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			out2, err := MarshalScenario(sc2)
			if err != nil {
				t.Fatal(err)
			}
			if string(out) != string(out2) {
				t.Error("second round-trip diverged")
			}
		})
	}
}

// TestScenarioBadSpecsRejected checks that every curated spec in
// testdata/bad fails to parse or fails validation.
func TestScenarioBadSpecsRejected(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "bad", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected at least 5 bad specs in testdata/bad, got %d", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := LoadScenario(path)
			if err != nil {
				t.Logf("rejected at parse: %v", err)
				return
			}
			if err := sc.Validate(); err != nil {
				t.Logf("rejected at validate: %v", err)
				return
			}
			t.Error("bad spec was accepted")
		})
	}
}

// TestValidateRejectsFastForwardWithNAVOracle pins the surfaced error:
// files combining the two were always rejected, and the no-op switch
// keeps that rule. The error must name both JSON field paths so a
// hand-written file points at the lines to fix.
func TestValidateRejectsFastForwardWithNAVOracle(t *testing.T) {
	sc := Scenario{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 30, Seed: 1,
		Duration:    Duration(300 * des.Millisecond),
		Topology:    TopologySpec{N: 4},
		PHY:         PHYSpec{NAVOracle: true},
		FastForward: true,
	}
	err := sc.Validate()
	if err == nil {
		t.Fatal("fastforward+navOracle scenario was accepted")
	}
	for _, want := range []string{"fastforward", "phy.navOracle"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	sc.PHY.NAVOracle = false
	if err := sc.Validate(); err != nil {
		t.Errorf("fastforward alone must validate: %v", err)
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	_, err := ParseScenario([]byte(`{"scheme":"DRTS-DCTS","seeed":1}`))
	if err == nil || !strings.Contains(err.Error(), "seeed") {
		t.Errorf("want unknown-field error naming the typo, got %v", err)
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"300ms"`)); err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "300ms" {
		t.Errorf("String() = %q, want 300ms", got)
	}
	b, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"300ms"` {
		t.Errorf("MarshalJSON = %s, want \"300ms\"", b)
	}
	if err := d.UnmarshalJSON([]byte(`"not a duration"`)); err == nil {
		t.Error("want error for malformed duration")
	}
	if err := d.UnmarshalJSON([]byte(`300`)); err == nil {
		t.Error("want error for non-string duration")
	}
}

func TestValidateErrors(t *testing.T) {
	good := Scenario{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 60, Seed: 1,
		Duration: Duration(300 * 1e6), Topology: TopologySpec{N: 4},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline scenario should validate: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		// The scheme error must carry the JSON path like every other
		// validator, not leak the bare core error.
		{"unknown scheme", func(sc *Scenario) { sc.Scheme = "QRTS" }, "sim: scheme: core: unknown scheme"},
		{"zero beamwidth", func(sc *Scenario) { sc.BeamwidthDeg = 0 }, "beamwidthDeg"},
		{"beamwidth over 360", func(sc *Scenario) { sc.BeamwidthDeg = 400 }, "beamwidthDeg"},
		{"zero duration", func(sc *Scenario) { sc.Duration = 0 }, "duration: must be positive"},
		{"unknown topology", func(sc *Scenario) { sc.Topology.Kind = "mystery" }, "topology.kind"},
		{"n too small", func(sc *Scenario) { sc.Topology.N = 1 }, "topology.n"},
		{"negative radius", func(sc *Scenario) { sc.Topology.Radius = -1 }, "topology.radius"},
		{"explicit without positions", func(sc *Scenario) { sc.Topology.Kind = "explicit" }, "topology.positions"},
		{"positions on rings", func(sc *Scenario) { sc.Topology.Positions = make([]geom.Point, 2) }, "topology.positions"},
		{"unknown traffic", func(sc *Scenario) { sc.Traffic.Kind = "burst" }, "traffic.kind"},
		{"cbr without load", func(sc *Scenario) { sc.Traffic.Kind = "cbr" }, "traffic.offeredLoadBps"},
		{"load without cbr", func(sc *Scenario) { sc.Traffic.OfferedLoadBps = 1e6 }, "traffic.offeredLoadBps"},
		{"unknown mobility", func(sc *Scenario) { sc.Mobility.Kind = "teleport" }, "mobility.kind"},
		{"waypoint without speed", func(sc *Scenario) { sc.Mobility.Kind = "waypoint" }, "mobility.maxSpeed"},
		{"speed without waypoint", func(sc *Scenario) { sc.Mobility.MaxSpeed = 2 }, "mobility.maxSpeed"},
		{"unknown trace", func(sc *Scenario) { sc.Trace.Kind = "pcap" }, "trace.kind"},
		{"negative adaptive rts", func(sc *Scenario) { sc.Ablations.AdaptiveRTS = -1 }, "ablations.adaptiveRTS"},
		{"negative telemetry interval", func(sc *Scenario) { sc.Telemetry.Interval = -1 }, "telemetry.interval"},
		{"metrics without interval", func(sc *Scenario) { sc.Telemetry.Metrics = []string{"mac/cw"} }, "telemetry.metrics"},
		{"unknown telemetry metric", func(sc *Scenario) {
			sc.Telemetry.Interval = Duration(10 * 1e6)
			sc.Telemetry.Metrics = []string{"mac/unheard-of"}
		}, "telemetry.metrics"},
		{"negative telemetry maxNodes", func(sc *Scenario) {
			sc.Telemetry.Interval = Duration(10 * 1e6)
			sc.Telemetry.MaxNodes = -1
		}, "telemetry.maxNodes"},
		{"maxNodes without interval", func(sc *Scenario) { sc.Telemetry.MaxNodes = 4 }, "telemetry.maxNodes"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := good
			tt.mutate(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("want validation error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

// TestOmniIgnoresBeamwidth: ORTS-OCTS has no beam to validate.
func TestOmniIgnoresBeamwidth(t *testing.T) {
	sc := Scenario{
		Scheme: "omni", Seed: 1,
		Duration: Duration(300 * 1e6), Topology: TopologySpec{N: 4},
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("omni scenario with zero beamwidth should validate: %v", err)
	}
}
