package experiments

// Telemetry-observer goldens. Two invariants:
//
//  1. Observation changes nothing: every kernel-determinism golden case
//     re-run with 10ms sampling must reproduce its existing golden
//     byte-for-byte. Probe ticks consume event-queue sequence numbers
//     but draw no randomness and mutate no protocol state.
//  2. The export itself is pinned: a reference JSONL golden for one
//     case guards the format, the sample cadence and every float bit.
//     Regenerate with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestTelemetryExportGolden

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/des"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestKernelDeterminismGoldenWithTelemetry(t *testing.T) {
	for name, sc := range goldenCases() {
		name, sc := name, sc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc.Telemetry.Interval = sim.Duration(10 * des.Millisecond)
			res, err := sim.RunScenario(sc, sim.Options{Telemetry: telemetry.Discard{}})
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalJSON(t, res)
			path := filepath.Join("testdata", "golden_"+name+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run TestKernelDeterminismGolden with UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("enabling telemetry changed the result of %s\n"+
					"sampling must be a pure observer of the simulation", name)
			}
		})
	}
}

func TestTelemetryExportGolden(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	sc := goldenCases()["drtsdcts_n3_b90"]
	sc.Telemetry.Interval = sim.Duration(10 * des.Millisecond)
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf)
	if _, err := sim.RunScenario(sc, sim.Options{Telemetry: w}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "golden_telemetry_drtsdcts_n3_b90.jsonl")
	if update {
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
		t.Errorf("telemetry export diverged from golden %s", path)
	}
	// The golden must parse back through the public reader.
	h, recs, err := telemetry.ReadAll(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if h.Format != telemetry.FormatV1 || len(recs) == 0 {
		t.Errorf("golden export parsed to header %+v with %d records", h, len(recs))
	}
}
