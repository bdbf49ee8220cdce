package experiments

// Worker-count invariance tests for the partitioned parallel kernel
// (DESIGN.md §14). Options.Workers is a pure execution knob: every
// kernel-determinism golden, the sparse mobile scenario and the
// telemetry export must come out byte-identical at any worker count.
// The golden configurations are all paper-scale (or use excluded
// features like mobility), so they plan as sequential no matter what —
// these tests pin exactly that: turning workers up never silently
// changes what a historical scenario computes. The genuinely
// multi-partition worker sweep lives in internal/sim's
// TestPartitionedRunWorkerInvariance.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/des"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestKernelDeterminismGoldenParallelWorkers(t *testing.T) {
	for name, cfg := range goldenCases() {
		for _, workers := range []int{1, 2, 4, 8} {
			name, cfg, workers := name, cfg, workers
			cfg.Workers = workers
			t.Run(fmt.Sprintf("%s_w%d", name, workers), func(t *testing.T) {
				t.Parallel()
				res, err := RunSim(cfg)
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
					t.Errorf("workers=%d diverged from golden %s\n"+
						"worker count must never affect results", workers, path)
				}
			})
		}
	}
}

// TestFastForwardSparseParallelWorkers sweeps the repo's sparse mobile
// scenario file (fastforward-sparse.json, named for the retired mode
// it once showcased) across worker counts.
func TestFastForwardSparseParallelWorkers(t *testing.T) {
	sc, err := sim.LoadScenario(filepath.Join("..", "sim", "testdata", "fastforward-sparse.json"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		res, err := sim.RunScenario(sc, sim.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: fastforward-sparse Result diverged from workers=1", workers)
		}
	}
}

// TestTelemetryGoldenParallelWorkers pins the streaming telemetry
// export against its golden with a non-default worker count (telemetry
// runs are always sequential — partitioning excludes them — so the
// export must be untouched by the knob).
func TestTelemetryGoldenParallelWorkers(t *testing.T) {
	cfg := goldenCases()["drtsdcts_n3_b90"]
	cfg.TelemetryInterval = 10 * des.Millisecond
	cfg.Workers = 4
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf)
	cfg.Telemetry = w
	if _, err := RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_telemetry_drtsdcts_n3_b90.jsonl"))
	if err != nil {
		t.Fatalf("missing telemetry golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("telemetry export with workers=4 diverged from the golden")
	}
}
