package experiments

// Worker-count invariance of the shard pool. Every run executes on one
// scheduler, so the only execution knob left is how many topologies
// sim.Runner (and RunBatch on top of it) runs at once. These tests run
// multi-topology batches at 1, 2, 4 and 8 workers: every shard's bytes
// must equal the one-worker batch's, and shard 0 — the base seed — must
// equal the committed single-run golden.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/des"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// batchShards is the topology count of every worker sweep. At 8 workers
// the pool is clamped to it.
const batchShards = 4

// runBatch runs shards of sc on a pool of workers and returns the
// results and each shard's canonical result bytes, in shard order.
func runBatch(t *testing.T, sc sim.Scenario, workers int, opts sim.Options) ([]*sim.Result, [][]byte) {
	t.Helper()
	results, err := sim.Runner{Workers: workers, Options: opts}.Run(sc, batchShards)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(results))
	for i, res := range results {
		if out[i], err = sim.EncodeResult(res); err != nil {
			t.Fatal(err)
		}
	}
	return results, out
}

// compareShards reports every shard whose bytes differ from the
// one-worker batch.
func compareShards(t *testing.T, workers int, got, want [][]byte) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("workers=%d: shard %d diverged from the workers=1 batch", workers, i)
		}
	}
}

func TestKernelDeterminismGoldenParallelWorkers(t *testing.T) {
	for name, sc := range goldenCases() {
		_, want := runBatch(t, sc, 1, sim.Options{})
		path := filepath.Join("testdata", fmt.Sprintf("golden_%s.json", name))
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (generate via TestKernelDeterminismGolden with UPDATE_GOLDEN=1): %v", err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			name, workers := name, workers
			t.Run(fmt.Sprintf("%s_w%d", name, workers), func(t *testing.T) {
				t.Parallel()
				results, got := runBatch(t, sc, workers, sim.Options{})
				if !bytes.Equal(canonicalJSON(t, results[0]), golden) {
					t.Errorf("workers=%d: shard 0 diverged from golden %s", workers, path)
				}
				compareShards(t, workers, got, want)
			})
		}
	}
}

// TestFastForwardSparseParallelWorkers sweeps batches of the repo's
// sparse mobile scenario file (fastforward-sparse.json, named for the
// retired mode it once showcased) across worker counts. Shard 0 must
// equal the netsim -json bytes that make countdown-smoke pins.
func TestFastForwardSparseParallelWorkers(t *testing.T) {
	sc, err := sim.LoadScenario(filepath.Join("..", "sim", "testdata", "fastforward-sparse.json"))
	if err != nil {
		t.Fatal(err)
	}
	expected, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "expected", "fastforward-sparse.out"))
	if err != nil {
		t.Fatal(err)
	}
	_, want := runBatch(t, sc, 1, sim.Options{})
	if !bytes.Equal(append(want[0], '\n'), expected) {
		t.Error("shard 0 diverged from expected/fastforward-sparse.out")
	}
	for _, workers := range []int{2, 4, 8} {
		_, got := runBatch(t, sc, workers, sim.Options{})
		compareShards(t, workers, got, want)
	}
}

// TestTelemetryGoldenParallelWorkers runs a telemetry-enabled batch of
// the telemetry golden's configuration. The merged export must be
// byte-identical at 1 and 4 workers, and shard 0's result must equal the
// kernel golden, because sampling is a pure observer.
func TestTelemetryGoldenParallelWorkers(t *testing.T) {
	sc := goldenCases()["drtsdcts_n3_b90"]
	sc.Telemetry.Interval = sim.Duration(10 * des.Millisecond)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_drtsdcts_n3_b90.json"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	run := func(workers int) ([][]byte, []byte) {
		var buf bytes.Buffer
		w := telemetry.NewWriter(&buf)
		results, out := runBatch(t, sc, workers, sim.Options{Telemetry: w})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonicalJSON(t, results[0]), golden) {
			t.Errorf("workers=%d: shard 0 diverged from the kernel golden", workers)
		}
		return out, buf.Bytes()
	}
	want, wantExport := run(1)
	got, gotExport := run(4)
	compareShards(t, 4, got, want)
	if !bytes.Equal(gotExport, wantExport) {
		t.Error("merged telemetry export with workers=4 diverged from workers=1")
	}
}
