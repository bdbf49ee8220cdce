package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := make([]byte, 1<<22)
	total := 0
	for {
		n, err := r.Read(out[total:])
		total += n
		if err != nil || n == 0 {
			break
		}
	}
	return string(out[:total]), errRun
}

func TestRunTable1(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-run", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "31-1023") {
		t.Errorf("table1 output: %q", out)
	}
}

func TestRunFig5WithSVG(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run([]string{"-run", "fig5", "-svg", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shape check") {
		t.Errorf("fig5 output missing shape check: %q", out[:min(len(out), 200)])
	}
	for _, name := range []string{"fig5_n3.svg", "fig5_n5.svg", "fig5_n8.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing %s: %v", name, err)
			continue
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s is not SVG", name)
		}
	}
}

func TestRunSmallGrid(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-run", "fig6", "-topologies", "1", "-duration", "150ms"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 6") {
		t.Errorf("fig6 block missing: %q", out[:min(len(out), 300)])
	}
}

// TestGridSimulatedOnce: fig6 and modelvssim share one paper grid, and
// the grid simulates ORTS-OCTS once per N, so a cold cache ends up with
// 21 entries (3 N × (2 directional schemes × 3 beamwidths + 1 omni)),
// one per simulated cell at one topology.
func TestGridSimulatedOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	_, err := capture(t, func() error {
		return run([]string{"-run", "fig6,modelvssim", "-topologies", "1", "-duration", "50ms", "-cache", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 21 {
		t.Errorf("cache holds %d entries, want 21", len(entries))
	}
}

// TestModelVsSimJSON: -json adds the model-vs-sim JSON document, one
// row per grid cell, after its table.
func TestModelVsSimJSON(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-run", "modelvssim", "-topologies", "1", "-duration", "20ms", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(out, "\n{")
	if i < 0 {
		t.Fatalf("no JSON document in the output:\n%s", out)
	}
	var doc struct {
		Rows     []json.RawMessage `json:"rows"`
		Spearman *float64          `json:"spearmanRank"`
	}
	if err := json.NewDecoder(strings.NewReader(out[i:])).Decode(&doc); err != nil {
		t.Fatalf("model-vs-sim JSON: %v", err)
	}
	if len(doc.Rows) != 27 || doc.Spearman == nil {
		t.Errorf("model-vs-sim JSON has %d rows (want 27) and spearmanRank %v", len(doc.Rows), doc.Spearman)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-scenario", "/nonexistent.json"}); err == nil {
		t.Error("missing scenario file should fail")
	}
}

func TestDumpScenario(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-seed", "3", "-duration", "2s", "-dump-scenario"})
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sim.ParseScenario([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 3 || sc.Duration.String() != "2s" {
		t.Errorf("dumped scenario seed=%d duration=%v", sc.Seed, sc.Duration)
	}
}

// TestScenarioBaseConfig: a scenario file supplies the base config for a
// study, overriding -seed/-duration and the study's default density.
func TestScenarioBaseConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	spec := `{"scheme":"DRTS-DCTS","beamwidthDeg":60,"seed":5,"duration":"150ms","topology":{"n":3}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-run", "delaycdf", "-scenario", path, "-topologies", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "delay") && !strings.Contains(out, "Delay") {
		t.Errorf("delaycdf output missing: %q", out[:min(len(out), 300)])
	}
}

// TestScenarioDumpKeepsEveryField: -scenario takes the file as the base
// verbatim, so -dump-scenario prints exactly its canonical form. Fields
// no study varies (the name, the ring layout, the queue bound, the
// telemetry cardinality cap) reach every cell.
func TestScenarioDumpKeepsEveryField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	spec := `{"name":"wide","scheme":"DRTS-DCTS","beamwidthDeg":60,"seed":5,"duration":"150ms",
		"topology":{"n":3,"radius":2,"rings":5},"traffic":{"queueCap":8},
		"telemetry":{"interval":"10ms","maxNodes":2}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := sim.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"-scenario", path, "-dump-scenario"}) })
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("-dump-scenario lost fields of the file:\n got %s\nwant %s", out, want)
	}
}

// TestDumpedBaseFeedsBack: the base -dump-scenario prints from flags
// leaves scheme, topology.n and beamwidthDeg for the studies to fill,
// and -scenario accepts it back: the fig6 tables are the flag run's.
func TestDumpedBaseFeedsBack(t *testing.T) {
	flags := []string{"-seed", "3", "-duration", "50ms"}
	dump, err := capture(t, func() error { return run(append(flags, "-dump-scenario")) })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	study := []string{"-run", "fig6", "-topologies", "1"}
	viaFlags, err := capture(t, func() error { return run(append(flags, study...)) })
	if err != nil {
		t.Fatal(err)
	}
	viaFile, err := capture(t, func() error {
		return run(append([]string{"-scenario", path, "-duration", "50ms"}, study...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if viaFile != viaFlags {
		t.Errorf("dumped base ran a different sweep\n--- flags ---\n%s--- file ---\n%s", viaFlags, viaFile)
	}
}

// TestInvalidBaseFailsBeforeSimulating: the base is not validated up
// front, but the first grid cell is, before any of its shards runs, so
// nothing reaches the cache.
func TestInvalidBaseFailsBeforeSimulating(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	if err := os.WriteFile(path, []byte(`{"seed":1,"duration":"50ms","topology":{"n":0,"rings":-1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	_, err := capture(t, func() error {
		return run([]string{"-scenario", path, "-run", "fig6", "-topologies", "1", "-cache", cacheDir})
	})
	if err == nil || !strings.Contains(err.Error(), "topology.rings") {
		t.Fatalf("want a topology.rings validation error, got %v", err)
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("cache holds %d entries: a cell ran before validation failed", len(entries))
	}
}
