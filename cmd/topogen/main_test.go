package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
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

func TestRunJSONRoundTrip(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "3", "-count", "2", "-seed", "9"})
	})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(out))
	count := 0
	for dec.More() {
		var topo topology.Topology
		if err := dec.Decode(&topo); err != nil {
			t.Fatal(err)
		}
		if len(topo.Positions) != 27 || topo.N != 3 {
			t.Errorf("decoded topology: %d positions, N=%d", len(topo.Positions), topo.N)
		}
		if err := topo.CheckConstraints(); err != nil {
			t.Errorf("emitted topology violates constraints: %v", err)
		}
		count++
	}
	if count != 2 {
		t.Errorf("decoded %d topologies, want 2", count)
	}
}

func TestRunStats(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "3", "-stats"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "degree min/mean/max") {
		t.Errorf("stats output: %q", out)
	}
}

func TestRunSVG(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "3", "-svg"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "<svg") {
		t.Errorf("SVG output: %q", out[:min(len(out), 60)])
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-n", "x"}); err == nil {
		t.Error("bad -n should fail")
	}
	if err := run([]string{"-kind", "hexgrid"}); err == nil {
		t.Error("unknown generator kind should fail")
	}
	if err := run([]string{"-scenario", "/nonexistent.json"}); err == nil {
		t.Error("missing scenario file should fail")
	}
	if err := run([]string{"-n", "1"}); err == nil || !strings.Contains(err.Error(), "-n") {
		t.Errorf("undersized -n should fail with a clear message, got %v", err)
	}
	if err := run([]string{"-n", "99999999"}); err == nil || !strings.Contains(err.Error(), "sanity bound") {
		t.Errorf("absurd -n should hit the sanity bound, got %v", err)
	}
	if err := run([]string{"-count", "0"}); err == nil || !strings.Contains(err.Error(), "-count") {
		t.Errorf("zero -count should fail, got %v", err)
	}
}

// TestRunExplicitWithoutPositions: no flag supplies positions, so an
// explicit topology from flags fails with the topology.positions error,
// with and without -stats, and prints nothing.
func TestRunExplicitWithoutPositions(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "explicit", "-n", "3", "-stats"},
		{"-kind", "explicit", "-n", "3"},
	} {
		out, err := capture(t, func() error { return run(args) })
		if err == nil || !strings.Contains(err.Error(), "topology.positions") {
			t.Errorf("%v: error = %v, want the topology.positions error", args, err)
		}
		if out != "" {
			t.Errorf("%v: printed %q", args, out)
		}
	}
}

func TestRunGridKind(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-kind", "grid", "-n", "6"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var topo topology.Topology
	if err := json.Unmarshal([]byte(out), &topo); err != nil {
		t.Fatal(err)
	}
	if topo.N != 6 || len(topo.Positions) < 6 {
		t.Errorf("grid topology: N=%d, %d positions", topo.N, len(topo.Positions))
	}
}

func TestRunFromScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	spec := `{"scheme":"DRTS-DCTS","beamwidthDeg":60,"seed":9,"duration":"100ms","topology":{"n":3}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	fromScenario, err := capture(t, func() error {
		return run([]string{"-scenario", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	fromFlags, err := capture(t, func() error {
		return run([]string{"-n", "3", "-seed", "9"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if fromScenario != fromFlags {
		t.Error("scenario topology differs from the equivalent flag invocation")
	}
}
