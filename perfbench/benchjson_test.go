package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// wantBenchmarkJSON renders the manifest from this package's tables.
func wantBenchmarkJSON(t *testing.T) []byte {
	t.Helper()
	var m benchmarkJSON
	m.Command = []string{"bash", "perfbench/run.sh"}
	m.Paths = []string{"perfbench"}
	m.RunSeconds = runSeconds
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	m.EndToEnd = endToEnd
	for _, p := range perLayer {
		m.PerLayer = append(m.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{p.Name, p.Unit, p.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestBenchmarkJSONMatchesTables keeps the root manifest equal to the
// metric and workload tables. UPDATE_BENCHMARK_JSON=1 rewrites it.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := wantBenchmarkJSON(t)
	const path = "../BENCHMARK.json"
	if os.Getenv("UPDATE_BENCHMARK_JSON") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of date with the tables; rerun with UPDATE_BENCHMARK_JSON=1", path)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	largest := 0.0
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" {
			largest = max(largest, m.Bound)
		}
	}
	if s, _ := lookupMetric("setup_s"); s.Bound <= largest {
		t.Errorf("setup_s bound %v must be the largest (others reach %v)", s.Bound, largest)
	}
}
