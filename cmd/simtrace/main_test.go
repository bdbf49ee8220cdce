package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// export runs a small simulation with telemetry and returns the run's
// result plus the raw JSONL export bytes.
func export(t *testing.T) (*sim.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf)
	res, err := sim.RunScenario(sim.Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 60,
		Seed:         7,
		Duration:     sim.Duration(300 * des.Millisecond),
		Topology:     sim.TopologySpec{N: 3},
		Telemetry:    sim.TelemetrySpec{Interval: sim.Duration(10 * des.Millisecond)},
	}, sim.Options{Telemetry: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestSummarizeMatchesResult is the CLI half of the bit-exactness
// contract: the aggregates simtrace computes from an export must equal
// the simulation's own Result with zero tolerance.
func TestSummarizeMatchesResult(t *testing.T) {
	res, raw := export(t)
	h, recs, err := telemetry.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s, err := summarize(h, recs, 5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanCumThroughputBps != res.MeanThroughputBps() {
		t.Errorf("summarized throughput = %v, result = %v", s.MeanCumThroughputBps, res.MeanThroughputBps())
	}
	if s.MeanCollisionRatio != res.MeanCollisionRatio() {
		t.Errorf("summarized collision ratio = %v, result = %v", s.MeanCollisionRatio, res.MeanCollisionRatio())
	}
	if s.Jain != res.Jain {
		t.Errorf("summarized Jain = %v, result = %v", s.Jain, res.Jain)
	}
	if want := 30; s.Samples != want {
		t.Errorf("samples = %d, want %d", s.Samples, want)
	}
	if len(s.Metrics) == 0 {
		t.Error("no metric records in summary")
	}
}

func TestConvergedAt(t *testing.T) {
	ts := []int64{10, 20, 30, 40, 50, 60}
	cases := []struct {
		name string
		xs   []float64
		w    int
		tol  float64
		want int64
	}{
		{"settles", []float64{100, 50, 10, 10.1, 10.2, 10.1}, 3, 0.05, 50},
		{"never", []float64{100, 50, 10, 100, 50, 10}, 3, 0.05, -1},
		{"immediate", []float64{10, 10, 10, 10, 10, 10}, 3, 0.05, 30},
		{"zero-mean skipped", []float64{0, 0, 0, 5, 5, 5}, 3, 0.05, 60},
	}
	for _, c := range cases {
		if got := convergedAt(ts, c.xs, c.w, c.tol); got != c.want {
			t.Errorf("%s: convergedAt = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSummarizeCLI drives the real subcommand against an export file.
func TestSummarizeCLI(t *testing.T) {
	_, raw := export(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"summarize", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"telemetry export repro-telemetry/v1",
		"scheme DRTS-DCTS seed 7",
		"30 aggregate samples",
		"mean inner throughput",
		"Jain fairness",
		"counter phy/tx-frames",
		"hist    mac/backoff-slots",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("summarize output missing %q:\n%s", want, text)
		}
	}
}

// TestFilterPreservesBytes: filtered output lines must be the original
// bytes, the header must survive, and the result must still parse as a
// valid export.
func TestFilterPreservesBytes(t *testing.T) {
	_, raw := export(t)
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"filter", "-node", "1", "-kind", "node", "-from", "100ms", "-to", "200ms", path}, &out); err != nil {
		t.Fatal(err)
	}
	orig := make(map[string]bool)
	for _, l := range strings.Split(string(raw), "\n") {
		orig[l] = true
	}
	h, recs, err := telemetry.ReadAll(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("filtered output is not a valid export: %v", err)
	}
	if h.Format != telemetry.FormatV1 {
		t.Errorf("header did not survive the filter: %+v", h)
	}
	if len(recs) != 11 { // 100ms..200ms inclusive at 10ms cadence
		t.Errorf("got %d records, want 11", len(recs))
	}
	for _, r := range recs {
		if r.Kind != telemetry.KindNode || r.Node != 1 || r.T < 100e6 || r.T > 200e6 {
			t.Errorf("record escaped the filter: %+v", r)
		}
	}
	for _, l := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if !orig[l] {
			t.Errorf("filter rewrote a line: %q", l)
		}
	}
}

// TestSummarizeTraceEvents: the summarize subcommand also reads protocol
// trace JSONL (no telemetry header).
func TestSummarizeTraceEvents(t *testing.T) {
	rec := trace.NewRecorder(64)
	rec.Record(trace.Event{At: 1000, Node: 0, Kind: trace.TxStart, Frame: phy.RTS, Peer: 1})
	rec.Record(trace.Event{At: 2000, Node: 1, Kind: trace.RxFrame, Frame: phy.RTS, Peer: 0})
	rec.Record(trace.Event{At: 3000, Node: 0, Kind: trace.Backoff, Peer: -1, Note: "cw=31"})
	var raw bytes.Buffer
	if err := rec.WriteJSONL(&raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"summarize", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"trace: 3 events", "tx", "backoff", "node   0   2", "node   1   1"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace summary missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run([]string{"filter", "-node", "0", path}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("trace filter kept %d lines, want 2:\n%s", len(lines), out.String())
	}
}

// TestSummarizeStdin pipes a recorded export through stdin (the "-"
// input path): the output must be byte-identical to reading the same
// export from a file. This is the seam `curl ... | simtrace summarize -`
// relies on.
func TestSummarizeStdin(t *testing.T) {
	_, raw := export(t)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile bytes.Buffer
	if err := run([]string{"summarize", path}, &fromFile); err != nil {
		t.Fatal(err)
	}

	for name, args := range map[string][]string{
		"dash":    {"summarize", "-"},
		"no file": {"summarize"},
	} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		orig := os.Stdin
		os.Stdin = r
		go func() {
			w.Write(raw)
			w.Close()
		}()
		var fromStdin bytes.Buffer
		runErr := run(args, &fromStdin)
		os.Stdin = orig
		r.Close()
		if runErr != nil {
			t.Fatalf("%s: %v", name, runErr)
		}
		if !bytes.Equal(fromStdin.Bytes(), fromFile.Bytes()) {
			t.Errorf("%s: stdin summary differs from file summary:\n%s\nvs\n%s",
				name, fromStdin.String(), fromFile.String())
		}
	}

	// filter over stdin must preserve bytes exactly like the file path.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdin
	os.Stdin = r
	go func() {
		w.Write(raw)
		w.Close()
	}()
	var filtered bytes.Buffer
	runErr := run([]string{"filter", "-kind", "agg", "-"}, &filtered)
	os.Stdin = orig
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if _, recs, err := telemetry.ReadAll(bytes.NewReader(filtered.Bytes())); err != nil {
		t.Fatalf("stdin-filtered output is not a valid export: %v", err)
	} else if len(recs) == 0 {
		t.Error("stdin filter dropped every aggregate record")
	}
}

func TestRunBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no subcommand: want error")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown subcommand: want error")
	}
	path := filepath.Join(t.TempDir(), "junk.jsonl")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"summarize", path}, &out); err == nil {
		t.Error("malformed input: want error")
	}
}
