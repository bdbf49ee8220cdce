package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// export runs a small simulation with telemetry, its scenario named
// name, and returns the run's result plus the raw JSONL export bytes.
func export(t *testing.T, name string) (*sim.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := telemetry.NewWriter(&buf)
	res, err := sim.RunScenario(sim.Scenario{
		Name:         name,
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
	res, raw := export(t, "")
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

// TestSummarizeLongHeader: an export whose header is longer than any
// fixed peek (here, with a 5 000-character scenario name) still reads
// as telemetry.
func TestSummarizeLongHeader(t *testing.T) {
	name := strings.Repeat("n", 5000)
	_, raw := export(t, name)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"summarize", path}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "scenario " + name + " scheme DRTS-DCTS seed 7"; !strings.Contains(out.String(), want) {
		t.Errorf("summary lacks the long-named header:\n%.300s", out.String())
	}
}

// TestSummarizeCLI drives the real subcommand against an export file.
func TestSummarizeCLI(t *testing.T) {
	_, raw := export(t, "")
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
	_, raw := export(t, "")
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

// filterBytes runs filter with args over in and returns its output.
func filterBytes(t *testing.T, in []byte, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.jsonl")
	if err := os.WriteFile(path, in, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(append(append([]string{"filter"}, args...), path), &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestFilterKeepsLineEndings: a kept line leaves filter with the bytes
// it came in with, CRLF terminators and a missing final newline
// included.
func TestFilterKeepsLineEndings(t *testing.T) {
	_, raw := export(t, "")
	crlf := bytes.ReplaceAll(bytes.Join(bytes.SplitAfter(raw, []byte("\n"))[:3], nil), []byte("\n"), []byte("\r\n"))
	for _, in := range [][]byte{crlf, bytes.TrimSuffix(crlf, []byte("\r\n"))} {
		if got := filterBytes(t, in); !bytes.Equal(got, in) {
			t.Errorf("filter changed the bytes:\n got %q\nwant %q", got, in)
		}
	}
}

// TestFilterHeaderIsFirstLineOnly: only the first line can be a header,
// and a record is decoded without its "format", as telemetry.ReadAll
// decodes it. A record whose format is a number passes; one whose format
// is a string is filtered by its kind like any other record.
func TestFilterHeaderIsFirstLineOnly(t *testing.T) {
	const header = `{"format":"repro-telemetry/v1","seed":7,"nodes":3,"innerNodes":3,"intervalNs":10000000,"durationNs":300000000}` + "\n"
	const agg = `{"kind":"agg","t":1,"node":-1,"jain":1}` + "\n"
	cases := []struct {
		name, in, kind, want string
	}{
		{"numeric format", header + `{"t":1,"node":0,"kind":"node","format":1}` + "\n" + agg, "", ""},
		{"string format", header + `{"t":1,"node":0,"kind":"node","format":"x"}` + "\n" + agg, "agg", header + agg},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := telemetry.ReadAll(strings.NewReader(c.in)); err != nil {
				t.Fatalf("telemetry.ReadAll rejects the input: %v", err)
			}
			want := c.want
			if want == "" {
				want = c.in
			}
			if got := filterBytes(t, []byte(c.in), "-kind="+c.kind); string(got) != want {
				t.Errorf("filter -kind=%q kept\n%s\nwant\n%s", c.kind, got, want)
			}
		})
	}
}

// TestSummarizeStdin pipes a recorded export through stdin (the "-"
// input path): the output must be byte-identical to reading the same
// export from a file. This is the seam `curl ... | simtrace summarize -`
// relies on.
func TestSummarizeStdin(t *testing.T) {
	_, raw := export(t, "")
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

// FuzzSimtraceFilter: filter must never panic, and when it succeeds its
// output holds only non-blank input lines, byte for byte and in input
// order. A line runs up to and including its newline, so a CRLF ending
// is part of the line; a last line may have none. The first non-blank
// line is a header if its "format" is a non-empty string, and then
// passes whatever the predicates; no later line is a header. An input
// that telemetry.ReadAll accepts still reads back after filtering.
// Plain `go test` runs the seeds: the experiments package's telemetry
// golden (also with CRLF endings), a headerless stream of protocol
// trace events and a header followed by records carrying a "format"
// field, under a few flag sets. Explore further with the command below; as for
// FuzzTelemetryReadAll, the 17 KB golden seed needs a short
// minimization time or the workers stall.
//
//	go test ./cmd/simtrace -run '^$' -fuzz FuzzSimtraceFilter -fuzzminimizetime 2s
func FuzzSimtraceFilter(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden_telemetry_drtsdcts_n3_b90.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	events := []byte(`{"t":1000,"node":0,"kind":"tx","frame":"RTS","peer":1}` + "\n" +
		`{"t":2000,"node":1,"kind":"rx","frame":"RTS","peer":0}` + "\n" +
		`{"t":3000,"node":0,"kind":"backoff","peer":-1,"note":"cw=31"}` + "\n")
	ms := int64(des.Millisecond)
	f.Add(golden, -1, "", int64(0), int64(0))
	f.Add(golden, 1, "node", 100*ms, 200*ms)
	f.Add(golden, -1, "agg", int64(0), int64(0))
	f.Add(golden, 2, "hist", int64(0), 50*ms)
	f.Add(events, 0, "", int64(0), int64(0))
	f.Add(events, -1, "tx", int64(1500), int64(0))
	f.Add([]byte{}, -1, "", int64(0), int64(0))
	f.Add(bytes.ReplaceAll(golden, []byte("\n"), []byte("\r\n")), -1, "agg", int64(0), int64(0))
	formats := []byte(`{"format":"repro-telemetry/v1","nodes":3}` + "\n" +
		`{"t":1,"node":0,"kind":"node","format":1}` + "\n" + `{"t":2,"node":0,"kind":"node","format":"x"}`)
	f.Add(formats, -1, "", int64(0), int64(0))
	f.Add(formats, -1, "agg", int64(0), int64(0))

	path := filepath.Join(f.TempDir(), "in.jsonl")
	f.Fuzz(func(t *testing.T, data []byte, node int, kind string, from, to int64) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		args := []string{"filter", "-node=" + strconv.Itoa(node), "-kind=" + kind,
			"-from=" + time.Duration(from).String(), "-to=" + time.Duration(to).String(), path}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			return
		}

		var in [][]byte // the non-blank input lines
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				in = append(in, line)
			}
		}
		got := out.Bytes()
		if len(in) > 0 && isHeader(in[0]) && !bytes.HasPrefix(got, in[0]) {
			t.Fatalf("header line dropped: %q", in[0])
		}
		next := 0 // index of the first input line the next output line may match
		for _, line := range bytes.SplitAfter(got, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			for ; next < len(in) && !bytes.Equal(in[next], line); next++ {
			}
			if next == len(in) {
				t.Fatalf("output line %q is not a later input line", line)
			}
			next++
		}

		if _, _, err := telemetry.ReadAll(bytes.NewReader(data)); err == nil {
			if _, _, err := telemetry.ReadAll(&out); err != nil {
				t.Fatalf("a valid export no longer reads back after filtering: %v", err)
			}
		}
	})
}

// isHeader reports whether line is a header in filter's sense when it is
// the first non-blank line: a JSON object whose "format" is a non-empty
// string.
func isHeader(line []byte) bool {
	var h struct {
		Format string `json:"format"`
	}
	return json.Unmarshal(line, &h) == nil && h.Format != ""
}
