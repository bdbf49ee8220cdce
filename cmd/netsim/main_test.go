package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// capture runs fn and returns what it wrote to stdout.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	stdout, _, err := captureStreams(t, fn)
	return stdout, err
}

// captureStreams runs fn with stdout and stderr redirected to pipes and
// returns what each received. The pipes drain while fn runs, so output
// larger than a pipe buffer cannot block it.
func captureStreams(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	redirect := func(f **os.File) (restore func() string) {
		r, w, perr := os.Pipe()
		if perr != nil {
			t.Fatal(perr)
		}
		old := *f
		*f = w
		got := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			got <- string(b)
		}()
		return func() string {
			w.Close()
			*f = old
			return <-got
		}
	}
	restoreOut := redirect(&os.Stdout)
	restoreErr := redirect(&os.Stderr)
	err = fn()
	return restoreOut(), restoreErr(), err
}

func TestRunSingleTopology(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-scheme", "orts-octs", "-n", "3", "-duration", "200ms", "-seed", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ORTS-OCTS N=3", "mean inner throughput", "Jain fairness"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBatchMode(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-scheme", "drts-dcts", "-n", "3", "-beam", "90",
			"-duration", "150ms", "-topologies", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "over 2 topologies") {
		t.Errorf("batch header missing:\n%s", out)
	}
}

func TestRunVerboseAndTrace(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-scheme", "orts-octs", "-n", "3", "-duration", "150ms",
			"-verbose", "-trace", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "per inner node:") {
		t.Error("verbose section missing")
	}
	if !strings.Contains(out, "trace events:") {
		t.Error("trace section missing")
	}
}

// TestScenarioMatchesFlags pins the acceptance contract of the scenario
// path: dumping a flag configuration to a scenario file and running the
// file must produce byte-identical output to the flag invocation.
func TestScenarioMatchesFlags(t *testing.T) {
	configs := [][]string{
		{"-scheme", "orts-octs", "-n", "3", "-duration", "200ms", "-seed", "4"},
		{"-scheme", "drts-dcts", "-n", "3", "-beam", "90", "-duration", "150ms", "-seed", "2"},
		{"-scheme", "drts-octs", "-n", "3", "-beam", "60", "-duration", "150ms", "-no-eifs", "-capture"},
		{"-scheme", "drts-dcts", "-n", "3", "-beam", "45", "-duration", "100ms", "-topologies", "2"},
	}
	for _, flags := range configs {
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			viaFlags, err := capture(t, func() error { return run(flags) })
			if err != nil {
				t.Fatal(err)
			}
			dump, err := capture(t, func() error { return run(append(append([]string{}, flags...), "-dump-scenario")) })
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "scenario.json")
			if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
				t.Fatal(err)
			}
			scenarioArgs := []string{"-scenario", path}
			for i, f := range flags {
				if f == "-topologies" {
					scenarioArgs = append(scenarioArgs, "-topologies", flags[i+1])
				}
			}
			viaScenario, err := capture(t, func() error { return run(scenarioArgs) })
			if err != nil {
				t.Fatal(err)
			}
			if viaFlags != viaScenario {
				t.Errorf("scenario output differs from flag output\n--- flags ---\n%s--- scenario ---\n%s", viaFlags, viaScenario)
			}
		})
	}
}

// TestDumpScenarioCanonical: -dump-scenario output must already be in
// the canonical MarshalScenario form (parse → re-marshal is a no-op).
func TestDumpScenarioCanonical(t *testing.T) {
	dump, err := capture(t, func() error {
		return run([]string{"-scheme", "drts-dcts", "-n", "4", "-beam", "60", "-dump-scenario"})
	})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sim.ParseScenario([]byte(dump))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := sim.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if dump != string(out) {
		t.Errorf("dump is not canonical:\n%s\nvs\n%s", dump, out)
	}
}

func TestRunBadScenarioFile(t *testing.T) {
	if err := run([]string{"-scenario", "/nonexistent/run.json"}); err == nil {
		t.Error("missing scenario file should fail")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"scheme":"DRTS-DCTS","seeed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path}); err == nil {
		t.Error("scenario with unknown field should fail")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-scheme", "bogus"}); err == nil {
		t.Error("unknown scheme should fail")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag should fail")
	}
}

// TestRunJSON pins the -json contract: the printed bytes are exactly
// sim.EncodeResult of the run plus one newline — the same body cmd/simd
// serves for the same spec, which is what makes `cmp` between the two a
// meaningful gate (make simd-smoke).
func TestRunJSON(t *testing.T) {
	sc := sim.Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 60,
		Seed:         5,
		Duration:     sim.Duration(40e6),
		Topology:     sim.TopologySpec{N: 2},
	}
	spec, err := sim.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-scenario", path, "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunScenario(sc, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := sim.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(payload) + "\n"; out != want {
		t.Errorf("-json output is not the canonical encoding:\n got %q\nwant %q", out, want)
	}

	if err := run([]string{"-scenario", path, "-json", "-topologies", "2"}); err == nil {
		t.Error("-json with -topologies 2: want error (single-run contract)")
	}
}

// TestTelemetryWriteErrorFails: an export that fails to reach its file
// fails the run. The export here is smaller than the writer's buffer,
// so the write error surfaces only at the final flush; both the single
// run and the sharded -topologies path must report it.
func TestTelemetryWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	base := []string{"-scheme", "drts-dcts", "-n", "3", "-beam", "30", "-duration", "2ms",
		"-telemetry", "/dev/full", "-telemetry-interval", "1ms"}
	for name, extra := range map[string][]string{"single": nil, "topologies": {"-topologies", "2"}} {
		args := append(append([]string{}, base...), extra...)
		t.Run(name, func(t *testing.T) {
			if _, err := capture(t, func() error { return run(args) }); err == nil {
				t.Error("telemetry export to /dev/full: want a write error")
			}
		})
	}
}

// TestRejectedRunKeepsTelemetryFile: flags that fail validation must not
// truncate an existing export; the file is created only for a run.
func TestRejectedRunKeepsTelemetryFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte("kept\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-n", "0", "-telemetry", path},
		{"-json", "-topologies", "2", "-telemetry", path},
	} {
		if err := run(args); err == nil {
			t.Fatalf("%v: want an error", args)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != "kept\n" {
			t.Errorf("%v: export file now %q (err %v), want it untouched", args, b, err)
		}
	}
}

// TestTelemetryToStdout: with -telemetry - stdout carries the export and
// nothing else, so `netsim ... -telemetry - | simtrace summarize -`
// parses it, and the text report goes to stderr, for a single run and
// for -topologies. -json cannot share stdout with the export.
func TestTelemetryToStdout(t *testing.T) {
	base := []string{"-scheme", "drts-dcts", "-n", "5", "-beam", "60", "-duration", "100ms", "-telemetry", "-"}
	for _, tc := range []struct {
		name   string
		extra  []string
		report string
	}{
		{"single", nil, "DRTS-DCTS N=5 θ=60° seed=1"},
		{"topologies", []string{"-topologies", "2"}, "over 2 topologies"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string{}, base...), tc.extra...)
			stdout, stderr, err := captureStreams(t, func() error { return run(args) })
			if err != nil {
				t.Fatal(err)
			}
			h, recs, err := telemetry.ReadAll(strings.NewReader(stdout))
			if err != nil {
				t.Fatalf("stdout is not one telemetry export: %v", err)
			}
			if h.Scheme != "DRTS-DCTS" || len(recs) == 0 {
				t.Errorf("export header %+v with %d records", h, len(recs))
			}
			if !strings.Contains(stderr, tc.report) {
				t.Errorf("stderr lacks the report line %q:\n%s", tc.report, stderr)
			}
		})
	}
	if err := run(append(append([]string{}, base...), "-json")); err == nil {
		t.Error("-json with -telemetry -: want an error (both write to stdout)")
	}
}
