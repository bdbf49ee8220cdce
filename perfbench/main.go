// Command perfbench is the repository's benchmark. One invocation runs
// one named workload in its own process against the public APIs of
// internal/experiments, internal/sim, internal/server and internal/cache,
// checks every output, and prints as its last line one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"<unit>"},...}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones from a separate traced run. Run it through run.sh, which
// builds it from source inside the checkout:
//
//	bash perfbench/run.sh -workload paper-grid -seed 1 -seconds 20 -trace 0 -out a1.json
//	bash perfbench/run.sh -agree a1.json,a2.json b1.json,b2.json
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// runSeconds is how long one run's timed passes last by default; the
// benchmark manifest records the same value.
const runSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-grid, sparse-idle, large-field or served-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := fs.String("out", "", "also write the full run report as JSON to this file")
	work := fs.String("work", ".bench_build", "scratch directory for caches, profiles and spans")
	agreeA := fs.String("agree", "", "compare two sets of -out reports: -agree A1.json,A2.json B1.json,B2.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agreeA != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "perfbench: -agree needs the B set as its one argument")
			return 2
		}
		return runAgree(*agreeA, fs.Arg(0), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := env{seed: *seed, work: *work, workers: runtime.NumCPU()}
	rep, err := runWorkload(w, e, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	printSummary(stderr, rep)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printSummary writes a human-readable account of a run.
func printSummary(w io.Writer, r *runReport) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d passes, %d ops attempted, %d failed, nproc %d, %s\n",
		r.Workload, r.Seed, r.Trace, r.Passes, r.Attempted, r.Failed, r.Nproc, r.GoVersion)
	fmt.Fprintf(w, "result_digest %s  warmup_s %.4f\n", r.Digest, r.WarmupS)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
	names := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		d := r.Detail[k]
		fmt.Fprintf(w, "  %-28s n=%-6d p50=%-10.4g q1=%-10.4g q3=%-10.4g p%g=%.4g\n", k, d.N, d.P50, d.Q1, d.Q3, 100*d.TailP, d.Tail)
	}
}

func runAgree(listA, listB string, stdout, stderr io.Writer) int {
	a, err := readReports(listA)
	if err == nil {
		var b []*runReport
		if b, err = readReports(listB); err == nil {
			verdicts, flags := agree(a, b)
			if printAgreement(stdout, verdicts, flags) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}
