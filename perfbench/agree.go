package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// verdict compares one end-to-end metric of one workload between a
// baseline set of runs (A) and a candidate set (B).
type verdict struct {
	Workload string
	Metric   string
	MedA     float64
	MedB     float64
	// SpreadA and SpreadB are each set's interquartile range as a share
	// of its median.
	SpreadA float64
	SpreadB float64
	// Worse is how much worse B's median is than A's, as a share of A's
	// median; negative when B is better.
	Worse   float64
	Verdict string // better, worse, same or unresolved
}

// compareMetric applies the benchmark's rule to one metric's samples:
// unresolved when either set's spread is wider than the bound, unless
// every B sample beats every A sample; otherwise worse or better when
// the medians differ by at least the bound, else same.
func compareMetric(m metricDef, a, b []float64) verdict {
	v := verdict{Metric: m.Name, MedA: median(a), MedB: median(b), SpreadA: spread(a), SpreadB: spread(b)}
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	v.Worse = sign * (v.MedB - v.MedA) / math.Abs(v.MedA)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	const eps = 1e-9
	switch {
	case allBetter && -v.Worse > v.SpreadA:
		v.Verdict = "better"
	case math.Max(v.SpreadA, v.SpreadB) > m.Bound:
		v.Verdict = "unresolved"
	case v.Worse >= m.Bound-eps:
		v.Verdict = "worse"
	case -v.Worse >= m.Bound-eps:
		v.Verdict = "better"
	default:
		v.Verdict = "same"
	}
	return v
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	d := summarize(xs, 0.5)
	return (d.Q3 - d.Q1) / math.Abs(d.P50)
}

// agree compares two sets of untraced run reports workload by workload.
// Besides the verdicts it returns flags for anything that must match
// exactly: result digests and failed operations.
func agree(a, b []*runReport) ([]verdict, []string) {
	byWorkload := func(reps []*runReport) map[string][]*runReport {
		out := make(map[string][]*runReport)
		for _, r := range reps {
			if !r.Trace {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
		return out
	}
	wa, wb := byWorkload(a), byWorkload(b)
	names := make([]string, 0, len(wa))
	for w := range wa {
		names = append(names, w)
	}
	sort.Strings(names)
	var verdicts []verdict
	var flags []string
	for _, w := range names {
		ra, rb := wa[w], wb[w]
		if len(rb) == 0 {
			flags = append(flags, fmt.Sprintf("%s: no B runs", w))
			continue
		}
		digests := make(map[string]int)
		failed := [2]int{}
		for s, set := range [][]*runReport{ra, rb} {
			for _, r := range set {
				// A digest covers one seed's inputs, so only runs of the
				// same seed must agree on it.
				digests[fmt.Sprintf("%d/%s", r.Seed, r.Digest)]++
				failed[s] += r.Failed
			}
		}
		seeds := make(map[int64]bool)
		for _, r := range append(append([]*runReport(nil), ra...), rb...) {
			seeds[r.Seed] = true
		}
		if len(digests) != len(seeds) {
			flags = append(flags, fmt.Sprintf("%s: result_digest differs between runs of the same seed", w))
		}
		if failed[0] != 0 || failed[1] != 0 {
			flags = append(flags, fmt.Sprintf("%s: failed ops A=%d B=%d", w, failed[0], failed[1]))
		}
		for _, m := range endToEnd {
			var xa, xb []float64
			for _, r := range ra {
				xa = append(xa, r.Metrics[m.Name].Value)
			}
			for _, r := range rb {
				xb = append(xb, r.Metrics[m.Name].Value)
			}
			v := compareMetric(m, xa, xb)
			v.Workload = w
			verdicts = append(verdicts, v)
		}
	}
	return verdicts, flags
}

// readReports loads a comma-separated list of -out report files.
func readReports(list string) ([]*runReport, error) {
	var out []*runReport
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r runReport
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// printAgreement writes the verdict table and flags; it reports whether
// the sets agree: no worse verdict and no flag.
func printAgreement(w io.Writer, verdicts []verdict, flags []string) bool {
	ok := len(flags) == 0
	fmt.Fprintf(w, "%-12s %-12s %14s %8s %14s %8s %8s  %s\n", "workload", "metric", "median A", "IQR A", "median B", "IQR B", "worse", "verdict")
	for _, v := range verdicts {
		fmt.Fprintf(w, "%-12s %-12s %14.6g %7.1f%% %14.6g %7.1f%% %7.1f%%  %s\n",
			v.Workload, v.Metric, v.MedA, 100*v.SpreadA, v.MedB, 100*v.SpreadB, 100*v.Worse, v.Verdict)
		if v.Verdict == "worse" {
			ok = false
		}
	}
	for _, f := range flags {
		fmt.Fprintln(w, "FLAG:", f)
	}
	return ok
}
