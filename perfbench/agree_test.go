package main

import (
	"io"
	"testing"
)

// baseline is a tight synthetic set of five runs per workload: every
// end-to-end metric varies by under 2% around its value.
func baseline(digest string) []*runReport {
	var reps []*runReport
	for _, w := range workloads {
		for i := 0; i < 5; i++ {
			r := &runReport{Workload: w.name, Seed: int64(i), Digest: digest, Metrics: make(map[string]metricValue)}
			for k, m := range endToEnd {
				v := float64(10*(k+1)) * (1 + 0.004*float64(i))
				r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
			reps = append(reps, r)
		}
	}
	return reps
}

// scaled copies reps with one metric multiplied by f.
func scaled(reps []*runReport, metric string, f float64) []*runReport {
	var out []*runReport
	for _, r := range reps {
		c := *r
		c.Metrics = make(map[string]metricValue)
		for k, v := range r.Metrics {
			if k == metric {
				v.Value *= f
			}
			c.Metrics[k] = v
		}
		out = append(out, &c)
	}
	return out
}

func verdictOf(t *testing.T, vs []verdict, workload, metric string) string {
	t.Helper()
	for _, v := range vs {
		if v.Workload == workload && v.Metric == metric {
			return v.Verdict
		}
	}
	t.Fatalf("no verdict for %s %s", workload, metric)
	return ""
}

func TestAgreeIdenticalSetsPass(t *testing.T) {
	vs, flags := agree(baseline("d"), baseline("d"))
	if len(flags) != 0 {
		t.Errorf("flags on identical sets: %v", flags)
	}
	if len(vs) != len(workloads)*len(endToEnd) {
		t.Errorf("%d verdicts, want %d", len(vs), len(workloads)*len(endToEnd))
	}
	for _, v := range vs {
		if v.Verdict != "same" {
			t.Errorf("%s %s: %s on identical samples", v.Workload, v.Metric, v.Verdict)
		}
	}
	if !printAgreement(io.Discard, vs, flags) {
		t.Error("identical sets reported as disagreeing")
	}
}

// TestAgreeFlagsQuarterSlowdown worsens each timing metric in turn by a
// quarter: a time grows by 25%, a rate falls by 25%.
func TestAgreeFlagsQuarterSlowdown(t *testing.T) {
	a := baseline("d")
	for _, m := range endToEnd {
		var f float64
		switch m.Unit {
		case "s", "ms":
			f = 1.25
		case "1/s":
			f = 0.75
		default:
			continue
		}
		vs, _ := agree(a, scaled(a, m.Name, f))
		for _, w := range workloads {
			if got := verdictOf(t, vs, w.name, m.Name); got != "worse" {
				t.Errorf("%s %s slowed 25%%: verdict %s, want worse", w.name, m.Name, got)
			}
		}
		if printAgreement(io.Discard, vs, nil) {
			t.Errorf("%s slowed 25%%: sets reported as agreeing", m.Name)
		}
	}
}

func TestAgreeFlagsDigestChange(t *testing.T) {
	_, flags := agree(baseline("d"), baseline("e"))
	if len(flags) != len(workloads) {
		t.Errorf("flags %v, want one digest flag per workload", flags)
	}
}

func TestAgreeWideSpreadIsUnresolved(t *testing.T) {
	a := baseline("d")
	// Spread op_p50_ms of A over ±40%, far wider than its bound; B keeps
	// the same values, so no B sample beats every A sample.
	for i, r := range a {
		v := r.Metrics["op_p50_ms"]
		v.Value *= 1 + 0.4*float64(i%5-2)/2
		r.Metrics["op_p50_ms"] = v
	}
	vs, _ := agree(a, a)
	for _, w := range workloads {
		if got := verdictOf(t, vs, w.name, "op_p50_ms"); got != "unresolved" {
			t.Errorf("%s: verdict %s, want unresolved", w.name, got)
		}
	}
	// Every B sample beating every A sample resolves the metric anyway.
	vs, _ = agree(a, scaled(a, "op_p50_ms", 0.3))
	if got := verdictOf(t, vs, "paper-grid", "op_p50_ms"); got != "better" {
		t.Errorf("all-better B: verdict %s, want better", got)
	}
}
