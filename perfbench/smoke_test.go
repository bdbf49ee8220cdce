package main

import (
	"math"
	"os/exec"
	"testing"
)

// TestWorkloadsSmoke runs every workload end to end at tiny sizes: one
// untimed phase of whole passes, every output checked.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := env{seed: 5, work: t.TempDir(), workers: 2, tiny: true}
			rep, err := runWorkload(w, e, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("attempted %d failed %d: %v", rep.Attempted, rep.Failed, rep.Failures)
			}
			if rep.Passes < w.minPasses {
				t.Errorf("%d passes, want at least %d", rep.Passes, w.minPasses)
			}
			for _, m := range endToEnd {
				v, ok := rep.Metrics[m.Name]
				if !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("metric %s = %+v (present %v)", m.Name, v, ok)
				}
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
		})
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced measurement of a
// tiny sparse-idle and checks the per-layer catalogue is complete.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool pprof needs the go command")
	}
	w, err := findWorkload("sparse-idle")
	if err != nil {
		t.Fatal(err)
	}
	e := env{seed: 5, work: t.TempDir(), workers: 2, tiny: true}
	rep, err := runWorkload(w, e, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced run failed: %v", rep.Failures)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if _, ok := rep.Metrics[m.Name]; !ok {
			t.Errorf("missing %s", m.Name)
		}
	}
	for _, name := range []string{"sim.run_ms", "des.events", "phy.frames", "server.hit_ms", "cache.get_hit_us", "telemetry.records_per_run"} {
		if !(rep.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, rep.Metrics[name].Value)
		}
	}
	op, run := rep.Spans["op"], rep.Spans["sim.Run"]
	if run.Count == 0 || op.Count != run.Count {
		t.Errorf("want one sim.Run span per op span: %v", rep.Spans)
	}
	if !(op.SelfMs >= 0 && op.SelfMs < op.TotalMs) {
		t.Errorf("op self time %v not below its total %v", op.SelfMs, op.TotalMs)
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/des.(*Scheduler).Run":          "des",
		"repro/internal/mac.(*Node).tickSlot.func1":    "mac",
		"repro/internal/phy.(*Channel).propagate":      "phy",
		"repro/internal/geom.Point.Dist2":              "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"net/http.(*conn).serve":                       "net_http",
		"encoding/json.(*encodeState).marshal":         "stdlib",
		"slices.SortFunc[go.shape.[]int,go.shape.int]": "stdlib",
		"main.runPass.func1":                           "other",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	out := `      flat  flat%   sum%        cum   cum%
     1.50s 50.00% 50.00%      1.50s 50.00%  repro/internal/des.(*Scheduler).Run
     0.90s 30.00% 80.00%      0.90s 30.00%  runtime.mallocgc
     0.60s 20.00%   100%      0.60s 20.00%  repro/internal/des.New
`
	shares := parseTop(out)
	if math.Abs(shares["des"]-0.7) > 1e-12 || math.Abs(shares["runtime"]-0.3) > 1e-12 {
		t.Errorf("parseTop = %v", shares)
	}
}
