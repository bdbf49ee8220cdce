package experiments

import (
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/sim"
)

func quickScenario(scheme core.Scheme, n int, beamDeg float64) sim.Scenario {
	return sim.Scenario{
		Scheme:       scheme.String(),
		BeamwidthDeg: beamDeg,
		Seed:         7,
		Duration:     sim.Duration(500 * des.Millisecond),
		Topology:     sim.TopologySpec{N: n},
	}
}

// paperScenario is a rings run of s at N=n, θ=beamDeg for one second.
func paperScenario(s core.Scheme, n int, beamDeg float64, seed int64) sim.Scenario {
	sc := quickScenario(s, n, beamDeg)
	sc.Seed = seed
	sc.Duration = sim.Duration(des.Second)
	return sc
}

// waypoint is the mobility section of a random-waypoint walk at speed
// (none at speed 0) with neighbor locations refreshed every refresh.
func waypoint(speed float64, refresh des.Time) sim.MobilitySpec {
	if speed == 0 {
		return sim.MobilitySpec{}
	}
	return sim.MobilitySpec{Kind: "waypoint", MaxSpeed: speed, RefreshInterval: sim.Duration(refresh)}
}

func TestRunSimBasics(t *testing.T) {
	res, err := sim.RunScenario(quickScenario(core.ORTSOCTS, 3, 0), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ThroughputBps) != 3 || len(res.DelaySec) != 3 || len(res.CollisionRatio) != 3 {
		t.Fatalf("inner metric lengths: %d/%d/%d, want 3",
			len(res.ThroughputBps), len(res.DelaySec), len(res.CollisionRatio))
	}
	if len(res.NodeStats) != 27 {
		t.Fatalf("NodeStats = %d, want 27 (9N)", len(res.NodeStats))
	}
	if res.MeanThroughputBps() <= 0 {
		t.Error("saturated inner nodes should move data")
	}
	if res.Jain <= 0 || res.Jain > 1 {
		t.Errorf("Jain = %v outside (0, 1]", res.Jain)
	}
	for i, r := range res.CollisionRatio {
		if r < 0 || r > 1 {
			t.Errorf("collision ratio[%d] = %v", i, r)
		}
	}
}

func TestRunSimDeterministic(t *testing.T) {
	cfg := quickScenario(core.DRTSDCTS, 3, 90)
	a, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.ThroughputBps {
		if a.ThroughputBps[i] != b.ThroughputBps[i] {
			t.Fatalf("node %d throughput differs across identical runs", i)
		}
	}
	cfg.Seed = 8
	c, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.ThroughputBps {
		if a.ThroughputBps[i] != c.ThroughputBps[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestRunSimHelloBootstrap(t *testing.T) {
	cfg := quickScenario(core.DRTSDCTS, 3, 90)
	cfg.Ablations.HelloBootstrap = true
	res, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanThroughputBps() <= 0 {
		t.Error("hello-bootstrapped network should still move data")
	}
}

func TestRunBatch(t *testing.T) {
	cfg := quickScenario(core.ORTSOCTS, 3, 0)
	b, err := RunBatch(sim.Runner{}, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Runs != 4 || b.ThroughputBps.Count != 4 {
		t.Errorf("batch runs = %d/%d, want 4", b.Runs, b.ThroughputBps.Count)
	}
	if !(b.ThroughputBps.Min <= b.ThroughputBps.Mean && b.ThroughputBps.Mean <= b.ThroughputBps.Max) {
		t.Errorf("throughput summary disordered: %+v", b.ThroughputBps)
	}
	if b.ThroughputBps.Min == b.ThroughputBps.Max {
		t.Error("independent topologies should differ")
	}
	if _, err := RunBatch(sim.Runner{}, cfg, 0); err == nil {
		t.Error("zero topologies should be rejected")
	}
}

func TestRunGrid(t *testing.T) {
	base := quickScenario(core.ORTSOCTS, 0, 0) // scheme/N/beam filled by grid
	base.Duration = sim.Duration(300 * des.Millisecond)
	cells, err := Grid(sim.Runner{}, base, []core.Scheme{core.ORTSOCTS, core.DRTSDCTS}, []int{3}, []float64{30, 150}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if c.Batch == nil || c.Batch.Runs != 2 {
			t.Errorf("cell %+v missing batch", c)
		}
		seen[c.Scheme.String()] = true
	}
	if !seen["ORTS-OCTS"] || !seen["DRTS-DCTS"] {
		t.Error("grid missing schemes")
	}
}

// TestGridRunsOmniOncePerN: ORTS-OCTS never forms a beam, so Grid
// simulates it at the first beamwidth only and repeats that batch at
// the others. The cache sees one miss per topology, not one per
// (beamwidth, topology), and a fresh run at the second beamwidth gives
// the batch Grid repeated.
func TestGridRunsOmniOncePerN(t *testing.T) {
	store, err := cache.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.Runner{Options: sim.Options{Cache: store}}
	base := quickScenario(core.ORTSOCTS, 3, 0)
	base.Duration = sim.Duration(300 * des.Millisecond)
	cells, err := Grid(r, base, []core.Scheme{core.ORTSOCTS}, []int{3}, []float64{30, 150}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].BeamwidthDeg != 30 || cells[1].BeamwidthDeg != 150 {
		t.Fatalf("cells = %+v, want ORTS-OCTS at 30° and 150°", cells)
	}
	if st := store.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("cache: %d misses, %d hits; want 2 misses (one per topology), 0 hits", st.Misses, st.Hits)
	}
	if !reflect.DeepEqual(cells[0].Batch, cells[1].Batch) {
		t.Errorf("omni cells differ across beamwidths:\n%+v\n%+v", cells[0].Batch, cells[1].Batch)
	}
	at150 := base
	at150.BeamwidthDeg = 150
	fresh, err := RunBatch(sim.Runner{}, at150, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, cells[1].Batch) {
		t.Errorf("ORTS-OCTS simulated at 150° = %+v, grid repeated %+v", fresh, cells[1].Batch)
	}
}

func TestPaperGrid(t *testing.T) {
	ns, beams := PaperGrid()
	if len(ns) != 3 || ns[0] != 3 || ns[1] != 5 || ns[2] != 8 {
		t.Errorf("ns = %v, want [3 5 8]", ns)
	}
	if len(beams) != 3 || beams[0] != 30 || beams[1] != 90 || beams[2] != 150 {
		t.Errorf("beams = %v, want [30 90 150]", beams)
	}
}

func TestFig5(t *testing.T) {
	rows, err := Fig5([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 beamwidths", len(rows))
	}
	if rows[0].BeamwidthDeg != 15 || rows[11].BeamwidthDeg != 180 {
		t.Errorf("beamwidth endpoints: %v, %v", rows[0].BeamwidthDeg, rows[11].BeamwidthDeg)
	}
	if err := Fig5Shape(rows); err != nil {
		t.Errorf("computed Fig. 5 violates the published shape: %v", err)
	}
}

func TestFig5ShapeDetectsViolations(t *testing.T) {
	rows, err := Fig5([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	// Break claim 1: make ORTS-OCTS the winner at the narrowest beam.
	broken := make([]Fig5Row, len(rows))
	copy(broken, rows)
	broken[0].ORTSOCTS = 2 * broken[0].DRTSDCTS
	if err := Fig5Shape(broken); err == nil {
		t.Error("shape check missed a narrow-beam ordering violation")
	}
	// Break claim 2: make DRTS-DCTS increase with beamwidth.
	copy(broken, rows)
	broken[5].DRTSDCTS = broken[4].DRTSDCTS * 1.5
	if err := Fig5Shape(broken); err == nil {
		t.Error("shape check missed a monotonicity violation")
	}
	// Break claim 3: make ORTS-OCTS depend on θ.
	copy(broken, rows)
	broken[3].ORTSOCTS *= 1.1
	if err := Fig5Shape(broken); err == nil {
		t.Error("shape check missed ORTS-OCTS θ-dependence")
	}
}

func TestWriteFig5(t *testing.T) {
	rows, err := Fig5([]float64{3, 8})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFig5(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig. 5", "N=3", "N=8", "ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 output missing %q", want)
		}
	}
	var csv strings.Builder
	if err := WriteFig5CSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+24 {
		t.Errorf("CSV lines = %d, want header + 24 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "n,theta_deg") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestWriteGrid(t *testing.T) {
	base := quickScenario(core.ORTSOCTS, 0, 0)
	base.Duration = sim.Duration(200 * des.Millisecond)
	cells, err := Grid(sim.Runner{}, base, []core.Scheme{core.ORTSOCTS}, []int{3}, []float64{30}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{MetricThroughput, MetricDelay, MetricCollision, MetricFairness} {
		var sb strings.Builder
		if err := WriteGrid(&sb, "Fig. test", cells, m); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "N=3") {
			t.Errorf("grid output for %v missing N block", m)
		}
	}
	var csv strings.Builder
	if err := WriteGridCSV(&csv, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "ORTS-OCTS,3,30,2,") {
		t.Errorf("grid CSV missing data row: %q", csv.String())
	}
	if err := WriteGrid(&strings.Builder{}, "x", nil, MetricDelay); err == nil {
		t.Error("empty grid should error")
	}
}

func TestMetricString(t *testing.T) {
	if MetricThroughput.String() == "" || Metric(99).String() == "" {
		t.Error("metric names must be non-empty")
	}
}

func TestWriteTable1(t *testing.T) {
	var sb strings.Builder
	WriteTable1(&sb)
	out := sb.String()
	for _, want := range []string{"20B", "14B", "1460", "50µs", "10µs", "31-1023", "192µs", "2 Mb/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// TestPaperFig6Fig7Shape is the end-to-end reproduction check: on the
// paper's densest configuration, the all-directional scheme must beat the
// omni scheme on throughput and delay at narrow beamwidth while showing a
// higher collision ratio — the paper's central claims.
func TestPaperFig6Fig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(s core.Scheme) *BatchResult {
		cfg := paperScenario(s, 8, 30, 50)
		b, err := RunBatch(sim.Runner{}, cfg, 6)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	omni := run(core.ORTSOCTS)
	dd := run(core.DRTSDCTS)
	if dd.ThroughputBps.Mean <= omni.ThroughputBps.Mean {
		t.Errorf("Fig. 6 shape: DRTS-DCTS %.0f ≤ ORTS-OCTS %.0f b/s at N=8 θ=30°",
			dd.ThroughputBps.Mean, omni.ThroughputBps.Mean)
	}
	if dd.DelaySec.Mean >= omni.DelaySec.Mean {
		t.Errorf("Fig. 7 shape: DRTS-DCTS delay %.1f ms ≥ ORTS-OCTS %.1f ms",
			dd.DelaySec.Mean*1000, omni.DelaySec.Mean*1000)
	}
	if dd.CollisionRatio.Mean <= omni.CollisionRatio.Mean {
		t.Errorf("collision shape: DRTS-DCTS %.3f ≤ ORTS-OCTS %.3f",
			dd.CollisionRatio.Mean, omni.CollisionRatio.Mean)
	}
}

func TestAblationSwitchesRun(t *testing.T) {
	base := quickScenario(core.DRTSDCTS, 3, 30)
	for name, mut := range map[string]func(*sim.Scenario){
		"capture":     func(c *sim.Scenario) { c.PHY.Capture = true },
		"nav oracle":  func(c *sim.Scenario) { c.PHY.NAVOracle = true },
		"eifs off":    func(c *sim.Scenario) { c.Ablations.DisableEIFS = true },
		"small bytes": func(c *sim.Scenario) { c.Traffic.PacketBytes = 512 },
	} {
		cfg := base
		mut(&cfg)
		res, err := sim.RunScenario(cfg, sim.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MeanThroughputBps() <= 0 {
			t.Errorf("%s: no progress", name)
		}
	}
}

// TestNAVOracleForcesMoreWaiting: with oracle virtual carrier sensing,
// out-of-beam neighbors defer as if transmissions were omni, so the
// all-directional scheme loses (part of) its reduced-waiting advantage.
// Aggregated over several topologies the oracle must not increase
// throughput.
func TestNAVOracleForcesMoreWaiting(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := paperScenario(core.DRTSDCTS, 5, 30, 60)
	plain, err := RunBatch(sim.Runner{}, base, 5)
	if err != nil {
		t.Fatal(err)
	}
	oracleCfg := base
	oracleCfg.PHY.NAVOracle = true
	oracle, err := RunBatch(sim.Runner{}, oracleCfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.ThroughputBps.Mean > plain.ThroughputBps.Mean*1.05 {
		t.Errorf("oracle NAV increased throughput: %.0f vs %.0f b/s",
			oracle.ThroughputBps.Mean, plain.ThroughputBps.Mean)
	}
}

func TestOfferedLoadLight(t *testing.T) {
	// At light load the network delivers essentially everything offered,
	// with low delay compared to saturation.
	cfg := quickScenario(core.ORTSOCTS, 3, 0)
	cfg.Duration = sim.Duration(des.Second)
	cfg.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 50_000} // ≈ 4.3 pkts/s/node vs ~139 pkt/s link capacity
	res, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	thr := res.MeanThroughputBps()
	if thr < 30_000 || thr > 60_000 {
		t.Errorf("light-load delivered %.0f b/s, want ≈ offered 50k", thr)
	}
	if d := res.MeanDelaySec(); d > 0.05 {
		t.Errorf("light-load delay = %v s, want well under saturation levels", d)
	}
}

func TestOfferedLoadSaturates(t *testing.T) {
	// Far beyond capacity, offered load stops mattering: delivered
	// throughput approaches the saturated value.
	mean := func(load float64) float64 {
		var sum float64
		const runs = 5
		for seed := int64(0); seed < runs; seed++ {
			cfg := quickScenario(core.ORTSOCTS, 3, 0)
			cfg.Duration = sim.Duration(des.Second)
			cfg.Seed = 100 + seed
			if load > 0 {
				cfg.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: load}
			}
			res, err := sim.RunScenario(cfg, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.MeanThroughputBps()
		}
		return sum / runs
	}
	satThr := mean(0)    // saturated sources
	overThr := mean(5e6) // CBR far beyond capacity
	ratio := overThr / satThr
	if ratio < 0.6 || ratio > 1.4 {
		t.Errorf("overloaded CBR (%v b/s) vs saturated (%v b/s): ratio %v, want ≈ 1",
			overThr, satThr, ratio)
	}
}

func TestBasicAccessConfig(t *testing.T) {
	cfg := quickScenario(core.ORTSOCTS, 3, 0)
	cfg.Ablations.BasicAccess = true
	res, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every node still moves data, and nobody sent an RTS.
	if res.MeanThroughputBps() <= 0 {
		t.Error("basic access made no progress")
	}
	for i, st := range res.NodeStats {
		if st.RTSSent != 0 || st.CTSSent != 0 {
			t.Fatalf("node %d exchanged control frames under basic access", i)
		}
	}
}

func TestLoadSweep(t *testing.T) {
	base := quickScenario(core.ORTSOCTS, 3, 0)
	base.Duration = sim.Duration(400 * des.Millisecond)
	cells, err := LoadSweep(sim.Runner{}, base, []core.Scheme{core.ORTSOCTS}, []float64{50_000, 200_000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	var sb strings.Builder
	if err := WriteLoadSweep(&sb, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "offered Kb/s") {
		t.Errorf("load sweep output: %q", sb.String())
	}
	if _, err := LoadSweep(sim.Runner{}, base, core.Schemes(), nil, 1); err == nil {
		t.Error("empty loads should be rejected")
	}
	if _, err := LoadSweep(sim.Runner{}, base, core.Schemes(), []float64{-1}, 1); err == nil {
		t.Error("negative load should be rejected")
	}
	if err := WriteLoadSweep(&strings.Builder{}, nil); err == nil {
		t.Error("empty sweep should be rejected")
	}
	if len(PaperLoads()) < 4 {
		t.Error("default load sweep too small")
	}
}

// TestORTSDCTSSimulates: the extension scheme runs end-to-end and — as
// the extended analysis predicts — does not beat ORTS-OCTS.
func TestORTSDCTSSimulates(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(s core.Scheme) float64 {
		cfg := paperScenario(s, 5, 30, 70)
		b, err := RunBatch(sim.Runner{}, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return b.ThroughputBps.Mean
	}
	omni := run(core.ORTSOCTS)
	fourth := run(core.ORTSDCTS)
	if fourth > omni*1.15 {
		t.Errorf("ORTS-DCTS %.0f b/s should not meaningfully beat ORTS-OCTS %.0f b/s", fourth, omni)
	}
	if fourth <= 0 {
		t.Error("ORTS-DCTS made no progress")
	}
}

func TestMobilityRuns(t *testing.T) {
	cfg := quickScenario(core.DRTSDCTS, 3, 30)
	cfg.Mobility = waypoint(0.2, 500*des.Millisecond)
	res, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanThroughputBps() <= 0 {
		t.Error("mobile network made no progress")
	}
}

// TestMobilityHurtsNarrowBeams: a fast walk with stale (1 s old)
// bearings must cost the 30°-beam DRTS-DCTS scheme throughput relative
// to the static case, while ORTS-OCTS (no aiming) loses much less.
func TestMobilityHurtsNarrowBeams(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(s core.Scheme, speed float64) float64 {
		cfg := paperScenario(s, 5, 30, 80)
		cfg.Mobility = waypoint(speed, des.Second)
		b, err := RunBatch(sim.Runner{}, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return b.ThroughputBps.Mean
	}
	ddStatic := run(core.DRTSDCTS, 0)
	ddFast := run(core.DRTSDCTS, 1.0)
	if ddFast >= ddStatic {
		t.Errorf("fast mobility should hurt narrow-beam DRTS-DCTS: static %.0f, fast %.0f", ddStatic, ddFast)
	}
	ddLoss := 1 - ddFast/ddStatic
	omniStatic := run(core.ORTSOCTS, 0)
	omniFast := run(core.ORTSOCTS, 1.0)
	omniLoss := 1 - omniFast/omniStatic
	if ddLoss <= omniLoss {
		t.Errorf("narrow beams should be more speed-sensitive: DD loss %.2f, omni loss %.2f", ddLoss, omniLoss)
	}
}

func TestMobilitySweep(t *testing.T) {
	base := quickScenario(core.DRTSDCTS, 3, 30)
	base.Duration = sim.Duration(300 * des.Millisecond)
	cells, err := MobilitySweep(sim.Runner{}, base, []core.Scheme{core.DRTSDCTS}, []float64{0, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	var sb strings.Builder
	if err := WriteMobilitySweep(&sb, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speed R/s") {
		t.Errorf("mobility output: %q", sb.String())
	}
	if _, err := MobilitySweep(sim.Runner{}, base, core.Schemes(), nil, 1); err == nil {
		t.Error("empty speeds should be rejected")
	}
	if _, err := MobilitySweep(sim.Runner{}, base, core.Schemes(), []float64{-1}, 1); err == nil {
		t.Error("negative speed should be rejected")
	}
	if err := WriteMobilitySweep(&strings.Builder{}, nil); err == nil {
		t.Error("empty sweep should be rejected")
	}
	if len(PaperSpeeds()) < 4 {
		t.Error("default speed sweep too small")
	}
}

func TestSampleDelays(t *testing.T) {
	cfg := quickScenario(core.ORTSOCTS, 3, 0)
	cfg.Duration = sim.Duration(des.Second)
	cfg.SampleDelays = true
	res, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DelaySamplesSec) == 0 {
		t.Fatal("no delay samples collected")
	}
	p50 := res.DelayPercentileSec(50)
	p99 := res.DelayPercentileSec(99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("percentiles disordered: p50=%v p99=%v", p50, p99)
	}
	// The median of sampled delays must bracket the per-node mean delay.
	mean := res.MeanDelaySec()
	if p50 > mean*10 || p99 < mean/10 {
		t.Errorf("samples inconsistent with mean %v: p50=%v p99=%v", mean, p50, p99)
	}
	// Without the flag no samples appear.
	cfg.SampleDelays = false
	res2, err := sim.RunScenario(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.DelaySamplesSec) != 0 {
		t.Error("delay samples collected without the flag")
	}
	if res2.DelayPercentileSec(50) != 0 {
		t.Error("percentile without samples should be 0")
	}
}

// TestFig5Sensitivity probes the paper's claim that "similar results can
// be readily obtained for other configurations". The reproduction finds
// the claim holds with a caveat: a directional-RTS scheme is always best
// at narrow beamwidths, but WHICH one flips with the data length — short
// data packets (the paper's l_data=100 regime and below) favor the
// all-directional DRTS-DCTS, while long data packets (l_data >= 200)
// favor DRTS-OCTS, whose omni CTS protects the now-dominant data frame.
func TestFig5Sensitivity(t *testing.T) {
	series, err := Fig5Sensitivity(5, []int{50, 100, 200, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4", len(series))
	}
	for ld, rows := range series {
		narrow := rows[0] // 15°
		best := narrow.DRTSDCTS
		if narrow.DRTSOCTS > best {
			best = narrow.DRTSOCTS
		}
		if best <= narrow.ORTSOCTS {
			t.Errorf("l_data=%d: no directional scheme beats omni at 15° (DD=%v DO=%v ORTS=%v)",
				ld, narrow.DRTSDCTS, narrow.DRTSOCTS, narrow.ORTSOCTS)
		}
	}
	// Short data: the paper's regime, DRTS-DCTS on top.
	for _, ld := range []int{50, 100} {
		narrow := series[ld][0]
		if !(narrow.DRTSDCTS > narrow.DRTSOCTS) {
			t.Errorf("l_data=%d: DRTS-DCTS (%v) should lead DRTS-OCTS (%v) at 15°",
				ld, narrow.DRTSDCTS, narrow.DRTSOCTS)
		}
	}
	// Long data: the crossover — protecting the data frame wins.
	for _, ld := range []int{200, 400} {
		narrow := series[ld][0]
		if !(narrow.DRTSOCTS > narrow.DRTSDCTS) {
			t.Errorf("l_data=%d: DRTS-OCTS (%v) should overtake DRTS-DCTS (%v) at 15°",
				ld, narrow.DRTSOCTS, narrow.DRTSDCTS)
		}
	}
	if _, err := Fig5Sensitivity(5, nil); err == nil {
		t.Error("empty lengths should be rejected")
	}
	if _, err := Fig5Sensitivity(5, []int{0}); err == nil {
		t.Error("zero data length should be rejected")
	}
}

// TestSINRPreservesSchemeOrdering: the paper's headline comparison at
// N=8, 30° must survive the switch to the physical receiver model — the
// conclusion is not an artifact of pessimistic overlap collisions.
func TestSINRPreservesSchemeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(s core.Scheme) float64 {
		cfg := paperScenario(s, 8, 30, 90)
		cfg.PHY.SINR = true
		b, err := RunBatch(sim.Runner{}, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		return b.ThroughputBps.Mean
	}
	dd := run(core.DRTSDCTS)
	omni := run(core.ORTSOCTS)
	if dd <= omni {
		t.Errorf("SINR model: DRTS-DCTS %.0f should still beat ORTS-OCTS %.0f b/s", dd, omni)
	}
}

type memFile struct {
	strings.Builder
	closed bool
}

func (m *memFile) Close() error { m.closed = true; return nil }

func TestFigureCharts(t *testing.T) {
	rows, err := Fig5([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	chart, err := Fig5Chart(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Series) != 3 {
		t.Errorf("fig5 chart series = %d, want 3", len(chart.Series))
	}
	if _, err := Fig5Chart(rows, 99); err == nil {
		t.Error("unknown N should fail")
	}

	base := quickScenario(core.ORTSOCTS, 0, 0)
	base.Duration = sim.Duration(200 * des.Millisecond)
	cells, err := Grid(sim.Runner{}, base, core.Schemes(), []int{3}, []float64{30, 150}, 2)
	if err != nil {
		t.Fatal(err)
	}
	gchart, err := GridChart(cells, 3, MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if len(gchart.Series) != 3 {
		t.Errorf("grid chart series = %d, want 3", len(gchart.Series))
	}
	for _, s := range gchart.Series {
		if len(s.X) != 2 || s.YLow == nil {
			t.Errorf("series %q: x=%d err-bars=%v", s.Name, len(s.X), s.YLow != nil)
		}
	}
	if _, err := GridChart(cells, 42, MetricDelay); err == nil {
		t.Error("unknown N should fail")
	}

	// End-to-end SVG emission through the creator hook.
	files := map[string]*memFile{}
	create := func(name string) (io.WriteCloser, error) {
		f := &memFile{}
		files[name] = f
		return f, nil
	}
	if err := WriteFigureSVGs(create, rows, cells); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig5_n3.svg", "fig6_n3.svg", "fig7_n3.svg"} {
		f, ok := files[want]
		if !ok {
			t.Errorf("missing artifact %s (have %v)", want, keys(files))
			continue
		}
		if !f.closed {
			t.Errorf("%s not closed", want)
		}
		if !strings.Contains(f.String(), "<svg") {
			t.Errorf("%s is not SVG", want)
		}
	}
}

func keys(m map[string]*memFile) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSpatialReuseFactor quantifies the paper's central mechanism
// directly: at N=8 with 30° beams, the all-directional scheme sustains
// strictly more simultaneous on-air time than omni-directional 802.11.
func TestSpatialReuseFactor(t *testing.T) {
	run := func(s core.Scheme) *sim.Result {
		cfg := paperScenario(s, 8, 30, 44)
		res, err := sim.RunScenario(cfg, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dd := run(core.DRTSDCTS)
	omni := run(core.ORTSOCTS)
	if dd.SpatialReuse <= omni.SpatialReuse {
		t.Errorf("spatial reuse: DRTS-DCTS %.2f should exceed ORTS-OCTS %.2f",
			dd.SpatialReuse, omni.SpatialReuse)
	}
	if dd.SpatialReuse <= 1 {
		t.Errorf("directional N=8 network should sustain concurrency > 1, got %.2f", dd.SpatialReuse)
	}
	// Airtime decomposition sanity: shares sum to 1, data dominates.
	var sum float64
	for _, v := range dd.AirtimeShare {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("airtime shares sum to %v", sum)
	}
	if dd.AirtimeShare["DATA"] < 0.5 {
		t.Errorf("data should dominate airtime, got %v", dd.AirtimeShare)
	}
}

func TestSimLengths(t *testing.T) {
	l := SimLengths()
	// 272 µs / 20 µs = 13.6 → 14; 248/20 = 12.4 → 12; 6032/20 = 301.6 → 302.
	if l.RTS != 14 || l.CTS != 12 || l.ACK != 12 || l.Data != 302 {
		t.Errorf("SimLengths = %+v, want 14/12/302/12", l)
	}
}

func TestSpearmanRank(t *testing.T) {
	perfect := []ModelVsSimRow{
		{Analytical: 1, Simulated: 10},
		{Analytical: 2, Simulated: 20},
		{Analytical: 3, Simulated: 30},
	}
	if got := SpearmanRank(perfect); got != 1 {
		t.Errorf("perfect agreement rank = %v, want 1", got)
	}
	inverted := []ModelVsSimRow{
		{Analytical: 1, Simulated: 30},
		{Analytical: 2, Simulated: 20},
		{Analytical: 3, Simulated: 10},
	}
	if got := SpearmanRank(inverted); got != -1 {
		t.Errorf("inverted rank = %v, want -1", got)
	}
	if got := SpearmanRank(nil); got != 1 {
		t.Errorf("degenerate rank = %v, want 1", got)
	}
}

// TestModelVsSimAgreement is the quantified version of the paper's
// Section 4 conclusion: on the clearest slice of the grid (N=8), the
// analytical model's ranking of (scheme, beamwidth) cells must agree
// positively with the simulator's.
func TestModelVsSimAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := sim.Scenario{Seed: 30, Duration: sim.Duration(des.Second)}
	cells, err := Grid(sim.Runner{}, base, core.Schemes(), []int{8}, []float64{30, 150}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ModelVsSim(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	if rho := SpearmanRank(rows); rho <= 0.3 {
		t.Errorf("model-sim rank correlation = %.3f, want clearly positive", rho)
	}
	var sb strings.Builder
	if err := WriteModelVsSim(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Spearman") {
		t.Error("report missing correlation line")
	}
	if err := WriteModelVsSim(&strings.Builder{}, nil); err == nil {
		t.Error("empty table should fail")
	}
}

// TestReuseStudyRunsOmniOnce: a study over three beamwidths simulates
// ORTS-OCTS once, so one topology per cell through a fresh cache misses
// 7 times, not 9, and the three ORTS-OCTS rows are equal.
func TestReuseStudyRunsOmniOnce(t *testing.T) {
	store, err := cache.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	base := quickScenario(core.ORTSOCTS, 0, 0)
	base.Duration = sim.Duration(50 * des.Millisecond)
	schemes := []core.Scheme{core.ORTSOCTS, core.DRTSDCTS, core.DRTSOCTS}
	cells, err := ReuseStudy(sim.Runner{Options: sim.Options{Cache: store}}, base, schemes, 3, []float64{30, 90, 150}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(cells))
	}
	if st := store.Stats(); st.Misses != 7 || st.Hits != 0 {
		t.Errorf("cache: %d misses, %d hits; want 7 misses (ORTS-OCTS once, two directional schemes at three beamwidths), 0 hits", st.Misses, st.Hits)
	}
	var omni []ReuseCell
	for _, c := range cells {
		if c.Scheme == core.ORTSOCTS {
			omni = append(omni, c)
		}
	}
	if len(omni) != 3 {
		t.Fatalf("ORTS-OCTS rows = %d, want 3", len(omni))
	}
	for _, c := range omni[1:] {
		if c.Reuse != omni[0].Reuse || c.DataShare != omni[0].DataShare {
			t.Errorf("ORTS-OCTS at %v° = %+v, at %v° = %+v", c.BeamwidthDeg, c, omni[0].BeamwidthDeg, omni[0])
		}
	}
}

func TestReuseStudy(t *testing.T) {
	base := quickScenario(core.ORTSOCTS, 0, 0)
	base.Duration = sim.Duration(300 * des.Millisecond)
	cells, err := ReuseStudy(sim.Runner{}, base, []core.Scheme{core.ORTSOCTS, core.DRTSDCTS}, 5, []float64{30}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	var omni, dd ReuseCell
	for _, c := range cells {
		switch c.Scheme {
		case core.ORTSOCTS:
			omni = c
		case core.DRTSDCTS:
			dd = c
		}
		if c.Reuse.Mean <= 0 {
			t.Errorf("%v: reuse factor %v", c.Scheme, c.Reuse.Mean)
		}
		if c.DataShare.Mean <= 0 || c.DataShare.Mean >= 1 {
			t.Errorf("%v: data share %v", c.Scheme, c.DataShare.Mean)
		}
	}
	if dd.Reuse.Mean <= omni.Reuse.Mean {
		t.Errorf("DRTS-DCTS reuse %v should exceed omni %v", dd.Reuse.Mean, omni.Reuse.Mean)
	}
	var sb strings.Builder
	if err := WriteReuseStudy(&sb, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "reuse factor") {
		t.Error("report header missing")
	}
	if _, err := ReuseStudy(sim.Runner{}, base, core.Schemes(), 5, []float64{30}, 0); err == nil {
		t.Error("zero topologies should fail")
	}
	if err := WriteReuseStudy(&strings.Builder{}, nil); err == nil {
		t.Error("empty study should fail")
	}
}

func TestDelayCDF(t *testing.T) {
	base := quickScenario(core.ORTSOCTS, 3, 0)
	base.Duration = sim.Duration(des.Second)
	schemes := []core.Scheme{core.ORTSOCTS, core.DRTSDCTS}
	base.BeamwidthDeg = 90
	rows, err := DelayCDF(sim.Runner{}, base, schemes, []float64{50, 95, 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, s := range schemes {
		p50 := rows[0].DelayMsByScheme[s.String()]
		p99 := rows[2].DelayMsByScheme[s.String()]
		if p50 <= 0 || p99 < p50 {
			t.Errorf("%v: p50=%v p99=%v", s, p50, p99)
		}
	}
	var sb strings.Builder
	if err := WriteDelayCDF(&sb, rows, schemes); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "percentile") {
		t.Error("CDF header missing")
	}
	if _, err := DelayCDF(sim.Runner{}, base, schemes, nil); err == nil {
		t.Error("empty percentiles should fail")
	}
	if err := WriteDelayCDF(&strings.Builder{}, nil, schemes); err == nil {
		t.Error("empty CDF should fail")
	}
}

// TestAdaptiveRTSHelpsUnderMobility: with fast motion and coarse (1 s)
// refreshes, the adaptive omni-fallback + piggybacked locations recover
// part of what stale bearings cost the all-directional scheme.
func TestAdaptiveRTSHelpsUnderMobility(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(adaptive des.Time) float64 {
		cfg := paperScenario(core.DRTSDCTS, 5, 30, 80)
		cfg.Mobility = waypoint(1.0, des.Second)
		cfg.Ablations.AdaptiveRTS = sim.Duration(adaptive)
		b, err := RunBatch(sim.Runner{}, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return b.ThroughputBps.Mean
	}
	plain := run(0)
	adaptive := run(200 * des.Millisecond)
	if adaptive <= plain {
		t.Errorf("adaptive RTS under mobility: %.0f b/s should beat plain %.0f b/s", adaptive, plain)
	}
}

func TestJSONWriters(t *testing.T) {
	rows, err := Fig5([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteFig5JSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]float64
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("fig5 JSON invalid: %v", err)
	}
	if len(decoded) != 12 || decoded[0]["thetaDeg"] != 15 {
		t.Errorf("fig5 JSON content: %v", decoded[0])
	}

	base := quickScenario(core.ORTSOCTS, 0, 0)
	base.Duration = sim.Duration(200 * des.Millisecond)
	cells, err := Grid(sim.Runner{}, base, []core.Scheme{core.ORTSOCTS}, []int{3}, []float64{30}, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteGridJSON(&buf, cells); err != nil {
		t.Fatal(err)
	}
	var grid []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &grid); err != nil {
		t.Fatalf("grid JSON invalid: %v", err)
	}
	if len(grid) != 1 || grid[0]["scheme"] != "ORTS-OCTS" {
		t.Errorf("grid JSON content: %v", grid)
	}
	if _, ok := grid[0]["throughputBps"].(map[string]any); !ok {
		t.Error("grid JSON missing throughput summary")
	}
	if err := WriteGridJSON(&strings.Builder{}, nil); err == nil {
		t.Error("empty grid JSON should fail")
	}

	mvs := []ModelVsSimRow{{Scheme: core.DRTSDCTS, N: 8, BeamwidthDeg: 30, Analytical: 0.3, Simulated: 0.2}}
	buf.Reset()
	if err := WriteModelVsSimJSON(&buf, mvs); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("model-vs-sim JSON invalid: %v", err)
	}
	if _, ok := doc["spearmanRank"]; !ok {
		t.Error("model-vs-sim JSON missing correlation")
	}
	if err := WriteModelVsSimJSON(&strings.Builder{}, nil); err == nil {
		t.Error("empty model-vs-sim JSON should fail")
	}
}

// TestBatchParallelDeterminism: RunBatch fans out across goroutines, but
// every per-topology simulation owns its scheduler and seed, so repeated
// batches must be bit-identical regardless of goroutine interleaving.
func TestBatchParallelDeterminism(t *testing.T) {
	cfg := quickScenario(core.DRTSOCTS, 3, 90)
	cfg.Duration = sim.Duration(300 * des.Millisecond)
	a, err := RunBatch(sim.Runner{}, cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBatch(sim.Runner{}, cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("parallel batches differ:\n%+v\n%+v", a, b)
	}
}
