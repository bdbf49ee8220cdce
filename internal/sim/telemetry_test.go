package sim

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/phy"
	"repro/internal/telemetry"
)

// telemetryScenario loads the telemetry-enabled testdata scenario.
func telemetryScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := LoadScenario(filepath.Join("testdata", "telemetry-trajectory.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// resultJSON renders a Result canonically; byte equality is
// bit-equality of every float.
func resultJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTelemetryLeavesResultsIdentical is the determinism half of the
// telemetry contract: enabling sampling must not change the simulation
// in any bit — the probe reads state and consumes no randomness.
func TestTelemetryLeavesResultsIdentical(t *testing.T) {
	sc := telemetryScenario(t)
	plain := sc
	plain.Telemetry = TelemetrySpec{}
	want, err := RunScenario(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunScenario(sc, Options{Telemetry: telemetry.Discard{}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
		t.Error("enabling telemetry changed the simulation result")
	}
}

// TestTelemetryExportByteIdentical runs the same scenario twice and
// requires byte-identical JSONL exports.
func TestTelemetryExportByteIdentical(t *testing.T) {
	sc := telemetryScenario(t)
	run := func() []byte {
		var buf bytes.Buffer
		w := telemetry.NewWriter(&buf)
		if _, err := RunScenario(sc, Options{Telemetry: w}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(a, b) {
		t.Error("two runs of the same scenario produced different exports")
	}
}

// TestTelemetryFinalAggMatchesResult pins the bit-exactness contract:
// the last aggregate record reproduces the run's end-of-run metrics
// with zero tolerance.
func TestTelemetryFinalAggMatchesResult(t *testing.T) {
	sc := telemetryScenario(t)
	buf := telemetry.NewBuffer()
	res, err := RunScenario(sc, Options{Telemetry: buf})
	if err != nil {
		t.Fatal(err)
	}
	var last *telemetry.Record
	for i := range buf.Records() {
		if buf.Records()[i].Kind == telemetry.KindAgg {
			last = &buf.Records()[i]
		}
	}
	if last == nil {
		t.Fatal("no aggregate records in export")
	}
	if last.T != int64(sc.Duration) {
		t.Errorf("final agg at t=%d, want %d", last.T, int64(sc.Duration))
	}
	if last.CumThroughputBps != res.MeanThroughputBps() {
		t.Errorf("final agg cumThroughputBps = %v, result mean = %v", last.CumThroughputBps, res.MeanThroughputBps())
	}
	if last.CollisionRatio != res.MeanCollisionRatio() {
		t.Errorf("final agg collisionRatio = %v, result mean = %v", last.CollisionRatio, res.MeanCollisionRatio())
	}
	if last.Jain != res.Jain {
		t.Errorf("final agg jain = %v, result = %v", last.Jain, res.Jain)
	}
	// Per-node cumulative throughput must also match exactly.
	nodeCums := make(map[int]float64)
	for _, r := range buf.Records() {
		if r.Kind == telemetry.KindNode && r.T == int64(sc.Duration) {
			nodeCums[r.Node] = r.CumThroughputBps
		}
	}
	for i, tp := range res.ThroughputBps {
		if nodeCums[i] != tp {
			t.Errorf("node %d final cum throughput = %v, result = %v", i, nodeCums[i], tp)
		}
	}
}

// TestTelemetrySampleCount checks the trajectory shape: one node record
// per inner node per tick plus one aggregate per tick, interval-aligned.
func TestTelemetrySampleCount(t *testing.T) {
	sc := telemetryScenario(t)
	buf := telemetry.NewBuffer()
	s, err := Build(sc, Options{Telemetry: buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ticks := int64(sc.Duration) / int64(sc.Telemetry.Interval)
	var aggs, nodes int64
	for _, r := range buf.Records() {
		switch r.Kind {
		case telemetry.KindAgg:
			aggs++
		case telemetry.KindNode:
			nodes++
		}
	}
	if aggs != ticks {
		t.Errorf("got %d aggregate samples, want %d", aggs, ticks)
	}
	if want := ticks * int64(s.Topology.InnerCount()); nodes != want {
		t.Errorf("got %d node samples, want %d", nodes, want)
	}
	h := buf.Header()
	if h.IntervalNs != int64(sc.Telemetry.Interval) || h.DurationNs != int64(sc.Duration) {
		t.Errorf("header timing = %+v", h)
	}
	if len(h.Metrics) != len(TelemetryMetricNames()) {
		t.Errorf("header metrics = %v, want full catalog", h.Metrics)
	}
}

// TestTelemetryFinalSample pins where the series ends: a duration that
// is not a multiple of the interval gets one more sample at the end of
// the run, one that is gets none on top of its last tick, and the metric
// records carry the final sample's time.
func TestTelemetryFinalSample(t *testing.T) {
	ms := int64(des.Millisecond)
	for _, tc := range []struct {
		duration Duration
		want     []int64
	}{
		{Duration(35 * ms), []int64{10 * ms, 20 * ms, 30 * ms, 35 * ms}},
		{Duration(30 * ms), []int64{10 * ms, 20 * ms, 30 * ms}},
	} {
		sc := telemetryScenario(t)
		sc.Duration = tc.duration
		buf := telemetry.NewBuffer()
		if _, err := RunScenario(sc, Options{Telemetry: buf}); err != nil {
			t.Fatal(err)
		}
		var aggs []int64
		last := tc.want[len(tc.want)-1]
		for _, r := range buf.Records() {
			switch r.Kind {
			case telemetry.KindAgg:
				aggs = append(aggs, r.T)
			case telemetry.KindCounter, telemetry.KindHist:
				if r.T != last {
					t.Errorf("duration %v: metric %s at t=%d, want %d", tc.duration, r.Name, r.T, last)
				}
			}
		}
		if !reflect.DeepEqual(aggs, tc.want) {
			t.Errorf("duration %v: aggregate samples at %v, want %v", tc.duration, aggs, tc.want)
		}
	}
}

// TestTelemetryCountsExcludeBootstrap: the phy/* counters count from the
// start of measurement. A HELLO bootstrap puts its beacons on the air
// inside Build; the export leaves them out, and phy/rx-errors equals the
// garbled receptions the MAC nodes saw during the run.
func TestTelemetryCountsExcludeBootstrap(t *testing.T) {
	sc := telemetryScenario(t)
	sc.Ablations.HelloBootstrap = true
	buf := telemetry.NewBuffer()
	s, err := Build(sc, Options{Telemetry: buf})
	if err != nil {
		t.Fatal(err)
	}
	hellos := s.Channel.TxCount(phy.Hello)
	if hellos == 0 || s.Channel.TotalTxCount() != hellos {
		t.Fatalf("before Run: %d HELLOs of %d frames on the air, want only (and some) HELLOs",
			hellos, s.Channel.TotalTxCount())
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int64)
	for _, r := range buf.Records() {
		if r.Kind == telemetry.KindCounter {
			counts[r.Name] = r.Count
		}
	}
	if want := s.Channel.TotalTxCount() - hellos; counts[MetricTxFrames] != want {
		t.Errorf("phy/tx-frames = %d, want the %d frames sent after the bootstrap", counts[MetricTxFrames], want)
	}
	var frameErrors int64
	for _, st := range res.NodeStats {
		frameErrors += st.FrameErrors
	}
	if counts[MetricRxErrors] != frameErrors {
		t.Errorf("phy/rx-errors = %d, want Σ FrameErrors = %d", counts[MetricRxErrors], frameErrors)
	}
}

// TestTelemetryMetricsFilter restricts the catalog and checks that only
// the selected metrics are wired and exported.
func TestTelemetryMetricsFilter(t *testing.T) {
	sc := telemetryScenario(t)
	sc.Telemetry.Metrics = []string{MetricTxFrames, MetricCW}
	buf := telemetry.NewBuffer()
	if _, err := RunScenario(sc, Options{Telemetry: buf}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range buf.Records() {
		switch r.Kind {
		case telemetry.KindCounter, telemetry.KindHist:
			names = append(names, r.Name)
		}
	}
	// Catalog order, not filter order: mac/cw precedes phy/tx-frames.
	want := []string{MetricCW, MetricTxFrames}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("exported metrics = %v, want %v", names, want)
	}
	if got := buf.Header().Metrics; !reflect.DeepEqual(got, want) {
		t.Errorf("header metrics = %v, want %v", got, want)
	}
}

// TestTelemetryMaxNodesBounded pins the cardinality bound: with
// telemetry.maxNodes = k the export carries exactly k per-node series
// (a deterministic, seed-derived sample), the header reports the count,
// and the aggregate records stay bit-identical to the unbounded run
// because they are computed over every inner node regardless.
func TestTelemetryMaxNodesBounded(t *testing.T) {
	sc := telemetryScenario(t)
	const k = 3
	if inner := sc.Topology.N; inner <= k {
		t.Fatalf("test scenario too small: %d inner nodes", inner)
	}
	full := telemetry.NewBuffer()
	if _, err := RunScenario(sc, Options{Telemetry: full}); err != nil {
		t.Fatal(err)
	}
	sc.Telemetry.MaxNodes = k
	run := func() *telemetry.Buffer {
		buf := telemetry.NewBuffer()
		if _, err := RunScenario(sc, Options{Telemetry: buf}); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Records(), b.Records()) {
		t.Error("bounded exports differ between identical runs")
	}
	if got := a.Header().SampledNodes; got != k {
		t.Errorf("header sampledNodes = %d, want %d", got, k)
	}
	if full.Header().SampledNodes != 0 {
		t.Errorf("unbounded header sampledNodes = %d, want 0", full.Header().SampledNodes)
	}
	nodes := make(map[int]bool)
	var aggs []telemetry.Record
	for _, r := range a.Records() {
		switch r.Kind {
		case telemetry.KindNode:
			nodes[r.Node] = true
		case telemetry.KindAgg:
			aggs = append(aggs, r)
		}
	}
	if len(nodes) != k {
		t.Errorf("export carries %d node series, want %d", len(nodes), k)
	}
	// Every bounded node record must match the unbounded run's record for
	// the same (t, node), and the aggregates must match bit-for-bit.
	var fullAggs []telemetry.Record
	fullNode := make(map[[2]int64]telemetry.Record)
	for _, r := range full.Records() {
		switch r.Kind {
		case telemetry.KindNode:
			fullNode[[2]int64{r.T, int64(r.Node)}] = r
		case telemetry.KindAgg:
			fullAggs = append(fullAggs, r)
		}
	}
	if !reflect.DeepEqual(aggs, fullAggs) {
		t.Error("bounding per-node cardinality changed the aggregate records")
	}
	for _, r := range a.Records() {
		if r.Kind != telemetry.KindNode {
			continue
		}
		if want, ok := fullNode[[2]int64{r.T, int64(r.Node)}]; !ok || !reflect.DeepEqual(r, want) {
			t.Errorf("bounded node record %+v differs from unbounded run", r)
		}
	}
}

// TestTelemetryBypassesCache: a run with a telemetry sink must never be
// served from the result cache — the export is a side effect a cached
// Result cannot replay. Without a sink the telemetry section leaves the
// Result unchanged, so the same scenario is cached like any other.
func TestTelemetryBypassesCache(t *testing.T) {
	store, err := cache.NewStore(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	sc := telemetryScenario(t)
	want, err := RunScenario(sc, Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	// Two runs with a sink both stream records, though the cache holds
	// the scenario's result by now.
	for i := 0; i < 2; i++ {
		buf := telemetry.NewBuffer()
		if _, err := RunScenario(sc, Options{Cache: store, Telemetry: buf}); err != nil {
			t.Fatal(err)
		}
		if len(buf.Records()) == 0 {
			t.Fatalf("run %d produced no telemetry records (served from cache?)", i)
		}
	}
	got, err := RunScenario(sc, Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want the sink-less repeat to be the one hit", st)
	}
	if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
		t.Error("cached result differs from the fresh run")
	}
}

// TestRunnerTelemetryMerge: the sharded runner's merged export must be
// byte-equivalent to merging individually-run shard exports in shard
// order.
func TestRunnerTelemetryMerge(t *testing.T) {
	sc := telemetryScenario(t)
	const shards = 3

	got := telemetry.NewBuffer()
	runner := Runner{Workers: 2, Options: Options{Telemetry: got}}
	if _, err := runner.Run(sc, shards); err != nil {
		t.Fatal(err)
	}

	bufs := make([]*telemetry.Buffer, shards)
	for i := range bufs {
		bufs[i] = telemetry.NewBuffer()
		if _, err := RunScenario(Shard(sc, i), Options{Telemetry: bufs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := telemetry.Merge(bufs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Header(), want.Header()) {
		t.Errorf("merged header = %+v, want %+v", got.Header(), want.Header())
	}
	if !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Error("runner-merged records differ from shard-order manual merge")
	}
	if got.Header().Shards != shards {
		t.Errorf("merged header shards = %d, want %d", got.Header().Shards, shards)
	}
}
