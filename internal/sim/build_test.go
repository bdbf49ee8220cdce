package sim

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/trace"
)

// TestRunScenarioDeterministic is the package-local determinism check:
// building and running the same scenario twice must agree on every field,
// including the float bit patterns (reflect.DeepEqual compares exactly).
func TestRunScenarioDeterministic(t *testing.T) {
	sc := quickScenario()
	sc.SampleDelays = true
	a, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical scenarios produced different results")
	}
	if len(a.ThroughputBps) != sc.Topology.N {
		t.Errorf("got %d inner-node throughputs, want %d", len(a.ThroughputBps), sc.Topology.N)
	}
	if a.MeanThroughputBps() <= 0 {
		t.Error("saturated scenario moved no traffic")
	}
}

// TestSampleDelaysLeavesRunUnchanged: sampling delays only observes the
// run. With 100-byte packets, 8 s of DRTS-DCTS at N=8, θ=30° offers the
// reservoir over 5 000 deliveries, more than its 4 096 slots, so every
// later delivery draws a replacement index; those draws must not come
// from the protocol stream.
func TestSampleDelaysLeavesRunUnchanged(t *testing.T) {
	sc := Scenario{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 30, Seed: 3, Duration: Duration(8 * des.Second),
		Topology: TopologySpec{N: 8}, Traffic: TrafficSpec{PacketBytes: 100},
	}
	plain, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc.SampleDelays = true
	sampled, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var offered int64
	for _, st := range sampled.NodeStats[:sc.Topology.N] {
		offered += st.DelayCount
	}
	if offered <= 4096 || len(sampled.DelaySamplesSec) != 4096 {
		t.Fatalf("%d deliveries, %d samples: the reservoir never overflowed", offered, len(sampled.DelaySamplesSec))
	}
	sampled.DelaySamplesSec = nil
	if !reflect.DeepEqual(sampled, plain) {
		t.Errorf("sampling delays changed the run: mean throughput %v b/s, %v b/s without sampling",
			sampled.MeanThroughputBps(), plain.MeanThroughputBps())
	}
}

func TestBuildRecorderFromScenario(t *testing.T) {
	sc := quickScenario()
	sc.Trace = TraceSpec{Kind: "recorder", Capacity: 256}
	s, err := Build(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder == nil {
		t.Fatal("scenario asked for a recorder but Sim.Recorder is nil")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Recorder.Events()) == 0 {
		t.Error("recorder captured no protocol events")
	}
}

func TestBuildTracerOptionOverridesScenario(t *testing.T) {
	sc := quickScenario()
	sc.Trace = TraceSpec{Kind: "recorder"}
	rec := trace.NewRecorder(64)
	s, err := Build(sc, Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder != nil {
		t.Error("Options.Tracer should suppress the scenario's recorder")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Error("override tracer saw no events")
	}
}

func TestBuildCBRScenario(t *testing.T) {
	sc := quickScenario()
	sc.Traffic = TrafficSpec{Kind: "cbr", OfferedLoadBps: 500e3}
	sc.Duration = Duration(200 * 1e6)
	res, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanThroughputBps() <= 0 {
		t.Error("cbr scenario moved no traffic")
	}
}

func TestBuildMobilityScenario(t *testing.T) {
	sc := quickScenario()
	sc.Mobility = MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: Duration(100 * des.Millisecond)}
	a, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("mobility scenario is not deterministic")
	}
}

// TestWaypointWalksTheScenarioField: waypoint mobility keeps the nodes
// of a wider field on that field, the Rings·R disk, instead of herding
// them into the paper's 3R disk.
func TestWaypointWalksTheScenarioField(t *testing.T) {
	sc := Scenario{
		Scheme:   "orts-octs",
		Seed:     3,
		Duration: Duration(120 * des.Second),
		Topology: TopologySpec{Kind: "uniform", N: 4, Rings: 8},
		Traffic:  TrafficSpec{Kind: "none"},
		Mobility: MobilitySpec{Kind: "waypoint", MaxSpeed: 2},
	}
	s, err := Build(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	beyond3R := 0
	for i := range s.Nodes {
		d := s.Channel.Radio(phy.NodeID(i)).Pos().Dist(geom.Point{})
		if d > 8+1e-9 {
			t.Fatalf("node %d walked off the 8R field to %v", i, d)
		}
		if d > 3 {
			beyond3R++
		}
	}
	if beyond3R == 0 {
		t.Errorf("after %v of walking, all %d nodes are inside 3R", sc.Duration, len(s.Nodes))
	}
}

func TestBuildNoneTrafficIsSilent(t *testing.T) {
	sc := quickScenario()
	sc.Traffic = TrafficSpec{Kind: "none"}
	res, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanThroughputBps(); got != 0 {
		t.Errorf("silent network carried %v bps", got)
	}
	for i, st := range res.NodeStats {
		if st.DataSent > 0 {
			t.Errorf("node %d transmitted %d data frames with no sources", i, st.DataSent)
		}
	}
}

// TestExplicitPlacementMatchesGenerated: the placement a rings scenario
// draws, written back as topology.kind "explicit" with the same n and
// radius, runs to the same result bytes as the generated run. The
// topology and the protocol draw from separate random streams, so
// supplying the placement leaves every protocol draw in place.
func TestExplicitPlacementMatchesGenerated(t *testing.T) {
	sc := quickScenario()
	topo, err := GenerateTopology(rand.New(rand.NewSource(sc.Seed)), sc)
	if err != nil {
		t.Fatal(err)
	}
	explicit := sc
	explicit.Topology = TopologySpec{Kind: "explicit", N: sc.Topology.N, Radius: topo.Radius, Positions: topo.Positions}
	var enc [2][]byte
	for i, spec := range []Scenario{sc, explicit} {
		res, err := RunScenario(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.NodeStats) != len(topo.Positions) {
			t.Errorf("stats for %d nodes, topology has %d", len(res.NodeStats), len(topo.Positions))
		}
		if enc[i], err = EncodeResult(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Error("the generated placement written as an explicit topology ran to different bytes")
	}
}

// flowsScenario is a saturated explicit-topology run over flows.
func flowsScenario(scheme string, seed int64, positions []geom.Point, flows ...Flow) Scenario {
	return Scenario{
		Scheme: scheme, BeamwidthDeg: 45, Seed: seed,
		Duration: Duration(2 * des.Second),
		Topology: TopologySpec{Kind: "explicit", N: len(positions), Positions: positions},
		Traffic:  TrafficSpec{Kind: "flows", Flows: flows},
	}
}

// TestFlowsTwoNodeLink: one flow over a clean 0.5 R link carries about
// the link's saturated goodput with no failures, and its destination,
// which sources no flow, only responds.
func TestFlowsTwoNodeLink(t *testing.T) {
	for _, scheme := range []string{"ORTS-OCTS", "DRTS-DCTS"} {
		sc := flowsScenario(scheme, 3, []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}, Flow{Src: 0, Dst: 1})
		res, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if thr := res.ThroughputBps[0]; thr < 1.4e6 || thr > 1.9e6 {
			t.Errorf("%s: clean link goodput = %.3g b/s, want ≈ 1.62 Mb/s", scheme, thr)
		}
		if st := res.NodeStats[0]; st.Drops != 0 || st.CTSTimeouts != 0 {
			t.Errorf("%s: clean link had failures: %+v", scheme, st)
		}
		if st := res.NodeStats[1]; st.RTSSent != 0 || st.CTSSent == 0 {
			t.Errorf("%s: flow-less node sent %d RTS and %d CTS; want none and some", scheme, st.RTSSent, st.CTSSent)
		}
	}
}

// TestFlowsSourceOnlyTheirDestinations: a node sources saturated
// traffic to its flow destinations only. The middle of a three-node
// chain has both ends in range, but its one flow names the right end.
func TestFlowsSourceOnlyTheirDestinations(t *testing.T) {
	chain := []geom.Point{{X: -0.5}, {X: 0}, {X: 0.5}}
	res, err := RunScenario(flowsScenario("ORTS-OCTS", 5, chain, Flow{Src: 1, Dst: 2}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.NodeStats[0]; got.CTSSent != 0 || got.RTSSent != 0 {
		t.Errorf("left end is in no flow, yet sent %d RTS and %d CTS", got.RTSSent, got.CTSSent)
	}
	if res.NodeStats[1].Successes == 0 || res.NodeStats[2].CTSSent == 0 {
		t.Errorf("flow 1→2 made no progress: %+v / %+v", res.NodeStats[1], res.NodeStats[2])
	}
}

// TestBuildAllocBudget pins how many heap allocations Build makes for
// two committed scenarios, with their saturated traffic and with CBR, so
// a change that brings back a per-node (or per-cell) allocation fails
// here, not only in a benchmark, and how many bytes it allocates for the
// 10 240-node field, so a change that stores the neighbor relation again
// per table or per source fails too: every node's sources, tables and
// MAC come from shared backings, and the relation is stored once, in
// the PHY's in-range lists. The counts are
// the ones go1.24 makes, with or without -race; map internals differ
// between Go releases, so another release may need them measured again.
// The bytes budget is go1.24's 12.35 MB plus 5%.
func TestBuildAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		file   string
		cbr    bool // paced CBR sources instead of the file's saturated ones
		budget float64
		bytes  uint64 // 0: not pinned
	}{
		{"scale/uniform-10k.json", false, 61, 13_000_000},
		{"paper-drts-dcts.json", false, 30, 0},
		// CBR sources come from one backing too and wake their node
		// through an interface, so they cost what saturated ones do plus
		// the list of sources Run starts.
		{"scale/uniform-10k.json", true, 61 + 1, 0},
		{"paper-drts-dcts.json", true, 30 + 1, 0},
	} {
		sc, err := LoadScenario(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		name := tc.file
		if tc.cbr {
			sc.Traffic.Kind, sc.Traffic.OfferedLoadBps = "cbr", 100_000
			name += " (cbr)"
		}
		build := func() {
			if _, err := Build(sc, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(5, build); allocs > tc.budget {
			t.Errorf("%s: Build made %v allocations, budget %v", name, allocs, tc.budget)
		}
		if tc.bytes == 0 {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.bytes {
			t.Errorf("%s: Build allocated %d bytes, budget %d", name, got, tc.bytes)
		}
	}
}
