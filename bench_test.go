package repro

// One benchmark per table/figure of the paper, plus the ablation benches
// called out in DESIGN.md and micro-benchmarks of the hot substrates.
//
// Figure/table benches run reduced-scale versions of the full
// reproduction (fewer topologies, shorter simulated time) so the suite
// stays minutes-fast; cmd/experiments regenerates the full-scale
// artifacts. Each bench reports domain-specific metrics (Kb/s, ms,
// ratios) via b.ReportMetric so a bench run doubles as a results table.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/numeric"
	"repro/internal/phy"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// benchSim is the reduced standard cell used by the figure benches.
func benchSim(scheme core.Scheme, n int, beamDeg float64) sim.Scenario {
	return sim.Scenario{
		Scheme:       scheme.String(),
		BeamwidthDeg: beamDeg,
		Seed:         1,
		Duration:     sim.Duration(500 * des.Millisecond),
		Topology:     sim.TopologySpec{N: n},
	}
}

// BenchmarkTable1 regenerates the protocol-parameter table (a pure
// formatting path; it exists so every paper artifact has a bench target).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTable1(io.Discard)
	}
}

// BenchmarkFig5 regenerates the analytical maximum-throughput-vs-
// beamwidth curves (all three schemes, N = 3, 5, 8).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5([]float64{3, 5, 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.Fig5Shape(rows); err != nil {
			b.Fatalf("published shape violated: %v", err)
		}
	}
}

// BenchmarkFig6 regenerates one reduced throughput-comparison cell per
// scheme (N=8, θ=30°, the paper's clearest separation).
func BenchmarkFig6(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(benchSim(s, 8, 30), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkFig7 regenerates one reduced delay-comparison cell per scheme.
func BenchmarkFig7(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(benchSim(s, 8, 30), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanDelaySec()
			}
			b.ReportMetric(last*1000, "ms-delay")
		})
	}
}

// BenchmarkCollisionRatio regenerates the Section 4 collision statistics
// (omitted from the paper for space): directional schemes trade a higher
// data-phase collision rate for spatial reuse.
func BenchmarkCollisionRatio(b *testing.B) {
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(benchSim(s, 8, 30), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanCollisionRatio()
			}
			b.ReportMetric(last, "collision-ratio")
		})
	}
}

// BenchmarkFairness regenerates the Section 4 fairness observations: BEB
// unfairness worsens with wider beams.
func BenchmarkFairness(b *testing.B) {
	for _, beam := range []float64{30, 150} {
		b.Run(map[float64]string{30: "narrow30", 150: "wide150"}[beam], func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunScenario(benchSim(core.DRTSDCTS, 5, beam), sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Jain
			}
			b.ReportMetric(last, "jain")
		})
	}
}

// BenchmarkLoadSweep regenerates one point of the offered-load study
// (extension experiment): delivered throughput under a 100 Kb/s per-node
// CBR load.
func BenchmarkLoadSweep(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		cfg := benchSim(core.DRTSDCTS, 5, 30)
		cfg.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 100_000}
		res, err := sim.RunScenario(cfg, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = res.MeanThroughputBps()
	}
	b.ReportMetric(last/1000, "Kbps/node")
}

// BenchmarkAblationBasicAccess quantifies what RTS/CTS buys in the
// paper's multihop setting by comparing against the no-handshake
// baseline.
func BenchmarkAblationBasicAccess(b *testing.B) {
	for _, basic := range []bool{false, true} {
		name := "rts-cts"
		if basic {
			name = "basic-access"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchSim(core.ORTSOCTS, 8, 0)
				cfg.Ablations.BasicAccess = basic
				res, err := sim.RunScenario(cfg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationCapture compares the paper's no-capture receiver with
// first-signal capture: the scheme comparison must not hinge on the
// collision model's pessimism.
func BenchmarkAblationCapture(b *testing.B) {
	for _, capture := range []bool{false, true} {
		name := "paper-nocapture"
		if capture {
			name = "capture"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchSim(core.DRTSDCTS, 8, 30)
				cfg.PHY.Capture = capture
				res, err := sim.RunScenario(cfg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationOracleNAV separates the reduced-waiting effect from
// pure spatial reuse: the oracle makes out-of-beam neighbors defer as if
// transmissions were omni-directional.
func BenchmarkAblationOracleNAV(b *testing.B) {
	for _, oracle := range []bool{false, true} {
		name := "paper-heardonly"
		if oracle {
			name = "oracle"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchSim(core.DRTSDCTS, 8, 30)
				cfg.PHY.NAVOracle = oracle
				res, err := sim.RunScenario(cfg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationEIFS measures the effect of extended-IFS deference
// after frame errors.
func BenchmarkAblationEIFS(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "eifs-on"
		if disable {
			name = "eifs-off"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchSim(core.ORTSOCTS, 8, 0)
				cfg.Ablations.DisableEIFS = disable
				res, err := sim.RunScenario(cfg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationTfail compares the analytical model's truncated-
// geometric failed-period length against the worst-case (full handshake)
// assumption.
func BenchmarkAblationTfail(b *testing.B) {
	pr := core.Params{N: 5, Beamwidth: math.Pi / 6, Lengths: core.PaperLengths()}
	b.Run("truncgeom", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			_, th, err := core.MaxThroughput(core.DRTSDCTS, pr, 0)
			if err != nil {
				b.Fatal(err)
			}
			last = th
		}
		b.ReportMetric(last, "max-throughput")
	})
	b.Run("worstcase", func(b *testing.B) {
		// Recompute throughput with T_fail pinned to a full handshake.
		tsucc := float64(pr.Lengths.Succeed())
		worst := func(p float64) float64 {
			st, err := core.Solve(core.DRTSDCTS, p, pr)
			if err != nil {
				return math.Inf(-1)
			}
			return st.Ps * float64(pr.Lengths.Data) / (st.Pw + st.Ps*tsucc + st.Pf*tsucc)
		}
		var last float64
		for i := 0; i < b.N; i++ {
			_, th, err := numeric.MaximizeHybrid(worst, 1e-6, 0.5, 64, 1e-9)
			if err != nil {
				b.Fatal(err)
			}
			last = th
		}
		b.ReportMetric(last, "max-throughput")
	})
}

// BenchmarkAblationOptimizer compares golden-section refinement against
// pure grid search for the max-throughput solve.
func BenchmarkAblationOptimizer(b *testing.B) {
	pr := core.Params{N: 5, Beamwidth: math.Pi / 6, Lengths: core.PaperLengths()}
	f := func(p float64) float64 {
		th, err := core.Throughput(core.DRTSDCTS, p, pr)
		if err != nil {
			return math.Inf(-1)
		}
		return th
	}
	b.Run("hybrid-golden", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := numeric.MaximizeHybrid(f, 1e-6, 0.5, 64, 1e-9); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid-4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := numeric.MaximizeGrid(f, 1e-6, 0.5, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScheduler measures raw event-kernel throughput.
func BenchmarkScheduler(b *testing.B) {
	s := des.New(1)
	var ev nopEvent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleEvent(des.Time(i%1000), &ev)
		if i%1024 == 1023 {
			s.RunAll()
		}
	}
	s.RunAll()
}

// nopEvent is a pointer-shaped event that does nothing.
type nopEvent struct{}

func (*nopEvent) Fire() {}

// BenchmarkSchedulerSpread measures the event kernel under the MAC's
// spread of delays, where BenchmarkScheduler schedules under 1 µs ahead
// and so never leaves the heap. A fixed population of agents, one timer
// each, is held at the paper grid's mean pending count (40) and the
// 10 240-node field's (9000). Each op fires the earliest timer, whose
// agent re-arms 1 µs, 50 µs, 20 µs × U[0,31], 7 ms or 60 ms ahead, and
// with probability 0.43 a random agent's pending timer is canceled and
// re-armed, as a busy edge resets a node's DIFS, backoff or NAV: about
// 30% of timers are canceled before they fire.
func BenchmarkSchedulerSpread(b *testing.B) {
	for _, bc := range []struct {
		name    string
		pending int
	}{{"pending40", 40}, {"pending9000", 9000}} {
		b.Run(bc.name, func(b *testing.B) {
			sp := newSpread(bc.pending)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.s.Step()
			}
		})
	}
}

// spreadDraws is the length of spread's pre-drawn delay and reset
// tables, so the timed loop draws no random numbers.
const spreadDraws = 1 << 16

// spread is BenchmarkSchedulerSpread's agent population.
type spread struct {
	s      *des.Scheduler
	agents []spreadAgent
	timers []des.Timer
	delays []des.Time // the MAC's delay mix, pre-drawn
	resets []int32    // agent to reset after a fire, or -1
	next   int
}

// spreadAgent is one agent's pointer-shaped Event.
type spreadAgent struct {
	sp *spread
	id int
}

func (a *spreadAgent) Fire() {
	sp := a.sp
	sp.arm(a.id)
	if j := sp.resets[sp.next&(spreadDraws-1)]; j >= 0 {
		sp.s.Cancel(sp.timers[j])
		sp.arm(int(j))
	}
}

func newSpread(pending int) *spread {
	rng := rand.New(rand.NewSource(1))
	mix := func() des.Time {
		switch rng.Intn(5) {
		case 0:
			return des.Microsecond
		case 1:
			return 50 * des.Microsecond
		case 2:
			return 20 * des.Microsecond * des.Time(rng.Intn(32))
		case 3:
			return 7 * des.Millisecond
		default:
			return 60 * des.Millisecond
		}
	}
	sp := &spread{
		s:      des.New(1),
		agents: make([]spreadAgent, pending),
		timers: make([]des.Timer, pending),
		delays: make([]des.Time, spreadDraws),
		resets: make([]int32, spreadDraws),
	}
	for i := range sp.delays {
		sp.delays[i] = mix()
		sp.resets[i] = -1
		if rng.Float64() < 0.43 {
			sp.resets[i] = int32(rng.Intn(pending))
		}
	}
	for i := range sp.agents {
		sp.agents[i] = spreadAgent{sp: sp, id: i}
		sp.arm(i)
	}
	return sp
}

// arm schedules agent i's next timer from the delay table.
func (sp *spread) arm(i int) {
	sp.timers[i] = sp.s.ScheduleEvent(sp.delays[sp.next&(spreadDraws-1)], &sp.agents[i])
	sp.next++
}

// channelRing builds a sender at the origin ringed by 32 radios at
// 0.9 R, the dense neighborhood of the channel benchmarks.
func channelRing(b *testing.B, p phy.Params) (*des.Scheduler, *phy.Radio) {
	sched := des.New(1)
	ch, err := phy.NewChannel(sched, p)
	if err != nil {
		b.Fatal(err)
	}
	handlers := make([]discard, 33)
	tx := ch.AddRadio(geom.Point{}, &handlers[0])
	for i := 1; i < 33; i++ {
		ch.AddRadio(geom.Polar(geom.Point{}, 0.9, float64(i)), &handlers[i])
	}
	return sched, tx
}

// benchTransmit times one transmission in mode m, run to completion.
func benchTransmit(b *testing.B, sched *des.Scheduler, tx *phy.Radio, m phy.Mode) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Transmit(phy.Frame{Type: phy.Data, Bytes: 1460}, m); err != nil {
			b.Fatal(err)
		}
		sched.RunAll()
	}
}

// BenchmarkChannelBroadcast measures one omni transmission delivered to a
// dense neighborhood.
func BenchmarkChannelBroadcast(b *testing.B) {
	sched, tx := channelRing(b, phy.DefaultParams())
	benchTransmit(b, sched, tx, phy.Omni)
}

// BenchmarkChannelDirectional measures one 30° transmission into the same
// neighborhood under the NAV oracle: the beam test runs for every
// neighbor, a few hear the frame, and the rest take the hint path.
func BenchmarkChannelDirectional(b *testing.B) {
	p := phy.DefaultParams()
	p.NAVOracle = true
	sched, tx := channelRing(b, p)
	benchTransmit(b, sched, tx, phy.Directed(0.575, math.Pi/6))
}

// BenchmarkAnalyticalThroughput measures one throughput evaluation (one
// Simpson integral per call).
func BenchmarkAnalyticalThroughput(b *testing.B) {
	pr := core.Params{N: 5, Beamwidth: math.Pi / 6, Lengths: core.PaperLengths()}
	for _, s := range core.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Throughput(s, 0.02, pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioCache measures the content-addressed result cache
// around one simulated half-second: "cold" pays the full run plus the
// store write (every iteration uses a fresh seed, so every lookup
// misses), "warm" replays one cached scenario and must be orders of
// magnitude cheaper.
func BenchmarkScenarioCache(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		store, err := cache.NewStore(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := benchSim(core.DRTSDCTS, 5, 90)
			cfg.Seed = int64(i + 1) // unique key per iteration: all misses
			if _, err := sim.RunScenario(cfg, sim.Options{Cache: store}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := cache.NewStore(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		cfg := benchSim(core.DRTSDCTS, 5, 90)
		opts := sim.Options{Cache: store}
		if _, err := sim.RunScenario(cfg, opts); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunScenario(cfg, opts); err != nil {
				b.Fatal(err)
			}
		}
		if st := store.Stats(); st.Misses != 1 {
			b.Fatalf("warm loop missed the cache (%+v)", st)
		}
	})
}

// BenchmarkCachePut measures storing a result the cache has not seen:
// each iteration Puts a fresh key with a 3 KB payload, about the size
// of a served paper cell's encoded Result, so every Put reaches the
// disk. Every 1 024 Puts the store is replaced, untimed, to bound the
// disk the loop fills.
func BenchmarkCachePut(b *testing.B) {
	const perStore = 1024
	payload := bytes.Repeat([]byte("0123456789abcdef"), 192)
	root := b.TempDir()
	var store *cache.Store
	for i := 0; i < b.N; i++ {
		if i%perStore == 0 {
			b.StopTimer()
			if store != nil {
				store.Close()
				os.RemoveAll(store.Dir())
			}
			var err error
			if store, err = cache.NewStore(filepath.Join(root, strconv.Itoa(i)), 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		var k cache.Key
		binary.BigEndian.PutUint64(k[:], uint64(i))
		if err := store.Put(k, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	store.Close()
}

// BenchmarkSimulationSecond measures the wall cost of one simulated
// second of the paper's N=5 network.
func BenchmarkSimulationSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSim(core.DRTSDCTS, 5, 90)
		cfg.Duration = sim.Duration(des.Second)
		if _, err := sim.RunScenario(cfg, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOff re-measures the standard simulated second with
// the telemetry subsystem compiled in but disabled — the MAC's
// histograms are nil and Observe returns at once. Disabled telemetry must cost nothing: read it against
// BenchmarkSimulationSecond (same ns/op envelope, no extra
// allocations).
func BenchmarkTelemetryOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSim(core.DRTSDCTS, 5, 90)
		cfg.Duration = sim.Duration(des.Second)
		if _, err := sim.RunScenario(cfg, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOn measures the same second with 10ms sampling and
// every catalog metric live, streaming into a discard sink — the full
// observability cost (histogram observations on the MAC hot paths plus
// the collector's per-tick record construction).
func BenchmarkTelemetryOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSim(core.DRTSDCTS, 5, 90)
		cfg.Duration = sim.Duration(des.Second)
		cfg.Telemetry.Interval = sim.Duration(10 * des.Millisecond)
		if _, err := sim.RunScenario(cfg, sim.Options{Telemetry: telemetry.Discard{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// sparsePairBench is the sparse idle scenario: a two-node explicit pair
// under waypoint mobility with second-stale bearings, so CTS timeouts
// ratchet the contention window to CWMax and most of the run is
// countdowns across dead air, each one kernel timer (DESIGN.md §12).
func sparsePairBench() sim.Scenario {
	return sim.Scenario{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 30, Seed: 1,
		Duration: sim.Duration(des.Second),
		Topology: sim.TopologySpec{Kind: "explicit", N: 2,
			Positions: []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}},
		Traffic:  sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 500_000},
		Mobility: sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: sim.Duration(des.Second)},
	}
}

// BenchmarkSimulationSecondSparse measures one simulated second of the
// sparse pair: the cost of long idle countdowns, where the dense
// BenchmarkSimulationSecond measures contention.
func BenchmarkSimulationSecondSparse(b *testing.B) {
	sc := sparsePairBench()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunScenario(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationSecondMobile measures a run shaped like perfbench's
// sparse-idle runs: 27 nodes in three rings, DRTS-DCTS at 30°, 200 kb/s
// CBR per node, waypoint mobility up to 2 R/s with neighbor tables
// refreshed every second. It is the hot-path bench that reaches bearing
// lookups that miss (an RTS toward a peer the last refresh dropped) and
// in-range lists rebuilt after moves. It runs two simulated seconds:
// the first refresh lands at 1 s, so a one-second run misses no lookup.
func BenchmarkSimulationSecondMobile(b *testing.B) {
	sc := benchSim(core.DRTSDCTS, 3, 30)
	sc.Duration = sim.Duration(2 * des.Second)
	sc.Traffic = sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 200_000}
	sc.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: sim.Duration(des.Second)}
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunScenario(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// scaleBench is the committed large-N scale scenario (DESIGN.md §15): a
// uniform field of Rings²·N = 10240 saturated nodes over a disk of
// radius 32R — two orders of magnitude past paper scale, sized so one
// iteration stays sub-second. The same shape (at the same node count)
// is committed as internal/sim/testdata/scale/uniform-10k.json for
// `make scale-smoke`.
func scaleBench() sim.Scenario {
	return sim.Scenario{
		Scheme: "DRTS-DCTS", BeamwidthDeg: 60, Seed: 7,
		Duration: sim.Duration(10 * des.Millisecond),
		Topology: sim.TopologySpec{Kind: "uniform", N: 10, Rings: 32},
	}
}

// BenchmarkBuildLargeN measures scenario assembly alone — topology draw,
// radios, neighbor tables, traffic sources, MAC instances — at 10⁴
// nodes. The headline column is allocs/op: Build is required to do O(N)
// work with O(1) allocations per node, and `make bench-compare` holds
// the line.
func BenchmarkBuildLargeN(b *testing.B) {
	sc := scaleBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Build(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildPaper measures Build alone for the paper's densest cell:
// the rings topology at N=8 (72 nodes), DRTS-DCTS at 30°. Every
// paper-grid shard and every executed served run pays this assembly
// before its first event, so it gates small-network Build cost the way
// BuildLargeN gates the large one.
func BenchmarkBuildPaper(b *testing.B) {
	sc := benchSim(core.DRTSDCTS, 8, 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Build(sc, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// mobilityChurn measures the spatial-index cost of mobility: each
// iteration teleports a small batch of radios (waypoint-style random
// repositioning), which moves each between grid cells, and then runs
// one neighbor query, which rebuilds that radio's in-range list. The
// cost is O(moved), not a reindex of every radio.
func mobilityChurn(b *testing.B) {
	const (
		n       = 10_000
		side    = 100  // radios per row
		spacing = 0.35 // fraction of Range between neighbors
		moved   = 16   // radios repositioned per iteration
	)
	sched := des.New(1)
	ch, err := phy.NewChannel(sched, phy.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	handlers := make([]discard, n)
	radios := make([]*phy.Radio, n)
	for i := range radios {
		pos := geom.Point{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
		radios[i] = ch.AddRadio(pos, &handlers[i])
	}
	ch.Neighbors(0) // build the first in-range lists outside the timer
	rng := rand.New(rand.NewSource(42))
	width := float64(side) * spacing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < moved; j++ {
			radios[rng.Intn(n)].SetPos(geom.Point{X: rng.Float64() * width, Y: rng.Float64() * width})
		}
		ch.Neighbors(0)
	}
}

func BenchmarkMobilityChurn(b *testing.B) {
	b.Run("incremental", mobilityChurn)
}

// BenchmarkScaleSimulationSecond runs the committed 10240-node scale
// scenario end to end (10 simulated milliseconds — the "second" in the
// name follows the SimulationSecond naming family, normalized below).
// Together with BuildLargeN and MobilityChurn it gates the scale story:
// assembly, mobility churn, and steady-state event throughput.
func BenchmarkScaleSimulationSecond(b *testing.B) {
	sc := scaleBench()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunScenario(sc, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		last = res.MeanThroughputBps()
	}
	b.ReportMetric(last/1000, "Kbps/node")
}

// discard is a no-op PHY handler for micro-benches.
type discard struct{}

func (discard) OnCarrierBusy()      {}
func (discard) OnCarrierIdle()      {}
func (discard) OnFrame(f phy.Frame) {}
func (discard) OnFrameError()       {}
func (discard) OnTxDone()           {}

// BenchmarkMobilitySweep regenerates one point of the mobility extension
// study: fast random-waypoint motion with one-second-stale bearings.
func BenchmarkMobilitySweep(b *testing.B) {
	for _, speed := range []float64{0, 0.5} {
		name := "static"
		if speed > 0 {
			name = "speed0.5R"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchSim(core.DRTSDCTS, 5, 30)
				if speed > 0 {
					cfg.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: speed, RefreshInterval: sim.Duration(des.Second)}
				}
				res, err := sim.RunScenario(cfg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkAblationSINR compares the paper's pessimistic overlap receiver
// against the physical SINR receiver (capture by strength + directional
// gain per footnote 2 of the paper).
func BenchmarkAblationSINR(b *testing.B) {
	for _, sinr := range []bool{false, true} {
		name := "paper-overlap"
		if sinr {
			name = "sinr"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchSim(core.DRTSDCTS, 8, 30)
				cfg.PHY.SINR = sinr
				res, err := sim.RunScenario(cfg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkModelVsSim regenerates one point of the model-validation
// study: the analytical and simulated normalized throughput at the
// paper's clearest configuration.
func BenchmarkModelVsSim(b *testing.B) {
	var rho float64
	for i := 0; i < b.N; i++ {
		base := sim.Scenario{Seed: 1, Duration: sim.Duration(500 * des.Millisecond)}
		cells, err := experiments.Grid(sim.Runner{}, base, core.Schemes(), []int{8}, []float64{30}, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.ModelVsSim(cells)
		if err != nil {
			b.Fatal(err)
		}
		rho = experiments.SpearmanRank(rows)
	}
	b.ReportMetric(rho, "spearman")
}

// BenchmarkAdaptiveRTS compares plain DRTS-DCTS against the Ko et
// al.-style adaptive variant (omni RTS fallback on stale bearings plus
// piggybacked locations) under fast mobility.
func BenchmarkAdaptiveRTS(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "plain"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				cfg := benchSim(core.DRTSDCTS, 5, 30)
				cfg.Mobility = sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 1.0, RefreshInterval: sim.Duration(des.Second)}
				if adaptive {
					cfg.Ablations.AdaptiveRTS = sim.Duration(200 * des.Millisecond)
				}
				res, err := sim.RunScenario(cfg, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res.MeanThroughputBps()
			}
			b.ReportMetric(last/1000, "Kbps/node")
		})
	}
}

// BenchmarkServedScenario measures the simulation-as-a-service path
// through the full HTTP handler stack (real httptest transport, not a
// direct handler call): cold is a POST that executes the run, warm is
// the same POST served from the content-addressed cache — the latency
// a dedup'd client actually sees. The warm loop asserts it never
// re-executed.
func BenchmarkServedScenario(b *testing.B) {
	sc := sim.Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 90,
		Seed:         1,
		Duration:     sim.Duration(100 * des.Millisecond),
		Topology:     sim.TopologySpec{N: 3},
	}
	spec, err := sim.MarshalScenario(sc)
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, url string) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("POST status %d", resp.StatusCode)
		}
	}

	b.Run("cold", func(b *testing.B) {
		// No cache: every sequential POST runs the simulation, so each
		// iteration pays parse + validate + key + queue + run + encode.
		srv := server.New(server.Config{})
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL+"/v1/runs")
		}
	})
	b.Run("warm", func(b *testing.B) {
		store, err := cache.NewStore(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		srv := server.New(server.Config{Cache: store})
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		post(b, ts.URL+"/v1/runs") // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL+"/v1/runs")
		}
		b.StopTimer()
		if st := srv.Stats(); st.Executed != 1 {
			b.Fatalf("warm loop re-executed the scenario (%+v)", st)
		}
	})
}
