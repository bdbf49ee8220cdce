package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// env is what every workload receives from the command line.
type env struct {
	seed    int64
	work    string // scratch directory inside the checkout
	workers int    // runtime.NumCPU(): Runner/partition workers, or HTTP clients
	tiny    bool   // smoke-test sizes
}

// opResult is what one op hands back to the harness.
type opResult struct {
	body    []byte  // canonical output bytes, for the digest and repeat checks
	ms      float64 // latency of the part the user waits on; output checks excluded
	tag     string  // served-mix: the X-Simd-Source header, or "stream"
	firstMs float64 // served-mix streams: time to the first NDJSON line
}

// serveCounters are the server and cache counters of a workload that
// runs the daemon; zero for the others.
type serveCounters struct {
	executed, coalesced, rejected uint64
	hits, misses, evictions       uint64
}

// instance is one prepared copy of a workload: its generated inputs plus
// whatever must exist before the first op.
type instance interface {
	// size is the number of ops in one pass over the inputs.
	size() int
	// op runs input i. It is safe for concurrent use when the workload
	// has more than one client.
	op(i int, sp spanCtx) (opResult, error)
	// probes are the scenarios the traced run replays layer by layer.
	probes() []sim.Scenario
	// verify runs the untimed checks that follow a pass.
	verify() (attempted, failed int)
	counters() serveCounters
	close()
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// parallel says whether the load comes from env.workers closed-loop
	// clients (served-mix) or one caller whose calls use env.workers
	// workers internally.
	parallel bool
	// minPasses guarantees the sample count tailN that fixes the
	// workload's tail percentile.
	minPasses int
	tailN     int
	// samePasses marks a workload whose passes all replay input pass 0;
	// the others draw fresh inputs for every pass, so one run averages
	// over many random topologies and its metrics move little with the
	// seed.
	samePasses bool
	// repeat is how many ops of input pass 0 are run again after the
	// timed passes to check that their bytes repeat.
	repeat int
	// prepare generates input pass `pass` from the seed and brings up
	// what its first op needs.
	prepare func(e env, pass int) (instance, error)
}

// tailP is the workload's fixed tail percentile.
func (w workload) tailP() float64 { return tailPercentile(w.tailN) }

var workloads = []workload{
	{
		name:      "paper-grid",
		why:       "the paper's Fig. 6/7 sweep as cmd/experiments runs it; the DES/PHY/MAC loop does the work and fast-forward, partitions and the cache are bypassed",
		minPasses: 5, tailN: 5 * 27, repeat: 3,
		prepare: preparePaperGrid,
	},
	{
		name:      "sparse-idle",
		why:       "sequential netsim-style runs of a sparse mobile CBR network, where fast-forward skips most idle slots and mobility migrates grid cells",
		minPasses: 3, tailN: 300, repeat: 10,
		prepare: prepareSparseIdle,
	},
	{
		name:      "large-field",
		why:       "Build and Run of a 10240-node uniform field, where Build cost, memory and the partitioned kernel dominate",
		minPasses: 4, tailN: 4 * 10, repeat: 1,
		prepare: prepareLargeField,
	},
	{
		name:      "served-mix",
		why:       "two closed-loop clients on simd over loopback HTTP: cache hits from memory and disk, executed misses, coalesced pairs and telemetry streams",
		parallel:  true,
		minPasses: 1, tailN: 4000, samePasses: true,
		prepare: prepareServedMix,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// paperSchemes are the three schemes of the paper's figures.
var paperSchemes = []core.Scheme{core.ORTSOCTS, core.DRTSDCTS, core.DRTSOCTS}

// gridCell is one (scheme, N, beamwidth) point of the paper grid.
type gridCell struct {
	scheme core.Scheme
	n      int
	beam   float64
}

// paperCells lists the 27 grid points in experiments.RunGrid's order.
func paperCells() []gridCell {
	ns, beams := experiments.PaperGrid()
	var cells []gridCell
	for _, n := range ns {
		for _, b := range beams {
			for _, s := range paperSchemes {
				cells = append(cells, gridCell{s, n, b})
			}
		}
	}
	return cells
}

// firstBuild builds sc once and drops it: the set-up a user's first run
// pays before any event executes.
func firstBuild(sc sim.Scenario, workers int) error {
	_, err := sim.Build(sc, sim.Options{Workers: workers})
	return err
}

// runSim is sim.RunScenario without a cache (Build, then Run) plus the
// canonical encoding, timed, with a span around each call; the domain
// checks follow untimed.
func runSim(sc sim.Scenario, workers int, sp spanCtx) (opResult, error) {
	start := time.Now()
	c := sp.begin("sim.Build")
	s, err := sim.Build(sc, sim.Options{Workers: workers})
	c.end()
	if err != nil {
		return opResult{}, err
	}
	c = sp.begin("sim.Run")
	res, err := s.Run()
	c.end()
	if err != nil {
		return opResult{}, err
	}
	c = sp.begin("sim.EncodeResult")
	b, err := sim.EncodeResult(res)
	c.end()
	if err != nil {
		return opResult{}, err
	}
	ms := msSince(start)
	return opResult{body: b, ms: ms}, checkResult(res)
}

// checkResult enforces the domain bounds of one run's metrics.
func checkResult(r *sim.Result) error {
	for i, c := range r.CollisionRatio {
		if !(c >= 0 && c <= 1) {
			return fmt.Errorf("node %d: collision ratio %v outside [0,1]", i, c)
		}
	}
	for i, t := range r.ThroughputBps {
		if !(t >= 0) {
			return fmt.Errorf("node %d: negative throughput %v", i, t)
		}
	}
	if !(r.Jain > 0 && r.Jain <= 1) {
		return fmt.Errorf("jain %v outside (0,1]", r.Jain)
	}
	return nil
}

// paperGrid runs one grid cell per op through experiments.RunGrid:
// 1 s simulated, rings placement, saturated traffic, five topologies.
// Pass p uses topology seeds seed+5p … seed+5p+4.
type paperGrid struct {
	base       experiments.SimConfig
	cells      []gridCell
	topologies int
}

func genPaperGrid(e env, pass int) *paperGrid {
	p := &paperGrid{
		base:       experiments.SimConfig{Duration: des.Second, Seed: e.seed + 5*int64(pass), Workers: e.workers},
		cells:      paperCells(),
		topologies: 5,
	}
	if e.tiny {
		p.base.Duration = 20 * des.Millisecond
		p.cells = p.cells[:3]
		p.topologies = 2
	}
	return p
}

func preparePaperGrid(e env, pass int) (instance, error) {
	p := genPaperGrid(e, pass)
	return p, firstBuild(p.scenario(0), e.workers)
}

// scenario is shard 0 of cell i, the run RunGrid starts that cell with.
func (p *paperGrid) scenario(i int) sim.Scenario {
	cfg := p.base
	c := p.cells[i]
	cfg.Scheme, cfg.N, cfg.BeamwidthDeg = c.scheme, c.n, c.beam
	return cfg.Scenario()
}

func (p *paperGrid) size() int { return len(p.cells) }

func (p *paperGrid) op(i int, sp spanCtx) (opResult, error) {
	c := p.cells[i]
	start := time.Now()
	s := sp.begin("experiments.RunGrid")
	cells, err := experiments.RunGrid(p.base, []core.Scheme{c.scheme}, []int{c.n}, []float64{c.beam}, p.topologies)
	s.end()
	ms := msSince(start)
	if err != nil {
		return opResult{}, err
	}
	b := cells[0].Batch
	switch {
	case b.Runs != p.topologies:
		err = fmt.Errorf("cell %d: %d runs, want %d", i, b.Runs, p.topologies)
	case !(b.CollisionRatio.Min >= 0 && b.CollisionRatio.Max <= 1):
		err = fmt.Errorf("cell %d: collision ratio range [%v,%v] outside [0,1]", i, b.CollisionRatio.Min, b.CollisionRatio.Max)
	case !(b.Jain.Min > 0 && b.Jain.Max <= 1):
		err = fmt.Errorf("cell %d: jain range [%v,%v] outside (0,1]", i, b.Jain.Min, b.Jain.Max)
	case !(b.ThroughputBps.Min >= 0):
		err = fmt.Errorf("cell %d: negative throughput %v", i, b.ThroughputBps.Min)
	}
	if err != nil {
		return opResult{}, err
	}
	body, err := json.Marshal(cells[0])
	return opResult{body: body, ms: ms}, err
}

func (p *paperGrid) probes() []sim.Scenario {
	out := make([]sim.Scenario, len(p.cells))
	for i := range p.cells {
		out[i] = p.scenario(i)
	}
	return out
}

func (p *paperGrid) verify() (int, int)      { return 0, 0 }
func (p *paperGrid) counters() serveCounters { return serveCounters{} }
func (p *paperGrid) close()                  {}

// sparseIdle is a list of sequential single runs: rings N=3 (27 nodes),
// DRTS-DCTS θ=30°, CBR 200 kb/s per node, waypoint mobility up to 2 R/s
// with a 1 s bearing refresh, fast-forward on, 10 s simulated, one seed
// per run. Pass p runs seeds seed+100p … seed+100p+99.
type sparseIdle struct {
	scs []sim.Scenario
}

func genSparseIdle(e env, pass int) []sim.Scenario {
	n, dur := 100, 10*des.Second
	if e.tiny {
		n, dur = 3, 500*des.Millisecond
	}
	scs := make([]sim.Scenario, n)
	for i := range scs {
		scs[i] = sim.Scenario{
			Scheme: core.DRTSDCTS.String(), BeamwidthDeg: 30,
			Seed: e.seed + int64(n*pass+i), Duration: sim.Duration(dur),
			Topology:    sim.TopologySpec{N: 3},
			Traffic:     sim.TrafficSpec{Kind: "cbr", OfferedLoadBps: 200e3},
			Mobility:    sim.MobilitySpec{Kind: "waypoint", MaxSpeed: 2, RefreshInterval: sim.Duration(des.Second)},
			FastForward: true,
		}
	}
	return scs
}

func prepareSparseIdle(e env, pass int) (instance, error) {
	s := &sparseIdle{scs: genSparseIdle(e, pass)}
	return s, firstBuild(s.scs[0], 1)
}

func (s *sparseIdle) size() int { return len(s.scs) }

func (s *sparseIdle) op(i int, sp spanCtx) (opResult, error) {
	return runSim(s.scs[i], 1, sp)
}

// probes are the first 40 runs, the sample the fast-forward reference
// compares.
func (s *sparseIdle) probes() []sim.Scenario { return s.scs[:min(ffProbes, len(s.scs))] }

func (s *sparseIdle) verify() (int, int)      { return 0, 0 }
func (s *sparseIdle) counters() serveCounters { return serveCounters{} }
func (s *sparseIdle) close()                  {}

// largeField repeats one Build+Run of a uniform 10240-node field (N=10,
// rings=32), DRTS-DCTS θ=60°, saturated, 20 ms simulated, partition
// layout chosen automatically, env.workers partition workers. A pass is
// ten ops on the field of seed+p.
type largeField struct {
	sc      sim.Scenario
	reps    int
	workers int
}

func genLargeField(e env, pass int) sim.Scenario {
	rings, dur := 32, 20*des.Millisecond
	if e.tiny {
		rings, dur = 8, 2*des.Millisecond
	}
	return sim.Scenario{
		Scheme: core.DRTSDCTS.String(), BeamwidthDeg: 60,
		Seed: e.seed + int64(pass), Duration: sim.Duration(dur),
		Topology: sim.TopologySpec{Kind: "uniform", N: 10, Rings: rings},
	}
}

func prepareLargeField(e env, pass int) (instance, error) {
	l := &largeField{sc: genLargeField(e, pass), reps: 10, workers: e.workers}
	if e.tiny {
		l.reps = 2
	}
	return l, firstBuild(l.sc, e.workers)
}

func (l *largeField) size() int { return l.reps }

func (l *largeField) op(_ int, sp spanCtx) (opResult, error) {
	return runSim(l.sc, l.workers, sp)
}

func (l *largeField) probes() []sim.Scenario  { return []sim.Scenario{l.sc} }
func (l *largeField) verify() (int, int)      { return 0, 0 }
func (l *largeField) counters() serveCounters { return serveCounters{} }
func (l *largeField) close()                  {}

// zipfExponent and catalogSeeds shape served-mix's repeat traffic: a
// catalog of 27 cells × 19 seeds = 513 scenarios, more than the cache's
// 256-entry memory LRU, so the tail of the Zipf draw reads from disk.
const (
	zipfExponent = 1.1
	catalogSeeds = 19
)

// request is one served-mix POST.
type request struct {
	body   []byte // canonical scenario JSON
	stream bool   // POST ?telemetry=1
	sc     int    // index into the scenario table
}

// genServedMix draws the request list from the seed: 80% repeats drawn
// Zipf from the catalog, 12% fresh one-off scenarios, 4% fresh scenarios
// listed twice in a row (they coalesce or hit), 4% telemetry streams of
// catalog scenarios. It returns the distinct scenarios (catalog first)
// and the requests that index them.
func genServedMix(e env) ([]sim.Scenario, []request, error) {
	nreq, dur := 4000, 300*des.Millisecond
	if e.tiny {
		nreq, dur = 40, 20*des.Millisecond
	}
	cells := paperCells()
	mk := func(c gridCell, seed int64) sim.Scenario {
		return sim.Scenario{
			Scheme: c.scheme.String(), BeamwidthDeg: c.beam, Seed: seed,
			Duration: sim.Duration(dur), Topology: sim.TopologySpec{N: c.n},
		}
	}
	var scs []sim.Scenario
	for _, c := range cells {
		for j := 0; j < catalogSeeds; j++ {
			scs = append(scs, mk(c, e.seed+int64(j)))
		}
	}
	catalog := len(scs)
	r := rand.New(rand.NewSource(e.seed))
	// Popularity rank → catalog entry, so the popular scenarios mix cheap
	// and expensive cells.
	rank := r.Perm(catalog)
	zipf := rand.NewZipf(r, zipfExponent, 1, uint64(catalog-1))
	fresh := func() int {
		scs = append(scs, mk(cells[r.Intn(len(cells))], e.seed+1000+int64(len(scs)-catalog)))
		return len(scs) - 1
	}
	var reqs []request
	add := func(i int, stream bool) { reqs = append(reqs, request{sc: i, stream: stream}) }
	// Draw weights 40:6:1:2 out of 49 yield 50 requests per 49 draws in
	// the shares 80:12:4:4.
	for len(reqs) < nreq {
		switch k := r.Intn(49); {
		case k < 40:
			add(rank[zipf.Uint64()], false)
		case k < 46:
			add(fresh(), false)
		case k < 47:
			i := fresh()
			add(i, false)
			add(i, false)
		default:
			add(rank[zipf.Uint64()], true)
		}
	}
	reqs = reqs[:nreq]
	bodies := make([][]byte, len(scs))
	for i, sc := range scs {
		b, err := sim.MarshalScenario(sc)
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	for i := range reqs {
		reqs[i].body = bodies[reqs[i].sc]
	}
	return scs, reqs, nil
}
