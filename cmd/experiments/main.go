// Command experiments regenerates every table and figure of the paper's
// evaluation:
//
//	fig5       analytical maximum throughput vs beamwidth (Section 3)
//	table1     the IEEE 802.11 configuration constants used (Section 4)
//	fig6       simulated throughput comparison (Section 4)
//	fig7       simulated delay comparison (Section 4)
//	collision  collision-ratio statistics (Section 4, omitted in the paper)
//	fairness   BEB fairness statistics (Section 4, omitted in the paper)
//	trajectory single-run telemetry export: throughput/collision/fairness vs sim time (extension)
//	loadsweep  offered-load vs delivered-throughput/delay study (extension)
//	mobility   node-speed vs throughput study with stale bearings (extension)
//	modelvssim analytical-vs-simulated throughput comparison (extension)
//	reuse      spatial-reuse factor study (extension)
//	delaycdf   per-packet delay percentile comparison (extension)
//	all        everything above except the extensions
//
// -run takes a comma-separated list. fig6, fig7, collision, fairness
// and modelvssim read one simulated paper grid, run at most once per
// invocation; ORTS-OCTS ignores beamwidth, so the grid simulates it
// once per N and repeats that cell across the beamwidth rows.
//
// The simulation sweeps default to the paper's 50 random topologies per
// cell; use -topologies and -duration to trade fidelity for time. Use
// -csv to emit machine-readable output alongside the tables.
//
// -scenario FILE replaces the flag-built base scenario with a file. The
// base may leave scheme, topology.n and beamwidthDeg unset: each study
// fills the fields it varies, and the studies that fix a density or a
// beamwidth fill those only where the base leaves them zero. Every
// other field of the file reaches every simulated cell.
//
// Example (full paper reproduction, ~minutes):
//
//	experiments -run all -topologies 50 -duration 10s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		what         = fs.String("run", "all", "comma-separated targets: fig5|table1|fig6|fig7|collision|fairness|all, or the extensions trajectory|loadsweep|mobility|modelvssim|reuse|delaycdf")
		topos        = fs.Int("topologies", 50, "random topologies per simulation cell")
		duration     = fs.Duration("duration", 10*time.Second, "simulated time per run")
		seed         = fs.Int64("seed", 1, "base random seed")
		csv          = fs.Bool("csv", false, "also emit CSV blocks")
		jsonOut      = fs.Bool("json", false, "also emit JSON blocks")
		svgDir       = fs.String("svg", "", "directory to write figure SVGs into (created if missing)")
		scenarioPath = fs.String("scenario", "", "base scenario JSON replacing -seed/-duration; may leave scheme, topology.n and beamwidthDeg for the studies to fill")
		dump         = fs.Bool("dump-scenario", false, "print the base scenario as canonical JSON and exit")
		cacheDir     = fs.String("cache", "", "directory for the content-addressed result cache (repeat sweeps are served from it)")
		cacheStats   = fs.Bool("cache-stats", false, "print cache hit/miss/eviction counters on exit (requires -cache)")
		telPath      = fs.String("telemetry", "telemetry.jsonl", "output file for the trajectory study's JSONL export")
		telInterval  = fs.Duration("telemetry-interval", 10*time.Millisecond, "sim-time sampling interval for the trajectory study")
		workers      = fs.Int("workers", 0, "concurrent topologies per simulation cell (0 = GOMAXPROCS; never affects results)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheStats && *cacheDir == "" {
		return fmt.Errorf("-cache-stats requires -cache DIR")
	}

	// The base is not validated here: it may be partial, and the Runner
	// validates every cell before any of its shards runs.
	base := sim.Scenario{Seed: *seed, Duration: sim.Duration(duration.Nanoseconds())}
	if *scenarioPath != "" {
		var err error
		if base, err = sim.LoadScenario(*scenarioPath); err != nil {
			return err
		}
	}
	runner := sim.Runner{Workers: *workers}
	if *cacheDir != "" {
		store, err := cache.NewStore(*cacheDir, 0)
		if err != nil {
			return err
		}
		runner.Options.Cache = store
		if *cacheStats {
			defer func() {
				st := store.Stats()
				fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d evictions (%s)\n",
					st.Hits, st.Misses, st.Evictions, store.Dir())
			}()
		}
	}
	if *dump {
		return sim.WriteScenario(os.Stdout, base)
	}
	// Studies that fix their own density/beamwidth fill them only when
	// the base does not supply one, so a scenario file stays in charge.
	withDefaults := func(n int, beamDeg float64) sim.Scenario {
		sc := base
		if sc.Topology.N == 0 {
			sc.Topology.N = n
		}
		if sc.BeamwidthDeg == 0 {
			sc.BeamwidthDeg = beamDeg
		}
		return sc
	}

	var mkSVG func(name string) (io.WriteCloser, error)
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		mkSVG = func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*svgDir, name))
		}
	}

	targets := map[string]bool{}
	for _, t := range strings.Split(*what, ",") {
		targets[strings.TrimSpace(strings.ToLower(t))] = true
	}
	all := targets["all"]

	if all || targets["table1"] {
		experiments.WriteTable1(os.Stdout)
		fmt.Println()
	}

	var fig5Rows []experiments.Fig5Row
	if all || targets["fig5"] {
		rows, err := experiments.Fig5([]float64{3, 5, 8})
		if err != nil {
			return err
		}
		fig5Rows = rows
		if err := experiments.WriteFig5(os.Stdout, rows); err != nil {
			return err
		}
		if err := experiments.Fig5Shape(rows); err != nil {
			fmt.Printf("!! shape check: %v\n", err)
		} else {
			fmt.Println("shape check: DRTS-DCTS best at narrow beamwidth; degrades with θ; ORTS-OCTS flat — OK")
		}
		if *csv {
			if err := experiments.WriteFig5CSV(os.Stdout, rows); err != nil {
				return err
			}
		}
		if *jsonOut {
			if err := experiments.WriteFig5JSON(os.Stdout, rows); err != nil {
				return err
			}
		}
		fmt.Println()
	}

	if targets["trajectory"] {
		sc := withDefaults(5, 30)
		if sc.Scheme == "" {
			sc.Scheme = core.DRTSDCTS.String()
		}
		sc.Telemetry.Interval = sim.Duration(telInterval.Nanoseconds())
		f, err := os.Create(*telPath)
		if err != nil {
			return err
		}
		w := telemetry.NewWriter(f)
		opts := runner.Options
		opts.Telemetry = w
		res, err := sim.RunScenario(sc, opts)
		if err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		scheme, _ := sc.ResolvedScheme() // valid: the run succeeded
		fmt.Printf("trajectory study: %s N=%d θ=%g° seed=%d, sampled every %v for %v\n",
			scheme, sc.Topology.N, sc.BeamwidthDeg, sc.Seed, *telInterval, time.Duration(sc.Duration))
		fmt.Printf("  final mean throughput %.1f Kb/s, collision ratio %.3f, Jain %.3f\n",
			res.MeanThroughputBps()/1000, res.MeanCollisionRatio(), res.Jain)
		fmt.Printf("  export written to %s (inspect with: simtrace summarize %s)\n", *telPath, *telPath)
		fmt.Println()
	}

	if targets["loadsweep"] {
		cells, err := experiments.LoadSweep(runner, withDefaults(5, 30), core.Schemes(), experiments.PaperLoads(), *topos)
		if err != nil {
			return err
		}
		if err := experiments.WriteLoadSweep(os.Stdout, cells); err != nil {
			return err
		}
		fmt.Println()
	}

	if targets["reuse"] {
		cells, err := experiments.ReuseStudy(runner, base, core.Schemes(), 8, []float64{30, 90, 150}, *topos)
		if err != nil {
			return err
		}
		if err := experiments.WriteReuseStudy(os.Stdout, cells); err != nil {
			return err
		}
		fmt.Println()
	}

	if targets["delaycdf"] {
		rows, err := experiments.DelayCDF(runner, withDefaults(8, 30), core.Schemes(), []float64{10, 50, 90, 95, 99})
		if err != nil {
			return err
		}
		if err := experiments.WriteDelayCDF(os.Stdout, rows, core.Schemes()); err != nil {
			return err
		}
		fmt.Println()
	}

	// The paper grid is simulated at most once: modelvssim and the
	// fig6/fig7/collision/fairness tables share its cells.
	ns, beams := experiments.PaperGrid()
	grid := sync.OnceValues(func() ([]experiments.GridCell, error) {
		return experiments.Grid(runner, base, core.Schemes(), ns, beams, *topos)
	})

	if targets["modelvssim"] {
		cells, err := grid()
		if err != nil {
			return err
		}
		rows, err := experiments.ModelVsSim(cells)
		if err != nil {
			return err
		}
		if err := experiments.WriteModelVsSim(os.Stdout, rows); err != nil {
			return err
		}
		if *jsonOut {
			if err := experiments.WriteModelVsSimJSON(os.Stdout, rows); err != nil {
				return err
			}
		}
		fmt.Println()
	}

	if targets["mobility"] {
		cells, err := experiments.MobilitySweep(runner, withDefaults(5, 30), core.Schemes(), experiments.PaperSpeeds(), *topos)
		if err != nil {
			return err
		}
		if err := experiments.WriteMobilitySweep(os.Stdout, cells); err != nil {
			return err
		}
		fmt.Println()
	}

	needGrid := all || targets["fig6"] || targets["fig7"] || targets["collision"] || targets["fairness"]
	if !needGrid {
		if mkSVG != nil {
			return experiments.WriteFigureSVGs(mkSVG, fig5Rows, nil)
		}
		return nil
	}

	fmt.Printf("running simulation grid: %d N × %d beamwidths × 3 schemes × %d topologies, %v each...\n\n",
		len(ns), len(beams), *topos, base.Duration)
	cells, err := grid()
	if err != nil {
		return err
	}

	show := func(key, title string, m experiments.Metric) error {
		if !all && !targets[key] {
			return nil
		}
		return experiments.WriteGrid(os.Stdout, title, cells, m)
	}
	if err := show("fig6", "Fig. 6", experiments.MetricThroughput); err != nil {
		return err
	}
	if err := show("fig7", "Fig. 7", experiments.MetricDelay); err != nil {
		return err
	}
	if err := show("collision", "Collision-ratio study", experiments.MetricCollision); err != nil {
		return err
	}
	if err := show("fairness", "Fairness study", experiments.MetricFairness); err != nil {
		return err
	}
	if *csv {
		if err := experiments.WriteGridCSV(os.Stdout, cells); err != nil {
			return err
		}
	}
	if *jsonOut {
		if err := experiments.WriteGridJSON(os.Stdout, cells); err != nil {
			return err
		}
	}
	if mkSVG != nil {
		if err := experiments.WriteFigureSVGs(mkSVG, fig5Rows, cells); err != nil {
			return err
		}
		fmt.Printf("figure SVGs written to %s\n", *svgDir)
	}
	return nil
}
