// Command netsim runs one simulation configuration of the 802.11
// simulator — a single topology or a batch — and prints the measured
// inner-node metrics. A run is described either by flags or by a
// declarative scenario file; -dump-scenario converts the former into the
// latter, and the two paths produce identical output for equivalent
// configurations.
//
// Examples:
//
//	netsim -scheme drts-dcts -n 8 -beam 30 -duration 5s
//	netsim -scheme orts-octs -n 5 -topologies 20 -seed 7
//	netsim -scheme drts-dcts -n 5 -beam 90 -hello -verbose
//	netsim -scheme drts-dcts -n 5 -beam 60 -dump-scenario > run.json
//	netsim -scenario run.json
//	netsim -scheme drts-dcts -n 5 -beam 60 -telemetry run.jsonl -telemetry-interval 10ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "run a scenario JSON file instead of building one from flags")
		dump         = fs.Bool("dump-scenario", false, "print the scenario as canonical JSON and exit without running")
		schemeName   = fs.String("scheme", "drts-dcts", "MAC scheme: ORTS-OCTS, DRTS-DCTS or DRTS-OCTS")
		n            = fs.Int("n", 5, "density N (inner measured nodes; 9N total)")
		topoKind     = fs.String("topology", "", "topology generator kind (default rings)")
		beamDeg      = fs.Float64("beam", 30, "transmission beamwidth in degrees")
		seed         = fs.Int64("seed", 1, "random seed")
		duration     = fs.Duration("duration", 5*time.Second, "simulated time")
		topos        = fs.Int("topologies", 1, "number of independent random topologies")
		packet       = fs.Int("packet", 1460, "data packet size in bytes")
		hello        = fs.Bool("hello", false, "bootstrap neighbor tables over the air (HELLO protocol)")
		capture      = fs.Bool("capture", false, "ablation: first-signal capture at receivers")
		oracle       = fs.Bool("oracle-nav", false, "ablation: oracle virtual carrier sensing")
		noEIFS       = fs.Bool("no-eifs", false, "ablation: disable EIFS deference")
		adaptive     = fs.Duration("adaptive-rts", 0, "adaptive RTS staleness threshold (0 = off)")
		jsonOut      = fs.Bool("json", false, "print the canonical Result JSON instead of the text report (single-topology mode; the bytes cmd/simd serves)")
		verbose      = fs.Bool("verbose", false, "print per-node stats (single-topology mode)")
		traceN       = fs.Int("trace", 0, "print the last N protocol trace events (single-topology mode)")
		telPath      = fs.String("telemetry", "", "write a telemetry JSONL export to FILE (\"-\" for stdout); analyze with simtrace")
		telInterval  = fs.Duration("telemetry-interval", 10*time.Millisecond, "sim-time sampling interval for -telemetry")
		partition    = fs.String("partition", "", "partitioned parallel kernel: auto or off (default: scenario setting, auto)")
		workers      = fs.Int("workers", 0, "goroutine budget for batch shards and partitioned runs (0 = GOMAXPROCS; never affects results)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sc sim.Scenario
	if *scenarioPath != "" {
		var err error
		sc, err = sim.LoadScenario(*scenarioPath)
		if err != nil {
			return err
		}
	} else {
		scheme, err := core.ParseScheme(*schemeName)
		if err != nil {
			return err
		}
		sc = experiments.SimConfig{
			Scheme:         scheme,
			BeamwidthDeg:   *beamDeg,
			N:              *n,
			TopologyKind:   *topoKind,
			Seed:           *seed,
			Duration:       des.Time(duration.Nanoseconds()),
			PacketBytes:    *packet,
			HelloBootstrap: *hello,
			Capture:        *capture,
			NAVOracle:      *oracle,
			DisableEIFS:    *noEIFS,
			AdaptiveRTS:    des.Time(adaptive.Nanoseconds()),
		}.Scenario()
	}
	// -partition overrides the scenario's kernel selection when given.
	if *partition != "" {
		sc.Partition = *partition
	}
	// -telemetry turns on sampling (unless the scenario file already did)
	// and streams the export to the named file. The sink plugs into both
	// the single-run and the sharded-runner paths; the runner merges the
	// per-shard series in shard order before anything reaches the file.
	var telSink *telemetry.Writer
	if *telPath != "" {
		if !sc.Telemetry.Enabled() {
			sc.Telemetry.Interval = sim.Duration(telInterval.Nanoseconds())
		}
	}
	if *telPath != "" && !*dump {
		out := os.Stdout
		if *telPath != "-" {
			f, err := os.Create(*telPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		telSink = telemetry.NewWriter(out)
		defer telSink.Flush()
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	scheme, err := sc.ResolvedScheme()
	if err != nil {
		return err
	}
	if *dump {
		return sim.WriteScenario(os.Stdout, sc)
	}
	dur := des.Time(sc.Duration)

	if *jsonOut && *topos > 1 {
		return fmt.Errorf("-json reports a single run; it cannot aggregate -topologies %d", *topos)
	}

	if *topos > 1 {
		runner := sim.Runner{Workers: *workers}
		if telSink != nil {
			runner.Options.Telemetry = telSink
		}
		results, err := runner.Run(sc, *topos)
		if err != nil {
			return err
		}
		b := experiments.AggregateBatch(results)
		fmt.Printf("%s N=%d θ=%g° over %d topologies (%v each):\n", scheme, sc.Topology.N, sc.BeamwidthDeg, b.Runs, dur)
		fmt.Printf("  throughput  %s Kb/s per inner node\n", b.ThroughputBps.Scale(1e-3))
		fmt.Printf("  delay       %s ms\n", b.DelaySec.Scale(1e3))
		fmt.Printf("  collisions  %s\n", b.CollisionRatio)
		fmt.Printf("  fairness    %s (Jain)\n", b.Jain)
		return nil
	}

	opts := sim.Options{Workers: *workers}
	var rec *trace.Recorder
	if *traceN > 0 {
		rec = trace.NewRecorder(*traceN)
		opts.Tracer = rec
	}
	if telSink != nil {
		opts.Telemetry = telSink
	}
	res, err := sim.RunScenario(sc, opts)
	if err != nil {
		return err
	}
	if *jsonOut {
		// The canonical encoding plus one newline: byte-identical to the
		// body cmd/simd serves for the same spec (and to the cache
		// payload), so `cmp` against a daemon response is the correctness
		// gate of the service.
		payload, err := sim.EncodeResult(res)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(append(payload, '\n')); err != nil {
			return err
		}
		return nil
	}
	fmt.Printf("%s N=%d θ=%g° seed=%d (%v):\n", scheme, sc.Topology.N, sc.BeamwidthDeg, sc.Seed, dur)
	fmt.Printf("  mean inner throughput  %.1f Kb/s\n", res.MeanThroughputBps()/1000)
	fmt.Printf("  mean delay             %.2f ms\n", res.MeanDelaySec()*1000)
	fmt.Printf("  mean collision ratio   %.3f\n", res.MeanCollisionRatio())
	fmt.Printf("  Jain fairness          %.3f\n", res.Jain)
	if *verbose {
		fmt.Println("  per inner node:")
		for i := range res.ThroughputBps {
			st := res.NodeStats[i]
			fmt.Printf("    node %2d: %8.1f Kb/s  delay %7.2f ms  coll %.3f  rts %d succ %d drop %d\n",
				i, res.ThroughputBps[i]/1000, res.DelaySec[i]*1000, res.CollisionRatio[i],
				st.RTSSent, st.Successes, st.Drops)
		}
	}
	if rec != nil {
		fmt.Printf("  last %d of %d trace events:\n", len(rec.Events()), rec.Total())
		if err := rec.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
