// Command topogen generates node placements — the paper's concentric-ring
// topologies or any other topology kind internal/sim knows — and emits
// them as JSON (one document per topology), for inspection or for
// feeding external tools.
//
// Examples:
//
//	topogen -n 5 -count 3 -seed 42 | jq '.positions | length'
//	topogen -kind grid -n 6 -stats
//	topogen -scenario run.json -svg
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/plot"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		n            = fs.Int("n", 5, "density N (inner nodes; 9N total)")
		kind         = fs.String("kind", "", "topology generator kind (default rings)")
		count        = fs.Int("count", 1, "number of topologies to generate")
		seed         = fs.Int64("seed", 1, "random seed")
		scenarioPath = fs.String("scenario", "", "take the topology section and seed from a scenario JSON file")
		stats        = fs.Bool("stats", false, "print degree statistics instead of JSON")
		svg          = fs.Bool("svg", false, "emit an SVG rendering instead of JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Sanity bounds on the flag path (-scenario goes through the full
	// scenario validation instead): a mistyped -n should fail with a
	// clear message, not try to materialize a billion-point slice.
	const maxDensity = 1 << 18 // ≈2.4M total nodes at the default 3 rings
	switch {
	case *n < 2:
		return fmt.Errorf("-n: density must be at least 2, got %d", *n)
	case *n > maxDensity:
		return fmt.Errorf("-n: density %d exceeds the sanity bound %d (≈%d total nodes); edit the bound if you really mean it", *n, maxDensity, 9*maxDensity)
	case *count < 1:
		return fmt.Errorf("-count: must be at least 1, got %d", *count)
	}
	sc := sim.Scenario{Topology: sim.TopologySpec{Kind: *kind, N: *n}}
	topoSeed := *seed
	if *scenarioPath != "" {
		loaded, err := sim.LoadScenario(*scenarioPath)
		if err != nil {
			return err
		}
		if err := loaded.Validate(); err != nil {
			return err
		}
		sc = loaded
		topoSeed = loaded.Seed
	}
	rng := rand.New(rand.NewSource(topoSeed))
	enc := json.NewEncoder(os.Stdout)
	for i := 0; i < *count; i++ {
		topo, err := sim.GenerateTopology(rng, sc)
		if err != nil {
			return err
		}
		if *svg {
			if err := plot.TopologySVG(os.Stdout, topo); err != nil {
				return err
			}
			continue
		}
		if *stats {
			deg := topo.Degrees()
			min, max, sum := deg[0], deg[0], 0
			for _, d := range deg {
				if d < min {
					min = d
				}
				if d > max {
					max = d
				}
				sum += d
			}
			fmt.Printf("topology %d: %d nodes, degree min/mean/max = %d/%.1f/%d\n",
				i, len(deg), min, float64(sum)/float64(len(deg)), max)
			continue
		}
		if err := enc.Encode(topo); err != nil {
			return err
		}
	}
	return nil
}
