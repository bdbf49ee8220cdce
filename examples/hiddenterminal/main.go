// Hidden-terminal scenario: the motivating problem of the paper's
// introduction. Nodes A and C cannot hear each other but both flood the
// middle node B. The RTS/CTS handshake keeps their long data frames from
// colliding at B; the example shows how each scheme handles it and what
// the residual collision ratio looks like.
//
//	go run ./examples/hiddenterminal
package main

import (
	"fmt"
	"log"

	"repro/dirca"
)

func main() {
	// A --- B --- C with |AB| = |BC| = 0.9 and |AC| = 1.8 > 1: A and C are
	// hidden from each other. The first topology.n = 2 positions are the
	// measured nodes, so A and C come first.
	topo := dirca.TopologySpec{
		Kind: "explicit",
		N:    2,
		Positions: []dirca.Point{
			{X: -0.9, Y: 0}, // A
			{X: 0.9, Y: 0},  // C
			{X: 0, Y: 0},    // B
		},
	}
	flows := dirca.TrafficSpec{
		Kind: "flows",
		Flows: []dirca.Flow{
			{Src: 0, Dst: 2}, // A → B
			{Src: 1, Dst: 2}, // C → B
		},
	}

	fmt.Println("hidden-terminal triple: A and C both saturate B, out of each other's range")
	fmt.Println()
	for _, s := range dirca.Schemes() {
		res, err := dirca.Simulate(dirca.Scenario{
			Scheme:       s.String(),
			BeamwidthDeg: 30,
			Seed:         7,
			Duration:     5 * dirca.Second,
			Topology:     topo,
			Traffic:      flows,
		})
		if err != nil {
			log.Fatal(err)
		}

		a, c := res.NodeStats[0], res.NodeStats[1]
		agg := (res.ThroughputBps[0] + res.ThroughputBps[1]) / 1000
		fmt.Printf("%-9s: aggregate %7.1f Kb/s  A: %4d ok / %3d data-collisions  C: %4d ok / %3d data-collisions\n",
			s, agg, a.Successes, a.ACKTimeouts, c.Successes, c.ACKTimeouts)
	}

	fmt.Println()
	fmt.Println("The RTS/CTS exchange confines the vulnerable period to the short RTS:")
	fmt.Println("data frames are ~75x longer than an RTS, yet data-phase collisions stay rare.")
	fmt.Println("With directional CTS (DRTS-DCTS), B's grant no longer silences both sides,")
	fmt.Println("so the collision count rises — the collision-avoidance/spatial-reuse tradeoff")
	fmt.Println("the paper quantifies.")
}
