// Densenet: the paper's densest simulated setting (N = 8, i.e. 72 nodes
// in three concentric rings), comparing the three schemes over several
// random topologies — a compact version of the Figs. 6 and 7 study,
// including the fairness effect of binary exponential backoff.
//
//	go run ./examples/densenet
package main

import (
	"fmt"
	"log"

	"repro/dirca"
)

func main() {
	const (
		n          = 8
		topologies = 8
	)
	fmt.Printf("dense network: N=%d (%d nodes), %d random ring topologies, saturated CBR\n\n",
		n, 9*n, topologies)
	fmt.Printf("%-9s %6s | %22s | %12s | %10s | %6s\n",
		"scheme", "beam", "throughput Kb/s [range]", "delay ms", "collisions", "Jain")
	for _, beam := range []float64{30, 90, 150} {
		for _, s := range dirca.Schemes() {
			b, err := dirca.SimulateBatch(dirca.Scenario{
				Scheme:       s.String(),
				BeamwidthDeg: beam,
				Seed:         11,
				Duration:     3 * dirca.Second,
				Topology:     dirca.TopologySpec{N: n},
			}, topologies)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-9s %5.0f° | %8.1f [%6.1f,%6.1f] | %12.2f | %10.3f | %6.3f\n",
				s, beam,
				b.ThroughputBps.Mean/1000, b.ThroughputBps.Min/1000, b.ThroughputBps.Max/1000,
				b.DelaySec.Mean*1000, b.CollisionRatio.Mean, b.Jain.Mean)
		}
		fmt.Println()
	}
	fmt.Println("Expected shape (the paper's Figs. 6 & 7): DRTS-DCTS delivers the highest")
	fmt.Println("throughput and lowest delay at 30° despite the highest collision ratio;")
	fmt.Println("the advantage narrows as the beam widens, and Jain fairness drops with")
	fmt.Println("wider beams as BEB lets winners monopolize the channel.")
}
