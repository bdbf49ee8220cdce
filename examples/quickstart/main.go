// Quickstart: one analytical data point and one small simulation through
// the public dirca API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"repro/dirca"
)

func main() {
	// Analytical model (Section 2 of the paper): what is the best
	// saturation throughput the all-directional scheme can reach with a
	// 30° beam and an average of 5 contenders per coverage disk?
	mp := dirca.ModelParams{
		N:         5,
		Beamwidth: 30 * math.Pi / 180,
		Lengths:   dirca.PaperLengths(),
	}
	for _, s := range dirca.Schemes() {
		p, th, err := dirca.MaxThroughput(s, mp, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("analytical %-9s: max throughput %.4f at attempt probability p=%.4f\n", s, th, p)
	}

	// Simulator (Section 4): the same comparison on one random
	// concentric-ring topology with full IEEE 802.11 machinery.
	fmt.Println()
	for _, s := range dirca.Schemes() {
		res, err := dirca.Simulate(dirca.Scenario{
			Scheme:       s.String(),
			BeamwidthDeg: 30,
			Seed:         1,
			Duration:     3 * dirca.Second,
			Topology:     dirca.TopologySpec{N: 5},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated  %-9s: %7.1f Kb/s per inner node, delay %6.2f ms, collision ratio %.3f\n",
			s, res.MeanThroughputBps()/1000, res.MeanDelaySec()*1000, res.MeanCollisionRatio())
	}
}
