// Mobility: an extension study along the paper's future-work axis. The
// paper evaluates static networks; here nodes follow a random-waypoint
// walk while directional senders aim beams using location snapshots up to
// one second old. Narrow beams increasingly miss moving receivers, while
// the omni-directional scheme does not care where anyone is.
//
//	go run ./examples/mobility
package main

import (
	"fmt"
	"log"

	"repro/dirca"
)

func main() {
	const topologies = 4
	speeds := []float64{0, 0.1, 0.3, 1.0} // transmission ranges per second

	fmt.Println("random-waypoint mobility with 1 s location staleness, N=5, θ=30°")
	fmt.Println("(with R = 250 m, speed 0.1 R/s ≈ 25 m/s highway, 1.0 R/s is extreme)")
	fmt.Println()
	fmt.Printf("%12s | %16s | %16s\n", "speed (R/s)", "ORTS-OCTS", "DRTS-DCTS")

	static := make(map[dirca.Scheme]float64)
	for _, speed := range speeds {
		fmt.Printf("%12.2f |", speed)
		for _, s := range []dirca.Scheme{dirca.ORTSOCTS, dirca.DRTSDCTS} {
			sc := dirca.Scenario{
				Scheme:       s.String(),
				BeamwidthDeg: 30,
				Seed:         21,
				Duration:     2 * dirca.Second,
				Topology:     dirca.TopologySpec{N: 5},
			}
			if speed > 0 {
				sc.Mobility = dirca.MobilitySpec{Kind: "waypoint", MaxSpeed: speed, RefreshInterval: dirca.Second}
			}
			b, err := dirca.SimulateBatch(sc, topologies)
			if err != nil {
				log.Fatal(err)
			}
			kbps := b.ThroughputBps.Mean / 1000
			if speed == 0 {
				static[s] = kbps
			}
			fmt.Printf(" %7.1f Kb (%+3.0f%%) |", kbps, 100*(kbps/static[s]-1))
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("Two effects compound under mobility: every scheme loses throughput to")
	fmt.Println("neighbor churn (destinations wander out of range mid-exchange), and the")
	fmt.Println("directional scheme additionally misses with beams aimed from stale")
	fmt.Println("bearings. Directional MACs therefore need fresher neighbor state — the")
	fmt.Println("location/MAC coupling the paper's future-work discussion calls out.")
}
