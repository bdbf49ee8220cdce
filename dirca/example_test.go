package dirca_test

import (
	"fmt"
	"math"

	"repro/dirca"
)

// ExampleMaxThroughput reproduces one Fig. 5 point: the best saturation
// throughput of each scheme with a 30° beam and N = 5.
func ExampleMaxThroughput() {
	mp := dirca.ModelParams{
		N:         5,
		Beamwidth: 30 * math.Pi / 180,
		Lengths:   dirca.PaperLengths(),
	}
	for _, s := range dirca.Schemes() {
		_, th, err := dirca.MaxThroughput(s, mp, 0)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s %.3f\n", s, th)
	}
	// Output:
	// ORTS-OCTS 0.320
	// DRTS-DCTS 0.375
	// DRTS-OCTS 0.390
}

// ExampleThroughput evaluates the model at a fixed attempt probability.
func ExampleThroughput() {
	mp := dirca.ModelParams{
		N:         8,
		Beamwidth: math.Pi, // 180°
		Lengths:   dirca.PaperLengths(),
	}
	th, err := dirca.Throughput(dirca.DRTSDCTS, 0.01, mp)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.3f\n", th)
	// Output:
	// 0.042
}

// ExampleAttemptProbability solves the readiness→attempt fixed point the
// paper references: p = p₀·(1−p)·e^(−pN).
func ExampleAttemptProbability() {
	p, err := dirca.AttemptProbability(0.1, 5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.4f\n", p)
	// Output:
	// 0.0668
}

// ExampleSimulate runs one small deterministic simulation and reports
// whether the saturated network made progress.
func ExampleSimulate() {
	res, err := dirca.Simulate(dirca.Scenario{
		Scheme:   "ORTS-OCTS",
		Seed:     1,
		Duration: 500 * dirca.Millisecond,
		Topology: dirca.TopologySpec{N: 3},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("inner nodes:", len(res.ThroughputBps))
	fmt.Println("progress:", res.MeanThroughputBps() > 0)
	// Output:
	// inner nodes: 3
	// progress: true
}

// ExampleSimulate_hiddenTerminal runs the classic hidden-terminal
// triple as a Scenario: A and C, 1.8 R apart, cannot hear each other and
// both saturate B between them. The first topology.n positions are the
// measured nodes, so the result reports the two senders.
func ExampleSimulate_hiddenTerminal() {
	res, err := dirca.Simulate(dirca.Scenario{
		Scheme:   "ORTS-OCTS",
		Seed:     7,
		Duration: 2 * dirca.Second,
		Topology: dirca.TopologySpec{
			Kind:      "explicit",
			N:         2,
			Positions: []dirca.Point{{X: -0.9}, {X: 0.9}, {X: 0}}, // A, C, B
		},
		Traffic: dirca.TrafficSpec{
			Kind:  "flows",
			Flows: []dirca.Flow{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}}, // A→B, C→B
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	a, c := res.NodeStats[0], res.NodeStats[1]
	fmt.Println("both hidden senders progressed:", a.Successes > 0 && c.Successes > 0)
	// Output:
	// both hidden senders progressed: true
}
