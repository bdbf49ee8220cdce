package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// inputBytes serializes everything a workload generates from its seed.
func inputBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	e := env{seed: seed, workers: 2}
	var scs []sim.Scenario
	var buf bytes.Buffer
	switch name {
	case "paper-grid":
		p := genPaperGrid(e, 1)
		fmt.Fprintf(&buf, "%+v %d\n", p.base, p.topologies)
		scs = p.probes()
	case "sparse-idle":
		scs = genSparseIdle(e, 1)
	case "large-field":
		scs = []sim.Scenario{genLargeField(e, 1)}
	case "served-mix":
		var reqs []request
		var err error
		scs, reqs, err = genServedMix(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			fmt.Fprintf(&buf, "%d %v %s", r.sc, r.stream, r.body)
		}
	default:
		t.Fatalf("no generator for %s", name)
	}
	for _, sc := range scs {
		b, err := sim.MarshalScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := inputBytes(t, w.name, 7), inputBytes(t, w.name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different input lists", w.name)
		}
		if bytes.Equal(a, inputBytes(t, w.name, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

func TestServedMixShape(t *testing.T) {
	scs, reqs, err := genServedMix(env{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4000 {
		t.Fatalf("%d requests, want 4000", len(reqs))
	}
	catalog := len(paperCells()) * catalogSeeds
	var repeats, fresh, streams, pairs int
	for i, r := range reqs {
		switch {
		case r.stream:
			streams++
		case r.sc < catalog:
			repeats++
		default:
			fresh++
			if i > 0 && reqs[i-1].sc == r.sc {
				pairs++
			}
		}
	}
	share := func(n int) float64 { return float64(n) / float64(len(reqs)) }
	if s := share(repeats); s < 0.77 || s > 0.83 {
		t.Errorf("repeat share %.3f, want about 0.80", s)
	}
	if s := share(streams); s < 0.03 || s > 0.05 {
		t.Errorf("stream share %.3f, want about 0.04", s)
	}
	if s := share(pairs); s < 0.01 || s > 0.03 {
		t.Errorf("pair share %.3f, want about 0.02 (4%% of requests, two each)", s)
	}
	if len(scs) <= catalog {
		t.Errorf("no fresh scenarios beyond the %d-entry catalog", catalog)
	}
	// The catalog must exceed the memory LRU so tail hits read from disk.
	if catalog <= 256 {
		t.Errorf("catalog of %d fits in the 256-entry memory cache", catalog)
	}
}
