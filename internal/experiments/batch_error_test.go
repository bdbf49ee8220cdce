package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// A topology kind that fails for every shard whose derived seed is
// divisible by 4, injected through topology.kind so RunBatch's
// error path can be pinned without touching production generators.
func init() {
	sim.RegisterTopology("failing-batch", func(rng *rand.Rand, sc sim.Scenario) (*topology.Topology, error) {
		if sc.Seed%4 == 0 {
			return nil, errInjected(sc.Seed)
		}
		return topology.Generate(rng, topology.DefaultConfig(sc.Topology.N))
	})
}

type errInjected int64

func (e errInjected) Error() string { return "injected topology failure" }

// TestRunBatchDeterministicError pins the error contract: quickScenario's
// base seed is 7, so shards 1 and 5 (seeds 8 and 12) hit the injected
// failure; the reported error must always come from shard 1, whichever
// goroutine fails first.
func TestRunBatchDeterministicError(t *testing.T) {
	sc := quickScenario(core.DRTSDCTS, 3, 60)
	sc.Topology.Kind = "failing-batch"
	var first string
	for trial := 0; trial < 10; trial++ {
		_, err := RunBatch(sim.Runner{}, sc, 8)
		if err == nil {
			t.Fatal("want error from injected failing topology")
		}
		msg := err.Error()
		if !strings.Contains(msg, "shard 1 (seed 8)") {
			t.Fatalf("trial %d: error does not name the lowest failing shard: %v", trial, err)
		}
		if first == "" {
			first = msg
		} else if msg != first {
			t.Fatalf("trial %d: error changed across runs:\n%q\n%q", trial, msg, first)
		}
	}
}

// TestRunBatchSucceedsWithInjectedKind: shards that miss the failing
// seeds run the normal generator, so a batch that avoids them works.
func TestRunBatchSucceedsWithInjectedKind(t *testing.T) {
	sc := quickScenario(core.DRTSDCTS, 3, 60)
	sc.Topology.Kind = "failing-batch"
	sc.Seed = 9 // shard seeds 9..11: none divisible by 4
	b, err := RunBatch(sim.Runner{}, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Runs != 3 {
		t.Errorf("batch runs = %d, want 3", b.Runs)
	}
}
