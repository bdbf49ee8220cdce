package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestRunBatchDeterministicError pins the error contract: in a cell
// whose every shard fails, the reported error is shard 0's, whichever
// goroutine fails first. A grid of N=2 on one ring fails every shard:
// the lattice keeps only the origin. (sim's TestRunnerLowestShardErrorWins
// pins the lowest-index rule when only some shards fail.)
func TestRunBatchDeterministicError(t *testing.T) {
	sc := quickScenario(core.DRTSDCTS, 2, 60)
	sc.Topology.Kind = "grid"
	sc.Topology.Rings = 1
	var first string
	for trial := 0; trial < 10; trial++ {
		_, err := RunBatch(sim.Runner{Workers: 4}, sc, 8)
		if err == nil {
			t.Fatal("want error from a grid too small for n=2")
		}
		msg := err.Error()
		if !strings.Contains(msg, "shard 0 (seed 7)") || !strings.Contains(msg, "grid topology produced 1 nodes, fewer than n=2") {
			t.Fatalf("trial %d: error does not report shard 0's failure: %v", trial, err)
		}
		if first == "" {
			first = msg
		} else if msg != first {
			t.Fatalf("trial %d: error changed across runs:\n%q\n%q", trial, msg, first)
		}
	}
}

// TestRunBatchSucceedsWithInjectedKind: the kind named through
// topology.kind that fails every shard above runs every shard once its
// field holds N nodes (N=3 on the default 3 rings), so a batch of a
// non-default kind that avoids the failure works.
func TestRunBatchSucceedsWithInjectedKind(t *testing.T) {
	sc := quickScenario(core.DRTSDCTS, 3, 60)
	sc.Topology.Kind = "grid"
	sc.Seed = 9
	b, err := RunBatch(sim.Runner{Workers: 4}, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Runs != 3 {
		t.Errorf("batch runs = %d, want 3", b.Runs)
	}
}
