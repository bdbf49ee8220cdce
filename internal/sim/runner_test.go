package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// failEverySeedDivisibleBy3 runs shards whose derived seed is divisible
// by 3 into an injected failure, and every other shard normally.
func failEverySeedDivisibleBy3(sc Scenario, opts Options) (*Result, error) {
	if sc.Seed%3 == 0 {
		return nil, fmt.Errorf("injected failure for seed %d", sc.Seed)
	}
	return RunScenario(sc, opts)
}

func quickScenario() Scenario {
	return Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 60,
		Seed:         1,
		Duration:     Duration(50 * 1e6), // 50ms
		Topology:     TopologySpec{N: 3},
	}
}

func TestShardSeedDerivation(t *testing.T) {
	base := quickScenario()
	for i := 0; i < 5; i++ {
		sc := Shard(base, i)
		if sc.Seed != base.Seed+int64(i) {
			t.Errorf("shard %d seed = %d, want %d", i, sc.Seed, base.Seed+int64(i))
		}
		sc.Seed = base.Seed
		if !reflect.DeepEqual(sc, base) {
			t.Errorf("shard %d differs from base beyond the seed", i)
		}
	}
}

func TestRunnerMatchesSequentialRuns(t *testing.T) {
	base := quickScenario()
	const shards = 4
	got, err := Runner{Workers: 3}.Run(base, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != shards {
		t.Fatalf("got %d results, want %d", len(got), shards)
	}
	for i := 0; i < shards; i++ {
		want, err := RunScenario(Shard(base, i), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("shard %d: parallel result differs from sequential run", i)
		}
	}
}

// TestRunnerLowestShardErrorWins pins the deterministic error contract:
// with base seed 1, shards 2 and 5 hit the injected failure (seeds 3 and
// 6); whichever goroutine stumbles first, the reported error must always
// be shard 2's.
func TestRunnerLowestShardErrorWins(t *testing.T) {
	base := quickScenario()
	const shards = 8
	var first string
	for trial := 0; trial < 20; trial++ {
		_, err := Runner{Workers: 4, run: failEverySeedDivisibleBy3}.Run(base, shards)
		if err == nil {
			t.Fatal("want error from injected shard failures")
		}
		msg := err.Error()
		if !strings.Contains(msg, "shard 2 (seed 3)") {
			t.Fatalf("trial %d: error does not name the lowest failing shard: %v", trial, err)
		}
		if !strings.Contains(msg, "injected failure for seed 3") {
			t.Fatalf("trial %d: error lost the shard's cause: %v", trial, err)
		}
		if first == "" {
			first = msg
		} else if msg != first {
			t.Fatalf("trial %d: error message changed across runs:\n%q\n%q", trial, msg, first)
		}
	}
}

func TestRunnerRejectsZeroShards(t *testing.T) {
	if _, err := (Runner{}).Run(quickScenario(), 0); err == nil {
		t.Error("want error for zero shards")
	}
}

func TestRunnerValidatesBase(t *testing.T) {
	bad := quickScenario()
	bad.Duration = 0
	if _, err := (Runner{}).Run(bad, 2); err == nil {
		t.Error("want validation error for bad base scenario")
	}
}
