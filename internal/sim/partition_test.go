package sim

import (
	"bytes"
	"testing"

	"repro/internal/des"
)

// fieldScenario is a uniform field of Rings²·N = 384 nodes over a disk
// of radius 4R, the size at which the retired partitioned kernel split
// a run into per-region queues.
func fieldScenario() Scenario {
	return Scenario{
		Scheme:       "DRTS-DCTS",
		BeamwidthDeg: 60,
		Seed:         11,
		Duration:     Duration(25 * des.Millisecond),
		Topology:     TopologySpec{Kind: "uniform", N: 24, Rings: 4},
	}
}

// TestScenarioKeyPartitionNormalization: the partition field is a
// validated no-op, so "", "auto" and "off" share one cache key and give
// identical result bytes.
func TestScenarioKeyPartitionNormalization(t *testing.T) {
	var wantKey string
	var wantBytes []byte
	for _, mode := range []string{"", "auto", "off"} {
		sc := fieldScenario()
		sc.Partition = mode
		k, err := ScenarioKey(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunScenario(sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if mode == "" {
			wantKey, wantBytes = k.String(), b
			continue
		}
		if k.String() != wantKey {
			t.Errorf("partition %q hashes differently from \"\"", mode)
		}
		if !bytes.Equal(b, wantBytes) {
			t.Errorf("partition %q changed the result bytes", mode)
		}
	}
}

func TestScenarioValidatePartition(t *testing.T) {
	sc := fieldScenario()
	for _, mode := range []string{"", "auto", "off"} {
		sc.Partition = mode
		if err := sc.Validate(); err != nil {
			t.Errorf("partition %q: unexpected error %v", mode, err)
		}
	}
	for _, mode := range []string{"on", "parallel", "AUTO"} {
		sc.Partition = mode
		if err := sc.Validate(); err == nil {
			t.Errorf("partition %q: want validation error", mode)
		}
	}
}
