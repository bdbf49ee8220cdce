// Package telemetry is the simulator's deterministic observability
// subsystem: a registry of counters and fixed-bucket histograms
// wired into the MAC/PHY hot paths, a sim-clock probe scheduler that
// samples metrics at a fixed simulated interval, and a streaming
// self-describing JSONL export. Three properties are the contract:
//
//   - Zero cost when off. Every metric method is a no-op on a nil
//     receiver, so instrumented code records unconditionally and a
//     disabled run pays one nil check — no allocation, no branch on a
//     config struct (bench-gated by BenchmarkTelemetryOff).
//   - Deterministic. Sampling is driven by the discrete-event clock,
//     never the wall clock, and consumes no randomness; two runs of the
//     same scenario produce byte-identical exports, and enabling
//     telemetry leaves the simulation results bit-identical (pinned by
//     the kernel-determinism goldens).
//   - Streaming. Records are written as they are produced; a long run
//     never buffers its full series (the in-memory Buffer sink exists
//     for tests and for shard merging, where the series is bounded).
package telemetry

import (
	"repro/internal/stats"
)

// Counter is a monotonically increasing event count. All methods are
// no-ops on a nil receiver: instrumented code holds possibly-nil
// pointers and records unconditionally.
type Counter struct {
	v int64
}

// Inc adds one.
//
//desalint:hotpath
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds d.
//
//desalint:hotpath
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v += d
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram is a fixed-bucket distribution (a nil-safe wrapper around
// stats.Histogram, which also provides the shard-merge operation).
type Histogram struct {
	h *stats.Histogram
}

// NewHistogram wraps the given bucket bounds; see stats.NewHistogram
// for the layout rules.
func NewHistogram(bounds []float64) (*Histogram, error) {
	h, err := stats.NewHistogram(bounds)
	if err != nil {
		return nil, err
	}
	return &Histogram{h: h}, nil
}

// Observe records one observation.
//
//desalint:hotpath
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.h.Observe(x)
}

// Snapshot returns the underlying histogram (nil on a nil receiver).
// The caller must not modify it while the simulation is running.
func (h *Histogram) Snapshot() *stats.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}
