package telemetry

// Shard aggregation. The sharded runner gives every shard its own
// Buffer sink; after all shards finish, Merge folds them — in shard
// order, so the float accumulation sequence is fixed and the merged
// export is deterministic — into one aggregate export:
//
//   - agg samples are averaged pointwise over shards (the paper's
//     "mean over random topologies" presentation, applied to the whole
//     trajectory instead of just the end point);
//   - counters are summed, histograms merged bucket-by-bucket;
//   - per-node samples are dropped: node i is a different station in
//     every shard's topology, so a cross-shard series for it has no
//     meaning.

import (
	"fmt"
)

// Merge combines per-shard exports into one aggregate export. Buffers
// must come from runs of the same scenario shape: equal interval,
// duration, node counts and metric layout (only the seed differs).
func Merge(shards []*Buffer) (*Buffer, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("telemetry: nothing to merge")
	}
	base := shards[0]
	if !base.hasHeader {
		return nil, fmt.Errorf("telemetry: shard 0 export has no header")
	}
	out := NewBuffer()
	h := base.header
	h.Shards = len(shards)
	if err := out.WriteHeader(h); err != nil {
		return nil, err
	}

	aggs := make([][]Record, len(shards))
	metrics := make([][]Record, len(shards))
	for i, b := range shards {
		if !b.hasHeader {
			return nil, fmt.Errorf("telemetry: shard %d export has no header", i)
		}
		if err := compatibleHeaders(base.header, b.header); err != nil {
			return nil, fmt.Errorf("telemetry: shard %d: %w", i, err)
		}
		for _, r := range b.records {
			switch r.Kind {
			case KindAgg:
				aggs[i] = append(aggs[i], r)
			case KindCounter, KindHist:
				metrics[i] = append(metrics[i], r)
			}
		}
		if len(aggs[i]) != len(aggs[0]) {
			return nil, fmt.Errorf("telemetry: shard %d has %d aggregate samples, shard 0 has %d",
				i, len(aggs[i]), len(aggs[0]))
		}
		if len(metrics[i]) != len(metrics[0]) {
			return nil, fmt.Errorf("telemetry: shard %d has %d metric records, shard 0 has %d",
				i, len(metrics[i]), len(metrics[0]))
		}
	}

	n := float64(len(shards))
	for j, a0 := range aggs[0] {
		m := Record{Kind: KindAgg, T: a0.T, Node: -1}
		for i := range shards {
			a := aggs[i][j]
			if a.T != a0.T {
				return nil, fmt.Errorf("telemetry: shard %d sample %d at t=%d, shard 0 at t=%d",
					i, j, a.T, a0.T)
			}
			m.ThroughputBps += a.ThroughputBps
			m.CumThroughputBps += a.CumThroughputBps
			m.CollisionRatio += a.CollisionRatio
			m.Jain += a.Jain
		}
		m.ThroughputBps /= n
		m.CumThroughputBps /= n
		m.CollisionRatio /= n
		m.Jain /= n
		if err := out.WriteRecord(m); err != nil {
			return nil, err
		}
	}

	for j, m0 := range metrics[0] {
		m := m0
		for i := 1; i < len(shards); i++ {
			r := metrics[i][j]
			if r.Kind != m0.Kind || r.Name != m0.Name {
				return nil, fmt.Errorf("telemetry: shard %d metric %d is %s %q, shard 0 has %s %q",
					i, j, r.Kind, r.Name, m0.Kind, m0.Name)
			}
			switch m0.Kind {
			case KindCounter:
				m.Count += r.Count
			case KindHist:
				if err := mergeHistRecord(&m, r); err != nil {
					return nil, fmt.Errorf("telemetry: shard %d metric %q: %w", i, r.Name, err)
				}
			}
		}
		if err := out.WriteRecord(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compatibleHeaders checks that two shard headers describe the same
// scenario shape.
func compatibleHeaders(a, b Header) error {
	switch {
	case a.Format != b.Format:
		return fmt.Errorf("format %q != %q", b.Format, a.Format)
	case a.Scheme != b.Scheme:
		return fmt.Errorf("scheme %q != %q", b.Scheme, a.Scheme)
	case a.Nodes != b.Nodes || a.InnerNodes != b.InnerNodes:
		return fmt.Errorf("topology %d/%d nodes != %d/%d", b.InnerNodes, b.Nodes, a.InnerNodes, a.Nodes)
	case a.IntervalNs != b.IntervalNs:
		return fmt.Errorf("interval %dns != %dns", b.IntervalNs, a.IntervalNs)
	case a.DurationNs != b.DurationNs:
		return fmt.Errorf("duration %dns != %dns", b.DurationNs, a.DurationNs)
	}
	return nil
}

// mergeHistRecord folds histogram record r into m (same bucket layout
// required).
func mergeHistRecord(m *Record, r Record) error {
	if len(m.Bounds) != len(r.Bounds) || len(m.Counts) != len(r.Counts) {
		return fmt.Errorf("histogram layouts differ (%d vs %d buckets)", len(m.Bounds), len(r.Bounds))
	}
	for i := range m.Bounds {
		if m.Bounds[i] != r.Bounds[i] {
			return fmt.Errorf("histogram bound %d differs (%v vs %v)", i, m.Bounds[i], r.Bounds[i])
		}
	}
	// Copy before adding: m.Counts aliases shard 0's record.
	counts := append([]int64(nil), m.Counts...)
	for i := range counts {
		counts[i] += r.Counts[i]
	}
	m.Counts = counts
	m.Count += r.Count
	m.Sum += r.Sum
	return nil
}
