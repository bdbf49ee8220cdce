package telemetry

import (
	"fmt"

	"repro/internal/des"
)

// metricKind tags a registry entry.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindHistogram
)

// entry is one registered metric.
type entry struct {
	name string
	kind metricKind
	c    *Counter
	h    *Histogram
}

// Registry holds a run's named metrics. Registration order is
// remembered and is the export order, so two runs of the same scenario
// emit metric records in the same sequence. A nil *Registry is the
// disabled state: every lookup returns a nil metric, which in turn
// no-ops on every method.
type Registry struct {
	order  []entry
	byName map[string]int // index into order
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int, 16)}
}

// Counter registers (or returns the already-registered) counter under
// name. Registering a name previously used by a different metric kind
// is an error.
func (r *Registry) Counter(name string) (*Counter, error) {
	if r == nil {
		return nil, nil
	}
	if i, ok := r.byName[name]; ok {
		if r.order[i].kind != kindCounter {
			return nil, fmt.Errorf("telemetry: metric %q already registered with a different kind", name)
		}
		return r.order[i].c, nil
	}
	c := &Counter{}
	r.byName[name] = len(r.order)
	r.order = append(r.order, entry{name: name, kind: kindCounter, c: c})
	return c, nil
}

// Histogram registers (or returns) the histogram under name. A repeat
// registration must use identical bounds.
func (r *Registry) Histogram(name string, bounds []float64) (*Histogram, error) {
	if r == nil {
		return nil, nil
	}
	if i, ok := r.byName[name]; ok {
		e := r.order[i]
		if e.kind != kindHistogram {
			return nil, fmt.Errorf("telemetry: metric %q already registered with a different kind", name)
		}
		existing := e.h.Snapshot().Bounds()
		if len(existing) != len(bounds) {
			return nil, fmt.Errorf("telemetry: histogram %q re-registered with different bounds", name)
		}
		for j := range bounds {
			if existing[j] != bounds[j] {
				return nil, fmt.Errorf("telemetry: histogram %q re-registered with different bounds", name)
			}
		}
		return e.h, nil
	}
	h, err := NewHistogram(bounds)
	if err != nil {
		return nil, fmt.Errorf("telemetry: histogram %q: %w", name, err)
	}
	r.byName[name] = len(r.order)
	r.order = append(r.order, entry{name: name, kind: kindHistogram, h: h})
	return h, nil
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.order))
	for i, e := range r.order {
		names[i] = e.name
	}
	return names
}

// WriteMetrics emits one record per registered metric to sink, in
// registration order, stamped with sim time t.
func (r *Registry) WriteMetrics(sink Sink, t des.Time) error {
	if r == nil {
		return nil
	}
	for _, e := range r.order {
		rec := Record{T: int64(t), Node: -1, Name: e.name}
		switch e.kind {
		case kindCounter:
			rec.Kind = KindCounter
			rec.Count = e.c.Value()
		case kindHistogram:
			rec.Kind = KindHist
			h := e.h.Snapshot()
			rec.Count = h.Count()
			rec.Sum = h.Sum()
			rec.Bounds = h.Bounds()
			rec.Counts = h.Counts()
		}
		if err := sink.WriteRecord(rec); err != nil {
			return err
		}
	}
	return nil
}
