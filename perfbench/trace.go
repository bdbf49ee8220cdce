package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op share Op; Parent is the
// index of the enclosing span, -1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// spanCtx is the position in the span tree that a call nests under.
type spanCtx struct {
	t      *tracer
	parent int
	op     int
}

// begin opens a child span of c and returns the context for its own
// children.
func (c spanCtx) begin(name string) spanCtx {
	if c.t == nil {
		return c
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.spans = append(c.t.spans, span{
		Name: name, Start: int64(time.Since(c.t.base)), Parent: c.parent, Op: c.op,
	})
	return spanCtx{t: c.t, parent: len(c.t.spans) - 1, op: c.op}
}

// end closes the span that begin opened.
func (c spanCtx) end() {
	if c.t == nil {
		return
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.spans[c.parent].End = int64(time.Since(c.t.base))
}

// selfTime is the aggregate self time of the spans sharing one name.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part covered by its children. Children of one
// span are sequential calls, so their durations do not overlap.
func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]selfTime)
	for i, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-child[i]) / 1e6
		out[s.Name] = st
	}
	return out
}

// write saves every span as one JSON array in the order the spans were
// opened; Parent indexes into that array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
