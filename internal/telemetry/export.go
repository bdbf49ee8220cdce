// Package telemetry is the simulator's export format for sampled
// series: a self-describing JSONL stream of a header and records, the
// sinks that write it (buffered, per-line streaming, in memory), the
// reader, and the merge of per-shard exports. The simulator owns what
// is sampled and when (internal/sim's collector); this package only
// carries it. Two properties are the contract:
//
//   - Deterministic. Two runs of the same scenario produce
//     byte-identical exports: records are written in the order the
//     simulation produces them, floats in their shortest round-trip
//     form, and Merge folds shards in shard order.
//   - Streaming. Records are written as they are produced; a long run
//     never buffers its full series (the in-memory Buffer sink exists
//     for tests and for shard merging, where the series is bounded).
package telemetry

// The export format is self-describing JSONL: the first line is a
// Header naming the format version, the scenario and the sampling
// parameters; every following line is one Record. Records are written
// as they are produced, so a long run streams to disk instead of
// buffering its series. encoding/json renders float64 in strconv's
// shortest round-trippable form, so the export is byte-deterministic
// and decoded values are bit-identical to the values the simulator
// computed — cmd/simtrace can reproduce end-of-run aggregates exactly.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// FormatV1 is the format tag written in every export header.
const FormatV1 = "repro-telemetry/v1"

// Record kinds.
const (
	// KindNode is a per-node sample: cumulative MAC counters plus the
	// instantaneous (per-window) and cumulative throughput of one
	// measured inner node.
	KindNode = "node"
	// KindAgg is a per-tick aggregate over the inner nodes, including
	// the Jain fairness trajectory.
	KindAgg = "agg"
	// KindCounter and KindHist are end-of-run metric records, one per
	// metric the run exports.
	KindCounter = "counter"
	KindHist    = "hist"
)

// Header is the first line of an export.
type Header struct {
	// Format is FormatV1.
	Format string `json:"format"`
	// Scenario is the scenario's display name (may be empty).
	Scenario string `json:"scenario,omitempty"`
	// Scheme is the collision-avoidance variant under test.
	Scheme string `json:"scheme,omitempty"`
	// Seed is the base random seed of the run (the base scenario's seed
	// for merged multi-shard exports).
	Seed int64 `json:"seed"`
	// Nodes and InnerNodes describe the topology: total stations and
	// measured inner stations.
	Nodes      int `json:"nodes"`
	InnerNodes int `json:"innerNodes"`
	// IntervalNs is the sampling period and DurationNs the measured
	// simulated time, both in nanoseconds.
	IntervalNs int64 `json:"intervalNs"`
	DurationNs int64 `json:"durationNs"`
	// Metrics lists the exported metric names in export order.
	Metrics []string `json:"metrics,omitempty"`
	// SampledNodes is the number of inner nodes emitting per-node
	// records when the scenario bounds series cardinality
	// (telemetry.maxNodes); 0 means every inner node is exported.
	SampledNodes int `json:"sampledNodes,omitempty"`
	// Shards is the number of merged shards (0 or 1 for a single run).
	Shards int `json:"shards,omitempty"`
}

// Record is one exported line. Kind selects which fields are
// meaningful; unused numeric fields are omitted from the JSON when
// zero.
type Record struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// T is sim time in nanoseconds since the start of measurement.
	T int64 `json:"t"`
	// Node is the station index for KindNode records, -1 otherwise.
	Node int `json:"node"`

	// ThroughputBps is the acknowledged goodput over the sample window
	// just ended (the instantaneous trajectory); CumThroughputBps is
	// the goodput averaged from the start of measurement. For KindAgg
	// both are means over the inner nodes.
	ThroughputBps    float64 `json:"throughputBps,omitempty"`
	CumThroughputBps float64 `json:"cumThroughputBps,omitempty"`
	// CollisionRatio is the cumulative ACK-timeout fraction of
	// data-phase handshakes (per node, or the inner-node mean).
	CollisionRatio float64 `json:"collisionRatio,omitempty"`
	// Jain is the fairness index over the inner nodes' cumulative
	// throughput (KindAgg only).
	Jain float64 `json:"jain,omitempty"`
	// Cumulative MAC counters (KindNode only).
	BitsAcked   int64 `json:"bitsAcked,omitempty"`
	Successes   int64 `json:"successes,omitempty"`
	ACKTimeouts int64 `json:"ackTimeouts,omitempty"`
	Drops       int64 `json:"drops,omitempty"`

	// Name identifies metric records (KindCounter/KindHist).
	Name string `json:"name,omitempty"`
	// Count and Sum carry counter values and histogram totals.
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	// Bounds/Counts carry the histogram layout (Counts has one extra
	// overflow entry).
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
}

// Sink consumes an export: exactly one header, then records in order.
type Sink interface {
	WriteHeader(h Header) error
	WriteRecord(r Record) error
}

// Writer streams an export to an io.Writer as JSONL. Create with
// NewWriter; call Flush (or Close) once the run completes.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

var _ Sink = (*Writer)(nil)

// NewWriter wraps w in a buffered JSONL export writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// WriteHeader writes the header line.
func (w *Writer) WriteHeader(h Header) error {
	if h.Format == "" {
		h.Format = FormatV1
	}
	return w.enc.Encode(h)
}

// WriteRecord writes one record line.
func (w *Writer) WriteRecord(r Record) error {
	return w.enc.Encode(r)
}

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error {
	return w.bw.Flush()
}

// StreamWriter is a Sink that forwards each line the moment it is
// produced: every header and record is encoded straight to w and then
// pushed through the flush hook. It is the live-tail counterpart of
// Writer (which buffers until Flush): cmd/simd uses it to stream an
// export over a chunked HTTP response while the simulation is still
// running, with flush set to the connection's http.Flusher.
type StreamWriter struct {
	enc   *json.Encoder
	flush func() error
	wrote bool
}

var _ Sink = (*StreamWriter)(nil)

// NewStreamWriter builds a per-record-flushing sink over w. flush is
// called after every line; nil means w needs no flushing.
func NewStreamWriter(w io.Writer, flush func() error) *StreamWriter {
	return &StreamWriter{enc: json.NewEncoder(w), flush: flush}
}

// Wrote reports whether any line reached w, so a caller layering
// protocol errors on top (an HTTP handler choosing a status code) knows
// whether the stream has already started.
func (s *StreamWriter) Wrote() bool { return s.wrote }

func (s *StreamWriter) emit(v any) error {
	if err := s.enc.Encode(v); err != nil {
		return err
	}
	s.wrote = true
	if s.flush != nil {
		return s.flush()
	}
	return nil
}

// WriteHeader writes and flushes the header line.
func (s *StreamWriter) WriteHeader(h Header) error {
	if h.Format == "" {
		h.Format = FormatV1
	}
	return s.emit(h)
}

// WriteRecord writes and flushes one record line.
func (s *StreamWriter) WriteRecord(r Record) error {
	return s.emit(r)
}

// Buffer is an in-memory Sink, used by tests and by the sharded runner
// (which merges per-shard buffers before streaming the aggregate).
type Buffer struct {
	header    Header
	hasHeader bool
	records   []Record
}

var _ Sink = (*Buffer)(nil)

// NewBuffer creates an empty buffer sink.
func NewBuffer() *Buffer { return &Buffer{} }

// WriteHeader retains the header.
func (b *Buffer) WriteHeader(h Header) error {
	if h.Format == "" {
		h.Format = FormatV1
	}
	b.header = h
	b.hasHeader = true
	return nil
}

// WriteRecord retains the record.
func (b *Buffer) WriteRecord(r Record) error {
	b.records = append(b.records, r)
	return nil
}

// Header returns the retained header (zero value until one is written).
func (b *Buffer) Header() Header { return b.header }

// Records returns the retained records; the caller must not modify the
// slice.
func (b *Buffer) Records() []Record { return b.records }

// WriteTo replays the buffered export into another sink.
func (b *Buffer) WriteTo(sink Sink) error {
	if b.hasHeader {
		if err := sink.WriteHeader(b.header); err != nil {
			return err
		}
	}
	for _, r := range b.records {
		if err := sink.WriteRecord(r); err != nil {
			return err
		}
	}
	return nil
}

// Discard is a Sink that drops everything (telemetry enabled for its
// metric side effects only).
type Discard struct{}

var _ Sink = Discard{}

// WriteHeader drops the header.
func (Discard) WriteHeader(Header) error { return nil }

// WriteRecord drops the record.
func (Discard) WriteRecord(Record) error { return nil }

// ReadAll parses a JSONL export: one header line followed by records.
func ReadAll(r io.Reader) (Header, []Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var h Header
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return h, nil, err
		}
		return h, nil, fmt.Errorf("telemetry: empty export")
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return h, nil, fmt.Errorf("telemetry: parse header: %w", err)
	}
	if h.Format != FormatV1 {
		return h, nil, fmt.Errorf("telemetry: unknown format %q (want %q)", h.Format, FormatV1)
	}
	var recs []Record
	for i := 2; sc.Scan(); i++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return h, nil, fmt.Errorf("telemetry: parse line %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return h, nil, err
	}
	return h, recs, nil
}
