package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleExport() (*Buffer, error) {
	b := NewBuffer()
	if err := b.WriteHeader(Header{
		Scenario: "t", Scheme: "drts-dcts", Seed: 7,
		Nodes: 45, InnerNodes: 5,
		IntervalNs: 10_000_000, DurationNs: 30_000_000,
		Metrics: []string{"a"},
	}); err != nil {
		return nil, err
	}
	recs := []Record{
		{Kind: KindNode, T: 10_000_000, Node: 0, ThroughputBps: 1000, CumThroughputBps: 1000, BitsAcked: 10},
		{Kind: KindAgg, T: 10_000_000, Node: -1, ThroughputBps: 1000, CumThroughputBps: 1000, CollisionRatio: 0.25, Jain: 1},
		{Kind: KindCounter, T: 30_000_000, Node: 0, Name: "a", Count: 5},
	}
	for _, r := range recs {
		if err := b.WriteRecord(r); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func TestWriterBufferReadAllRoundTrip(t *testing.T) {
	b, err := sampleExport()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := NewWriter(&out)
	if err := b.WriteTo(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != 4 {
		t.Fatalf("export has %d lines, want 4:\n%s", got, out.String())
	}

	// Byte determinism: a second serialization is identical.
	var out2 bytes.Buffer
	w2 := NewWriter(&out2)
	if err := b.WriteTo(w2); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Error("two serializations of the same export differ")
	}

	h, recs, err := ReadAll(&out)
	if err != nil {
		t.Fatal(err)
	}
	if h.Format != FormatV1 {
		t.Errorf("Format = %q", h.Format)
	}
	if h.Seed != 7 || h.Nodes != 45 || h.InnerNodes != 5 || h.IntervalNs != 10_000_000 {
		t.Errorf("header round trip = %+v", h)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[1].Kind != KindAgg || recs[1].CollisionRatio != 0.25 || recs[1].Jain != 1 || recs[1].Node != -1 {
		t.Errorf("agg record round trip = %+v", recs[1])
	}
	if recs[2].Name != "a" || recs[2].Count != 5 {
		t.Errorf("counter record round trip = %+v", recs[2])
	}
}

func TestReadAllRejectsBadInput(t *testing.T) {
	if _, _, err := ReadAll(strings.NewReader("")); err == nil {
		t.Error("empty export: want error")
	}
	if _, _, err := ReadAll(strings.NewReader(`{"format":"other/v9"}` + "\n")); err == nil {
		t.Error("unknown format: want error")
	}
	if _, _, err := ReadAll(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header: want error")
	}
}

func shardBuffer(t *testing.T, seed int64, tp, cum, coll, jain float64, count int64, counts []int64) *Buffer {
	t.Helper()
	b := NewBuffer()
	if err := b.WriteHeader(Header{
		Format: FormatV1, Scheme: "drts-dcts", Seed: seed,
		Nodes: 45, InnerNodes: 5,
		IntervalNs: 10_000_000, DurationNs: 20_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindNode, T: 10_000_000, Node: 0, ThroughputBps: 999},
		{Kind: KindAgg, T: 10_000_000, Node: -1, ThroughputBps: tp, CumThroughputBps: cum, CollisionRatio: coll, Jain: jain},
		{Kind: KindAgg, T: 20_000_000, Node: -1, ThroughputBps: tp * 2, CumThroughputBps: cum * 2, CollisionRatio: coll, Jain: jain},
		{Kind: KindCounter, T: 20_000_000, Node: 0, Name: "phy/tx-frames", Count: count},
		{Kind: KindCounter, T: 20_000_000, Node: 0, Name: "phy/rx-frames", Count: 2 * count},
		{Kind: KindHist, T: 20_000_000, Node: 0, Name: "mac/backoff-slots",
			Bounds: []float64{1, 2}, Counts: counts, Count: counts[0] + counts[1] + counts[2], Sum: float64(count)},
	}
	for _, r := range recs {
		if err := b.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestMergeHandValues(t *testing.T) {
	s0 := shardBuffer(t, 7, 1000, 1000, 0.25, 0.9, 10, []int64{1, 2, 3})
	s1 := shardBuffer(t, 8, 3000, 2000, 0.75, 0.7, 30, []int64{4, 5, 6})
	m, err := Merge([]*Buffer{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Header()
	if h.Shards != 2 || h.Seed != 7 {
		t.Errorf("merged header = %+v", h)
	}
	recs := m.Records()
	// 2 agg samples + 3 metric records; node records dropped.
	if len(recs) != 5 {
		t.Fatalf("got %d merged records, want 5: %+v", len(recs), recs)
	}
	a := recs[0]
	if a.Kind != KindAgg || a.T != 10_000_000 || a.ThroughputBps != 2000 || a.CumThroughputBps != 1500 {
		t.Errorf("merged agg[0] = %+v", a)
	}
	if a.CollisionRatio != 0.5 || a.Jain != 0.8 {
		t.Errorf("merged agg[0] ratios = %+v", a)
	}
	if recs[1].T != 20_000_000 || recs[1].ThroughputBps != 4000 {
		t.Errorf("merged agg[1] = %+v", recs[1])
	}
	if c := recs[2]; c.Kind != KindCounter || c.Count != 40 {
		t.Errorf("merged counter = %+v", c)
	}
	if c := recs[3]; c.Kind != KindCounter || c.Name != "phy/rx-frames" || c.Count != 80 {
		t.Errorf("merged second counter = %+v", c)
	}
	hr := recs[4]
	if hr.Kind != KindHist || hr.Count != 21 || hr.Sum != 40 {
		t.Errorf("merged hist = %+v", hr)
	}
	if hr.Counts[0] != 5 || hr.Counts[1] != 7 || hr.Counts[2] != 9 {
		t.Errorf("merged hist counts = %v", hr.Counts)
	}
	// Shard 0's record must not have been mutated by the merge.
	if c0 := s0.Records()[5].Counts; c0[0] != 1 || c0[1] != 2 || c0[2] != 3 {
		t.Errorf("merge mutated shard 0 counts: %v", c0)
	}
}

func TestMergeSingleShardIsIdentityOnAggregates(t *testing.T) {
	s0 := shardBuffer(t, 7, 1000, 1000, 0.2, 0.9, 10, []int64{1, 2, 3})
	m, err := Merge([]*Buffer{s0})
	if err != nil {
		t.Fatal(err)
	}
	recs := m.Records()
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	if recs[0].ThroughputBps != 1000 || recs[0].Jain != 0.9 {
		t.Errorf("single-shard merge changed agg values: %+v", recs[0])
	}
}

func TestMergeRejectsMismatch(t *testing.T) {
	if _, err := Merge(nil); err == nil {
		t.Error("empty merge: want error")
	}
	s0 := shardBuffer(t, 7, 1000, 1000, 0.2, 0.9, 10, []int64{1, 2, 3})
	s1 := shardBuffer(t, 8, 1000, 1000, 0.2, 0.9, 10, []int64{1, 2, 3})
	s1.header.IntervalNs = 5_000_000
	if _, err := Merge([]*Buffer{s0, s1}); err == nil {
		t.Error("interval mismatch: want error")
	}
	s2 := shardBuffer(t, 8, 1000, 1000, 0.2, 0.9, 10, []int64{1, 2, 3})
	s2.records = s2.records[:3] // drop a metric record
	if _, err := Merge([]*Buffer{s0, s2}); err == nil {
		t.Error("metric count mismatch: want error")
	}
	s3 := shardBuffer(t, 8, 1000, 1000, 0.2, 0.9, 10, []int64{1, 2, 3})
	s3.records[5].Bounds = []float64{1, 3}
	if _, err := Merge([]*Buffer{s0, s3}); err == nil {
		t.Error("histogram bounds mismatch: want error")
	}
}

// TestStreamWriterFlushesPerLine pins the live-tail contract cmd/simd
// leans on: every header and record is on the wire (and flushed) the
// moment it is written, the bytes equal a buffered Writer's output for
// the same sequence, and Wrote() flips exactly when the first line goes
// out.
func TestStreamWriterFlushesPerLine(t *testing.T) {
	var streamed bytes.Buffer
	flushes := 0
	sw := NewStreamWriter(&streamed, func() error { flushes++; return nil })
	if sw.Wrote() {
		t.Error("Wrote() true before any line")
	}

	h := Header{Seed: 9, Nodes: 18, InnerNodes: 2}
	recs := []Record{
		{Kind: KindNode, T: 10, Node: 0, ThroughputBps: 1.5},
		{Kind: KindAgg, T: 10, Node: -1, Jain: 1},
	}
	if err := sw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if !sw.Wrote() {
		t.Error("Wrote() false after the header line")
	}
	if flushes != 1 {
		t.Errorf("flushes after header = %d, want 1", flushes)
	}
	afterHeader := streamed.Len()
	if afterHeader == 0 {
		t.Error("header not on the wire before any record")
	}
	for _, r := range recs {
		if err := sw.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if flushes != 1+len(recs) {
		t.Errorf("flushes = %d, want one per line (%d)", flushes, 1+len(recs))
	}

	var buffered bytes.Buffer
	w := NewWriter(&buffered)
	if err := w.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		t.Errorf("streamed bytes differ from buffered bytes:\n%q\nvs\n%q", streamed.Bytes(), buffered.Bytes())
	}

	// A nil flush hook means "no flushing needed", not a crash.
	nw := NewStreamWriter(&bytes.Buffer{}, nil)
	if err := nw.WriteHeader(Header{}); err != nil {
		t.Fatal(err)
	}
	if !nw.Wrote() {
		t.Error("nil-flush writer did not record the write")
	}
}

// FuzzTelemetryReadAll: ReadAll must never panic, and an export it
// accepts, written back through Writer and read again, must decode to an
// equal header and equal records. Empty and absent slices count as
// equal, because Writer omits empty ones. Plain `go test` runs the seeds:
// the experiments package's telemetry golden and cuts of it. Explore
// further with the command below; the golden seed is 17 KB, and the
// default one-minute minimization of each new input would stall the
// workers.
//
//	go test ./internal/telemetry -run '^$' -fuzz FuzzTelemetryReadAll -fuzzminimizetime 2s
func FuzzTelemetryReadAll(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden_telemetry_drtsdcts_n3_b90.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:bytes.IndexByte(golden, '\n')+1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.WriteRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		h2, recs2, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-read of a written export: %v\n%s", err, buf.Bytes())
		}
		h.Metrics, h2.Metrics = nilIfEmpty(h.Metrics), nilIfEmpty(h2.Metrics)
		if !reflect.DeepEqual(h, h2) {
			t.Fatalf("header changed across the round trip:\n%+v\n%+v", h, h2)
		}
		if len(recs) != len(recs2) {
			t.Fatalf("%d records read back as %d", len(recs), len(recs2))
		}
		for i := range recs {
			a, b := recs[i], recs2[i]
			a.Bounds, b.Bounds = nilIfEmpty(a.Bounds), nilIfEmpty(b.Bounds)
			a.Counts, b.Counts = nilIfEmpty(a.Counts), nilIfEmpty(b.Counts)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("record %d changed across the round trip:\n%+v\n%+v", i, a, b)
			}
		}
	})
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
