// Command simtrace analyzes the telemetry exports a simulation run
// leaves behind (repro-telemetry/v1 JSONL, see internal/telemetry).
//
//	simtrace summarize run.jsonl
//	simtrace summarize -window 5 -tol 0.02 run.jsonl
//	simtrace filter -node 2 -kind node run.jsonl > node2.jsonl
//	simtrace filter -from 100ms -to 200ms trace.jsonl
//
// The input file may be "-" (or omitted) to read the stream from
// stdin, so exports pipe straight out of a live source:
//
//	netsim -scheme drts-dcts -n 5 -beam 60 -telemetry - | simtrace summarize -
//	curl -s -X POST --data-binary @run.json 'http://127.0.0.1:8080/v1/runs?telemetry=1' | simtrace summarize -
//
// summarize reads a telemetry export and reports the end-of-run
// aggregates — bit-identical to the experiment's own output, because
// the final record carries the very floats the simulator computed — and
// detects warm-up convergence with a sliding-window test over the
// cumulative-throughput trajectory.
//
// filter passes through the lines matching the node/kind/time-window
// predicates, preserving the original bytes, line endings included (a
// filtered telemetry file keeps its header and remains a valid export).
// It reads any JSONL whose records carry "kind", "t" and "node" fields.
// Only the first non-empty line can be a header: one whose "format" is
// a non-empty string. Every later line is a record.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: simtrace <summarize|filter> [flags] [file]")
	}
	switch args[0] {
	case "summarize":
		return summarizeCmd(args[1:], out)
	case "filter":
		return filterCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want summarize or filter)", args[0])
	}
}

// open returns the input stream: the named file, or stdin for "" / "-".
func open(fs *flag.FlagSet) (io.ReadCloser, error) {
	switch fs.NArg() {
	case 0:
		return io.NopCloser(os.Stdin), nil
	case 1:
		if fs.Arg(0) == "-" {
			return io.NopCloser(os.Stdin), nil
		}
		return os.Open(fs.Arg(0))
	default:
		return nil, fmt.Errorf("expected at most one input file, got %d", fs.NArg())
	}
}

// probe is the minimal shape of a record line: enough to filter it.
type probe struct {
	Kind string `json:"kind"`
	T    int64  `json:"t"`
	Node *int   `json:"node"`
}

// telemetryHeader reports whether line is a telemetry header as
// telemetry.ReadAll reads one: a JSON object whose "format" is a
// non-empty string.
func telemetryHeader(line []byte) bool {
	var h struct {
		Format string `json:"format"`
	}
	return json.Unmarshal(line, &h) == nil && h.Format != ""
}

// scanLines iterates the non-empty lines of r, reporting 1-based line
// numbers. Each line keeps its terminator ("\n" or "\r\n"; none on a
// last line without one), so filter can emit the input bytes unchanged.
// The buffer limit matches telemetry.ReadAll.
func scanLines(r io.Reader, fn func(line []byte, n int) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if err := fn(sc.Bytes(), n); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ---- summarize ----

func summarizeCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simtrace summarize", flag.ContinueOnError)
	window := fs.Int("window", 5, "sliding-window width (samples) for warm-up detection")
	tol := fs.Float64("tol", 0.05, "relative spread threshold for warm-up convergence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := open(fs)
	if err != nil {
		return err
	}
	defer in.Close()
	h, recs, err := telemetry.ReadAll(in)
	if err != nil {
		return err
	}
	s, err := summarize(h, recs, *window, *tol)
	if err != nil {
		return err
	}
	name := h.Scenario
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(out, "telemetry export %s: scenario %s scheme %s seed %d\n", h.Format, name, h.Scheme, h.Seed)
	fmt.Fprintf(out, "  %d nodes (%d measured), interval %v, duration %v",
		h.Nodes, h.InnerNodes, time.Duration(h.IntervalNs), time.Duration(h.DurationNs))
	if h.Shards > 1 {
		fmt.Fprintf(out, ", %d shards merged", h.Shards)
	}
	fmt.Fprintf(out, "\n  %d aggregate samples\n", s.Samples)
	fmt.Fprintf(out, "  mean inner throughput  %v bps\n", s.MeanCumThroughputBps)
	fmt.Fprintf(out, "  mean collision ratio   %v\n", s.MeanCollisionRatio)
	fmt.Fprintf(out, "  Jain fairness          %v\n", s.Jain)
	if s.ConvergedAt >= 0 {
		fmt.Fprintf(out, "  warm-up converged at   %v (window %d, tol %g)\n",
			time.Duration(s.ConvergedAt), s.Window, s.Tol)
	} else {
		fmt.Fprintf(out, "  warm-up NOT converged  (window %d, tol %g)\n", s.Window, s.Tol)
	}
	for _, m := range s.Metrics {
		switch m.Kind {
		case telemetry.KindCounter:
			fmt.Fprintf(out, "  counter %-18s %d\n", m.Name, m.Count)
		case telemetry.KindHist:
			mean := 0.0
			if m.Count > 0 {
				mean = m.Sum / float64(m.Count)
			}
			fmt.Fprintf(out, "  hist    %-18s n=%d mean=%.1f\n", m.Name, m.Count, mean)
		}
	}
	return nil
}

// telemetrySummary is the computed view of one export. The final-record
// floats are carried through unchanged, so they are bit-identical to the
// run's own Result aggregates.
type telemetrySummary struct {
	Header  telemetry.Header
	Samples int // aggregate samples (= probe ticks incl. final flush)

	// End-of-run aggregates, straight from the last "agg" record.
	MeanCumThroughputBps float64
	MeanCollisionRatio   float64
	Jain                 float64

	// Warm-up detection over the aggregate cumulative-throughput
	// trajectory: ConvergedAt is the sim time of the first sample ending
	// a window whose relative spread is within tolerance (-1 = never).
	ConvergedAt int64
	Window      int
	Tol         float64

	Metrics []telemetry.Record // end-of-run metric records, export order
}

// summarize reduces a parsed export. Split from the printing so tests
// can assert bit-equality against a live simulation.
func summarize(h telemetry.Header, recs []telemetry.Record, window int, tol float64) (telemetrySummary, error) {
	s := telemetrySummary{Header: h, ConvergedAt: -1, Window: window, Tol: tol}
	var aggT []int64
	var aggCum []float64
	for _, r := range recs {
		switch r.Kind {
		case telemetry.KindAgg:
			s.Samples++
			s.MeanCumThroughputBps = r.CumThroughputBps
			s.MeanCollisionRatio = r.CollisionRatio
			s.Jain = r.Jain
			aggT = append(aggT, r.T)
			aggCum = append(aggCum, r.CumThroughputBps)
		case telemetry.KindCounter, telemetry.KindHist:
			s.Metrics = append(s.Metrics, r)
		}
	}
	if s.Samples == 0 {
		return s, fmt.Errorf("export has no aggregate samples")
	}
	s.ConvergedAt = convergedAt(aggT, aggCum, window, tol)
	return s, nil
}

// convergedAt slides a window of size w over the trajectory and returns
// the time of the first sample whose trailing window has relative spread
// (max-min)/|mean| <= tol, or -1 when no window qualifies. This is the
// classic steady-state onset test: cumulative throughput stops moving
// once the warm-up transient has been averaged out.
func convergedAt(ts []int64, xs []float64, w int, tol float64) int64 {
	if w < 2 {
		w = 2
	}
	for i := w - 1; i < len(xs); i++ {
		lo, hi, sum := xs[i], xs[i], 0.0
		for _, x := range xs[i-w+1 : i+1] {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			sum += x
		}
		mean := sum / float64(w)
		if mean == 0 {
			continue
		}
		if (hi-lo)/abs(mean) <= tol {
			return ts[i]
		}
	}
	return -1
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ---- filter ----

func filterCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simtrace filter", flag.ContinueOnError)
	node := fs.Int("node", -1, "keep only records of this node (-1 = all)")
	kind := fs.String("kind", "", "keep only records of this kind (node/agg/counter/hist)")
	from := fs.Duration("from", 0, "keep only records at or after this sim time")
	to := fs.Duration("to", 0, "keep only records at or before this sim time (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := open(fs)
	if err != nil {
		return err
	}
	defer in.Close()

	bw := bufio.NewWriter(out)
	first := true
	err = scanLines(in, func(line []byte, n int) error {
		header := first && telemetryHeader(line)
		first = false
		if !header { // a header always passes; records are filtered
			var p probe
			if err := json.Unmarshal(line, &p); err != nil {
				return fmt.Errorf("parse line %d: %w", n, err)
			}
			if *kind != "" && p.Kind != *kind {
				return nil
			}
			if *node >= 0 && (p.Node == nil || *p.Node != *node) {
				return nil
			}
			if p.T < int64(*from) {
				return nil
			}
			if *to > 0 && p.T > int64(*to) {
				return nil
			}
		}
		// Emit the original bytes: filtering must not re-encode (and
		// thereby risk perturbing) the floats.
		_, err := bw.Write(line)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
