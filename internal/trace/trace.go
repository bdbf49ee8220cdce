// Package trace records structured protocol events from a simulation
// run: transmissions, receptions, timeouts, backoff draws, successes and
// drops. A Recorder keeps a bounded ring of events that renders as a
// text timeline (netsim -trace) — the debugging view GloMoSim users get
// from its trace files.
package trace

import (
	"fmt"
	"io"

	"repro/internal/des"
	"repro/internal/phy"
)

// Kind classifies a protocol event.
type Kind int

// Event kinds emitted by the MAC layer.
const (
	TxStart   Kind = iota + 1 // frame handed to the radio
	RxFrame                   // frame addressed to this node decoded
	Overheard                 // frame for someone else decoded (NAV set)
	RxError                   // garbled energy observed
	Backoff                   // backoff counter drawn
	Timeout                   // CTS or ACK timeout fired
	Success                   // four-way handshake completed
	Drop                      // packet abandoned after retry limit
)

var kindNames = map[Kind]string{
	TxStart:   "tx",
	RxFrame:   "rx",
	Overheard: "overheard",
	RxError:   "rx-error",
	Backoff:   "backoff",
	Timeout:   "timeout",
	Success:   "success",
	Drop:      "drop",
}

// String names the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded protocol event.
type Event struct {
	At    des.Time
	Node  phy.NodeID
	Kind  Kind
	Frame phy.FrameType // zero when not frame-related
	Peer  phy.NodeID    // counterpart node, -1 when not applicable
	Note  string        // free-form detail ("cw=63", "retry 2", ...)
}

// String renders the event as one timeline line.
func (e Event) String() string {
	s := fmt.Sprintf("%12v node %3d %-9s", e.At, e.Node, e.Kind)
	if e.Frame != 0 {
		s += " " + e.Frame.String()
	}
	if e.Peer >= 0 {
		s += fmt.Sprintf(" peer %d", e.Peer)
	}
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

// Tracer accepts protocol events. Record must be cheap; it runs on the
// simulation's hot path.
type Tracer interface {
	Record(ev Event)
}

// Recorder is a bounded in-memory Tracer. The zero value is not usable;
// create with NewRecorder.
type Recorder struct {
	ring  []Event
	next  int
	count uint64
	full  bool
}

var _ Tracer = (*Recorder)(nil)

// NewRecorder creates a Recorder holding the most recent cap events
// (minimum 1).
func NewRecorder(cap int) *Recorder {
	if cap < 1 {
		cap = 1
	}
	return &Recorder{ring: make([]Event, cap)}
}

// Record stores the event, evicting the oldest when full.
func (r *Recorder) Record(ev Event) {
	r.ring[r.next] = ev
	r.next++
	r.count++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
}

// Total returns the number of events ever recorded (including evicted).
func (r *Recorder) Total() uint64 { return r.count }

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.ring[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// WriteText renders the retained events one per line.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintln(w, ev); err != nil {
			return err
		}
	}
	return nil
}
