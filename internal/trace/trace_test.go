package trace

import (
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/phy"
)

func ev(at des.Time, node phy.NodeID, kind Kind) Event {
	return Event{At: at, Node: node, Kind: kind, Peer: -1}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{TxStart, "tx"}, {RxFrame, "rx"}, {Overheard, "overheard"},
		{RxError, "rx-error"}, {Backoff, "backoff"}, {Timeout, "timeout"},
		{Success, "success"}, {Drop, "drop"}, {Kind(42), "Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		At: 1500 * des.Microsecond, Node: 3, Kind: TxStart,
		Frame: phy.RTS, Peer: 7, Note: "cw=31",
	}
	s := e.String()
	for _, want := range []string{"node   3", "tx", "RTS", "peer 7", "(cw=31)"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	// No frame / no peer / no note: those segments disappear.
	bare := ev(0, 1, Backoff).String()
	if strings.Contains(bare, "peer") || strings.Contains(bare, "(") {
		t.Errorf("bare event string %q has spurious segments", bare)
	}
}

func TestRecorderOrder(t *testing.T) {
	r := NewRecorder(10)
	for i := 0; i < 5; i++ {
		r.Record(ev(des.Time(i), 0, TxStart))
	}
	events := r.Events()
	if len(events) != 5 {
		t.Fatalf("len = %d, want 5", len(events))
	}
	for i, e := range events {
		if e.At != des.Time(i) {
			t.Fatalf("order broken: %v", events)
		}
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
}

func TestRecorderEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 7; i++ {
		r.Record(ev(des.Time(i), 0, TxStart))
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("len = %d, want 3 (capacity)", len(events))
	}
	// Oldest retained is 4: 4, 5, 6.
	for i, want := range []des.Time{4, 5, 6} {
		if events[i].At != want {
			t.Fatalf("ring contents = %v", events)
		}
	}
	if r.Total() != 7 {
		t.Errorf("Total = %d, want 7 (including evicted)", r.Total())
	}
}

func TestRecorderMinimumCapacity(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(1, 0, Drop))
	r.Record(ev(2, 0, Drop))
	events := r.Events()
	if len(events) != 1 || events[0].At != 2 {
		t.Errorf("cap-0 recorder should keep exactly the last event: %v", events)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRecorder(4)
	r.Record(ev(1, 0, TxStart))
	r.Record(ev(2, 1, Success))
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Errorf("WriteText lines = %d, want 2", len(lines))
	}
}

// TestRecorderWrapOrdering: after the ring wraps, Events (and therefore
// every writer built on it) must return the retained events oldest
// first — exactly the tail of the recorded sequence.
func TestRecorderWrapOrdering(t *testing.T) {
	const capacity, total = 4, 11
	r := NewRecorder(capacity)
	for i := 0; i < total; i++ {
		r.Record(ev(des.Time(i), phy.NodeID(i%3), TxStart))
	}
	events := r.Events()
	if len(events) != capacity {
		t.Fatalf("len = %d, want %d", len(events), capacity)
	}
	for i, e := range events {
		want := des.Time(total - capacity + i)
		if e.At != want {
			t.Fatalf("event %d has At=%v, want %v (events must come out oldest-first after wrap): %v",
				i, e.At, want, events)
		}
	}
	// A ring that is exactly full (next == 0) is the wrap edge case.
	r2 := NewRecorder(capacity)
	for i := 0; i < 2*capacity; i++ {
		r2.Record(ev(des.Time(i), 0, TxStart))
	}
	for i, e := range r2.Events() {
		if want := des.Time(capacity + i); e.At != want {
			t.Fatalf("exactly-full ring out of order at %d: got %v want %v", i, e.At, want)
		}
	}
}
