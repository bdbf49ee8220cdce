package neighbor

import (
	"errors"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/phy"
)

func newChannel(t *testing.T, positions ...geom.Point) (*des.Scheduler, *phy.Channel) {
	t.Helper()
	sched := des.New(5)
	ch, err := phy.NewChannel(sched, phy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range positions {
		ch.AddRadio(pos, nil)
	}
	return sched, ch
}

func TestTableBasics(t *testing.T) {
	tab := NewTable(3, geom.Point{X: 0, Y: 0})
	if tab.Self() != 3 {
		t.Errorf("Self = %v, want 3", tab.Self())
	}
	if tab.Len() != 0 {
		t.Errorf("new table Len = %d, want 0", tab.Len())
	}
	tab.Learn(1, geom.Point{X: 1, Y: 0})
	tab.Learn(2, geom.Point{X: 0, Y: 1})
	tab.Learn(3, geom.Point{X: 9, Y: 9}) // self: ignored
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	ids := tab.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("IDs = %v, want [1 2]", ids)
	}
	if pos, ok := tab.Position(1); !ok || pos != (geom.Point{X: 1, Y: 0}) {
		t.Errorf("Position(1) = %v, %v", pos, ok)
	}
	if _, ok := tab.Position(3); ok {
		t.Error("self must not be learnable")
	}
	tab.Forget(1)
	if _, ok := tab.Position(1); ok {
		t.Error("Forget did not remove the entry")
	}
}

func TestTableBearing(t *testing.T) {
	tab := NewTable(0, geom.Point{X: 0, Y: 0})
	tab.Learn(1, geom.Point{X: 0, Y: 2})
	b, err := tab.Bearing(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-math.Pi/2) > 1e-12 {
		t.Errorf("Bearing = %v, want π/2", b)
	}
	if _, err := tab.Bearing(42); err == nil {
		t.Error("Bearing of unknown neighbor should fail")
	}
}

func TestTableLearnUpdates(t *testing.T) {
	tab := NewTable(0, geom.Point{})
	tab.Learn(1, geom.Point{X: 1, Y: 0})
	tab.Learn(1, geom.Point{X: 2, Y: 0})
	if pos, _ := tab.Position(1); pos != (geom.Point{X: 2, Y: 0}) {
		t.Errorf("Learn should update: %v", pos)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1", tab.Len())
	}
}

func TestGroundTruth(t *testing.T) {
	_, ch := newChannel(t,
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.5, Y: 0},
		geom.Point{X: 5, Y: 5}, // isolated
	)
	tables := GroundTruth(ch)
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want 3", len(tables))
	}
	if tables[0].Len() != 1 {
		t.Errorf("node 0 table Len = %d, want 1", tables[0].Len())
	}
	if pos, ok := tables[0].Position(1); !ok || pos != (geom.Point{X: 0.5, Y: 0}) {
		t.Errorf("node 0 sees node 1 at %v, %v", pos, ok)
	}
	if tables[2].Len() != 0 {
		t.Errorf("isolated node table Len = %d, want 0", tables[2].Len())
	}
	if !Complete(ch, tables) {
		t.Error("ground-truth tables must be complete")
	}
}

func TestBootstrapLearnsAllNeighbors(t *testing.T) {
	// A small clique plus a distant pair; HELLO rounds must populate every
	// table completely despite occasional beacon collisions.
	positions := []geom.Point{
		{X: 0, Y: 0}, {X: 0.4, Y: 0}, {X: 0, Y: 0.4}, {X: 0.3, Y: 0.3},
		{X: 3, Y: 3}, {X: 3.4, Y: 3},
	}
	sched, ch := newChannel(t, positions...)
	tables := Bootstrap(sched, ch)
	if !Complete(ch, tables) {
		for i, tab := range tables {
			t.Logf("node %d knows %v, true neighbors %v", i, tab.IDs(), ch.Neighbors(phy.NodeID(i)))
		}
		t.Fatal("bootstrap left incomplete tables")
	}
	// Learned positions must be exact (beacons carry ground truth).
	for i, tab := range tables {
		for _, id := range tab.IDs() {
			pos, _ := tab.Position(id)
			if pos != ch.Radio(id).Pos() {
				t.Errorf("node %d learned wrong position for %d: %v", i, id, pos)
			}
		}
	}
}

func TestBootstrapAdvancesClock(t *testing.T) {
	sched, ch := newChannel(t, geom.Point{}, geom.Point{X: 0.2})
	Bootstrap(sched, ch)
	if want := HelloRounds * HelloRoundLen; sched.Now() != want {
		t.Errorf("clock after bootstrap = %v, want %v", sched.Now(), want)
	}
}

func TestHelloNodeIgnoresNonHello(t *testing.T) {
	tab := NewTable(0, geom.Point{})
	h := &helloNode{table: tab}
	h.OnFrame(phy.Frame{Type: phy.Data, Src: 1, Payload: geom.Point{X: 1}})
	if tab.Len() != 0 {
		t.Error("non-hello frame must not populate the table")
	}
	h.OnFrame(phy.Frame{Type: phy.Hello, Src: 1, Payload: "not a point"})
	if tab.Len() != 0 {
		t.Error("malformed payload must not populate the table")
	}
	h.OnFrame(phy.Frame{Type: phy.Hello, Src: 1, Payload: geom.Point{X: 1}})
	if tab.Len() != 1 {
		t.Error("valid hello should populate the table")
	}
}

func TestBearingFromAndSetSelfPos(t *testing.T) {
	tab := NewTable(0, geom.Point{X: 0, Y: 0})
	tab.Learn(1, geom.Point{X: 1, Y: 0})
	b, err := tab.BearingFrom(geom.Point{X: 1, Y: -1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-math.Pi/2) > 1e-12 {
		t.Errorf("BearingFrom = %v, want π/2", b)
	}
	tab.SetSelfPos(geom.Point{X: 1, Y: -1})
	b2, err := tab.Bearing(1)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b {
		t.Errorf("Bearing after SetSelfPos = %v, want %v", b2, b)
	}
}

// TestBearingMissIsAllocationFree pins that a lookup miss returns the
// preallocated ErrUnknown and allocates nothing.
func TestBearingMissIsAllocationFree(t *testing.T) {
	tab := NewTable(0, geom.Point{})
	tab.Learn(1, geom.Point{X: 1, Y: 0})
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = tab.BearingFrom(geom.Point{X: 0.5, Y: 0}, 42)
	})
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("miss returned %v, want ErrUnknown", err)
	}
	if allocs != 0 {
		t.Fatalf("a miss made %v allocations, want 0", allocs)
	}
}

func TestPeriodicRefresh(t *testing.T) {
	sched, ch := newChannel(t,
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.5, Y: 0},
		geom.Point{X: 5, Y: 5},
	)
	tables := GroundTruth(ch)
	if err := PeriodicRefresh(sched, ch, tables, 100*des.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Move node 1 out of range and node 2 into range of node 0.
	ch.Radio(1).SetPos(geom.Point{X: 3, Y: 3})
	ch.Radio(2).SetPos(geom.Point{X: 0.4, Y: 0})
	// Before the refresh tick, the table still has the stale view.
	if _, ok := tables[0].Position(1); !ok {
		t.Fatal("pre-refresh table lost node 1")
	}
	sched.Run(sched.Now() + 150*des.Millisecond)
	if _, ok := tables[0].Position(1); ok {
		t.Error("refresh kept an out-of-range neighbor")
	}
	if pos, ok := tables[0].Position(2); !ok || pos != (geom.Point{X: 0.4, Y: 0}) {
		t.Errorf("refresh missed the new neighbor: %v %v", pos, ok)
	}
}

func TestPeriodicRefreshValidation(t *testing.T) {
	sched, ch := newChannel(t, geom.Point{})
	tables := GroundTruth(ch)
	if err := PeriodicRefresh(sched, ch, tables, 0); err == nil {
		t.Error("zero interval should be rejected")
	}
	if err := PeriodicRefresh(sched, ch, nil, des.Second); err == nil {
		t.Error("table/radio count mismatch should be rejected")
	}
}
