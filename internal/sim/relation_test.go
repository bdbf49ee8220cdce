package sim

import (
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/trace"
)

// destinationCheck is a tracer that fails the test when a node opens a
// handshake toward a peer outside the destinations its source was
// built with.
type destinationCheck struct {
	t     *testing.T
	dests [][]int32
	rts   int
}

func (d *destinationCheck) Record(ev trace.Event) {
	if ev.Kind != trace.TxStart || ev.Frame != phy.RTS {
		return
	}
	d.rts++
	if _, ok := slices.BinarySearch(d.dests[ev.Node], int32(ev.Peer)); !ok {
		d.t.Errorf("node %d sent an RTS to %d, outside its destinations %v", ev.Node, ev.Peer, d.dests[ev.Node])
	}
}

// TestSharedNeighborRelationIsolation: Build hands every traffic source
// and ground-truth table its radio's in-range list itself. Under
// waypoint mobility the PHY rebuilds in-range lists and the periodic
// refresh rewrites every table, and afterwards the test writes to the
// tables and moves radios itself; none of it may change the lists the
// sources and tables were built from, and every RTS must still go to
// one of those destinations. A list InRange hands out after the moves
// must survive the next round of moves too.
func TestSharedNeighborRelationIsolation(t *testing.T) {
	for _, kind := range []string{"saturated", "cbr"} {
		t.Run(kind, func(t *testing.T) {
			sc := Scenario{
				Scheme: "DRTS-DCTS", BeamwidthDeg: 60, Seed: 3,
				Duration: Duration(300 * des.Millisecond),
				Topology: TopologySpec{Kind: "uniform", N: 6, Rings: 3},
				Traffic:  TrafficSpec{Kind: kind},
				Mobility: MobilitySpec{Kind: "waypoint", MaxSpeed: 3, RefreshInterval: Duration(50 * des.Millisecond)},
			}
			if kind == "cbr" {
				sc.Traffic.OfferedLoadBps = 400e3
			}
			check := &destinationCheck{t: t}
			s, err := Build(sc, Options{Tracer: check})
			if err != nil {
				t.Fatal(err)
			}
			ch := s.Channel
			var lists, copies [][]int32
			snapshot := func() {
				lists, copies = nil, nil
				for i := 0; i < ch.NumRadios(); i++ {
					l := ch.InRange(phy.NodeID(i))
					lists = append(lists, l)
					copies = append(copies, slices.Clone(l))
				}
			}
			unchanged := func(stage string) {
				t.Helper()
				for i := range lists {
					if !slices.Equal(lists[i], copies[i]) {
						t.Fatalf("%s: radio %d's shared list became %v, was %v", stage, i, lists[i], copies[i])
					}
				}
			}
			moveAll := func(shift float64) {
				var buf []phy.NodeID
				for i := 0; i < ch.NumRadios(); i++ {
					ch.Radio(phy.NodeID(i)).SetPos(geom.Point{X: float64(i%5)*0.3 + shift, Y: float64(i/5) * 0.3})
					buf = ch.NeighborsAppend(phy.NodeID(i), buf[:0])
				}
			}
			snapshot()
			check.dests = copies
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if check.rts == 0 {
				t.Fatal("the run sent no RTS")
			}
			unchanged("after a mobile run")
			for i, tab := range s.Tables {
				tab.Learn(phy.NodeID(len(lists)+i), geom.Point{X: 9})
				tab.LearnAt(phy.NodeID(i+1), geom.Point{X: 8}, 5)
				tab.Forget(phy.NodeID(i + 2))
				if i%2 == 0 {
					tab.Clear()
					tab.Learn(phy.NodeID(i+3), geom.Point{X: 7})
				}
			}
			unchanged("after table writes")
			moveAll(0)
			unchanged("after moves and in-range rebuilds")
			// A list handed out after a rebuild is not rewritten either.
			snapshot()
			moveAll(0.7)
			unchanged("after a second round of moves")
		})
	}
}
