package mac

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/phy"
)

// sprayer is an always-backlogged source sending to random neighbors.
type sprayer struct {
	rng *rand.Rand
	nbs []phy.NodeID
	seq int64
}

func (s *sprayer) Dequeue(now des.Time) (Packet, bool) {
	s.seq++
	return Packet{Dst: s.nbs[s.rng.Intn(len(s.nbs))], Bytes: 512, Enqueued: now, Seq: s.seq}, true
}

// TestTimerHandlesZeroedWhenDone: a node zeroes each timer handle when
// its timer fires or is canceled, so after every kernel event each
// handle is either zero or pending, and at most one of the contention
// timers (DIFS, NAV, backoff) is pending. cancelContention relies on it
// to test the handles without reading the scheduler's timers.
func TestTimerHandlesZeroedWhenDone(t *testing.T) {
	for _, scheme := range []core.Scheme{core.ORTSOCTS, core.DRTSDCTS} {
		sched := des.New(4)
		ch, err := phy.NewChannel(sched, phy.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 12; i++ {
			ch.AddRadio(geom.Point{X: rng.Float64() * 1.6, Y: rng.Float64() * 1.6}, nil)
		}
		tables := neighbor.GroundTruth(ch)
		cfg := DefaultConfig(scheme, math.Pi/4)
		nodes := make([]*Node, ch.NumRadios())
		for i := range nodes {
			id := phy.NodeID(i)
			var src Source = &sprayer{rng: sched.Rand(), nbs: ch.Neighbors(id)}
			if len(ch.Neighbors(id)) == 0 {
				src = &sprayer{} // never asked: New does not start the node
			}
			if nodes[i], err = New(sched, ch.Radio(id), tables[i], src, cfg); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range nodes {
			if len(ch.Neighbors(phy.NodeID(i))) > 0 {
				n.Start()
			}
		}
		fired := 0
		for sched.Now() < 200*des.Millisecond && sched.Step() {
			fired++
			for i, n := range nodes {
				handles := [...]struct {
					name string
					h    des.Timer
				}{
					{"backoff", n.countdown}, {"difs", n.difsTimer}, {"nav", n.navTimer},
					{"cts timeout", n.ctsTo}, {"ack timeout", n.ackTo},
				}
				pending := 0
				for k, h := range handles {
					if h.h != (des.Timer{}) && !h.h.Active() {
						t.Fatalf("%v, event %d: node %d holds a done %s handle", scheme, fired, i, h.name)
					}
					if k < 3 && h.h.Active() {
						pending++
					}
				}
				if pending > 1 {
					t.Fatalf("%v, event %d: node %d has %d contention timers pending", scheme, fired, i, pending)
				}
			}
		}
		var timeouts, errs int64
		for _, n := range nodes {
			timeouts += n.stats.CTSTimeouts + n.stats.ACKTimeouts
			errs += n.stats.FrameErrors
		}
		if fired < 1000 || timeouts == 0 || errs == 0 {
			t.Fatalf("%v: %d events, %d timeouts, %d frame errors; want a contended run", scheme, fired, timeouts, errs)
		}
	}
}
