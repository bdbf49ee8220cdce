// Package simtest is the shared harness for MAC/PHY integration tests:
// one Build call assembles a scheduler, channel, radios, neighbor tables
// and MAC nodes from a per-node spec list, replacing the hand-wired
// setup blocks that used to be copied across test files. Specs cover the
// common fixtures (saturated senders, pure responders, one-shot packet
// lists) as well as the exotic ones (bare dead radios, overridden
// neighbor tables, per-node configs, self-driven CBR sources).
package simtest

import (
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/neighbor"
	"repro/internal/phy"
	"repro/internal/traffic"
)

// OneShot is a source with a fixed packet list.
type OneShot struct {
	Pkts []mac.Packet
	i    int
}

// Dequeue hands out the next packet, stamping its enqueue time.
func (o *OneShot) Dequeue(now des.Time) (mac.Packet, bool) {
	if o.i >= len(o.Pkts) {
		return mac.Packet{}, false
	}
	p := o.Pkts[o.i]
	p.Enqueued = now
	o.i++
	return p, true
}

// Silent is a PHY handler that never responds (a dead node).
type Silent struct{}

func (Silent) OnCarrierBusy()      {}
func (Silent) OnCarrierIdle()      {}
func (Silent) OnFrame(f phy.Frame) {}
func (Silent) OnFrameError()       {}
func (Silent) OnTxDone()           {}

// Net is a fully assembled test network.
type Net struct {
	Sched *des.Scheduler
	Ch    *phy.Channel
	// Nodes holds one MAC node per radio; the entry is nil for a spec
	// without a source (a bare radio that never responds).
	Nodes  []*mac.Node
	Tables []*neighbor.Table
}

// SourceMaker builds one node's packet source once the network's
// scheduler and channel exist.
type SourceMaker func(t *testing.T, nw *Net, id phy.NodeID) mac.Source

// NodeSpec describes one node of a test network.
type NodeSpec struct {
	Pos geom.Point
	// Source builds the node's packet source. nil leaves a bare radio
	// with no MAC attached — a dead node that never answers.
	Source SourceMaker
	// Table overrides the node's ground-truth neighbor table.
	Table *neighbor.Table
	// Config overrides the network-wide MAC config for this node.
	Config *mac.Config
}

// kicker is the self-driven half of sources like traffic.CBR; Build
// wires the owning node automatically.
type kicker interface{ SetKick(traffic.Kicker) }

// Build assembles the network in one call. Nodes are not started: call
// StartAll (or Start for a subset) before Run, mirroring whatever start
// pattern the protocol sequence under test needs.
func Build(t *testing.T, seed int64, cfg mac.Config, specs []NodeSpec) *Net {
	t.Helper()
	sched := des.New(seed)
	ch, err := phy.NewChannel(sched, phy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		ch.AddRadio(sp.Pos, Silent{})
	}
	nw := &Net{
		Sched:  sched,
		Ch:     ch,
		Nodes:  make([]*mac.Node, len(specs)),
		Tables: neighbor.GroundTruth(ch),
	}
	for i, sp := range specs {
		if sp.Table != nil {
			nw.Tables[i] = sp.Table
		}
	}
	for i, sp := range specs {
		if sp.Source == nil {
			continue
		}
		id := phy.NodeID(i)
		src := sp.Source(t, nw, id)
		nodeCfg := cfg
		if sp.Config != nil {
			nodeCfg = *sp.Config
		}
		n, err := mac.New(sched, ch.Radio(id), nw.Tables[i], src, nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		nw.Nodes[i] = n
		if k, ok := src.(kicker); ok {
			k.SetKick(n)
		}
	}
	return nw
}

// StartAll starts every MAC node in index order.
func (n *Net) StartAll() {
	for _, node := range n.Nodes {
		if node != nil {
			node.Start()
		}
	}
}

// Start starts the given nodes in argument order.
func (n *Net) Start(ids ...phy.NodeID) {
	for _, id := range ids {
		n.Nodes[id].Start()
	}
}

// Run executes the scheduler until the absolute time until.
func (n *Net) Run(until des.Time) { n.Sched.Run(until) }

// Stats returns node i's MAC counters.
func (n *Net) Stats(i int) mac.Stats { return n.Nodes[i].Stats() }

// Responder returns a source with no packets of its own: the node only
// answers handshakes.
func Responder() SourceMaker {
	return func(t *testing.T, nw *Net, id phy.NodeID) mac.Source { return &OneShot{} }
}

// Packets returns a source offering the given packets once each.
func Packets(pkts ...mac.Packet) SourceMaker {
	return func(t *testing.T, nw *Net, id phy.NodeID) mac.Source { return &OneShot{Pkts: pkts} }
}

// Saturated returns an always-backlogged source sending paper-sized
// packets to the given destinations.
func Saturated(dsts ...phy.NodeID) SourceMaker {
	return SaturatedBytes(traffic.PaperPacketBytes, dsts...)
}

// SaturatedBytes is Saturated with an explicit payload size.
func SaturatedBytes(bytes int, dsts ...phy.NodeID) SourceMaker {
	return func(t *testing.T, nw *Net, id phy.NodeID) mac.Source {
		t.Helper()
		ids := make([]int32, len(dsts))
		for i, d := range dsts {
			ids[i] = int32(d)
		}
		src, err := traffic.NewSaturated(nw.Sched.Rand(), ids, bytes)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
}

// SaturatedNeighbors returns an always-backlogged source spraying the
// node's in-range peers, or a silent source for isolated nodes.
func SaturatedNeighbors(bytes int) SourceMaker {
	return func(t *testing.T, nw *Net, id phy.NodeID) mac.Source {
		t.Helper()
		nbs := nw.Ch.InRange(id)
		if len(nbs) == 0 {
			return traffic.Empty{}
		}
		src, err := traffic.NewSaturated(nw.Sched.Rand(), nbs, bytes)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
}

// SaturatedSpecs builds the most common fixture: node i floods dests[i]
// with saturated traffic; a negative destination leaves it a pure
// responder.
func SaturatedSpecs(positions []geom.Point, dests []int) []NodeSpec {
	specs := make([]NodeSpec, len(positions))
	for i, pos := range positions {
		specs[i] = NodeSpec{Pos: pos}
		if dests[i] >= 0 {
			specs[i].Source = Saturated(phy.NodeID(dests[i]))
		} else {
			specs[i].Source = Responder()
		}
	}
	return specs
}
