// Package neighbor implements the neighbor protocol the paper assumes:
// "there is a neighbor protocol that can actively maintain a list of
// neighbors as well as their locations". It provides per-node location
// tables, a ground-truth bootstrap (the paper's assumption taken
// literally), and an actual HELLO-beacon protocol that populates the
// tables over the air, demonstrating the assumption is realizable.
package neighbor

import (
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/phy"
)

// Table is one node's view of its neighbors' locations. Records live in
// two parallel slices sorted by neighbor ID and looked up by binary
// search: a node's degree is small and read-heavy lookups dominate, so
// the compact layout beats a per-node map on both memory and locality
// at large N (DESIGN.md §15).
type Table struct {
	self    phy.NodeID
	selfPos geom.Point
	ids     []phy.NodeID // ascending
	recs    []record     // parallel to ids
}

// record is one neighbor entry. Static records (installed by Learn)
// never go stale; timestamped records (LearnAt) age.
type record struct {
	pos    geom.Point
	at     des.Time
	static bool
}

// NewTable creates an empty table for the node at selfPos.
func NewTable(self phy.NodeID, selfPos geom.Point) *Table {
	return &Table{self: self, selfPos: selfPos}
}

// Self returns the owning node's ID.
func (t *Table) Self() phy.NodeID { return t.self }

// find returns the index of id and whether it is present.
func (t *Table) find(id phy.NodeID) (int, bool) {
	return slices.BinarySearch(t.ids, id)
}

// set upserts a record, keeping the ID slice sorted. Sequential bulk
// loads arrive in ascending order and take the O(1) append path; an
// out-of-order learn shifts the tail of the (degree-sized) slices.
func (t *Table) set(id phy.NodeID, r record) {
	if n := len(t.ids); n == 0 || t.ids[n-1] < id {
		t.ids = append(t.ids, id)
		t.recs = append(t.recs, r)
		return
	}
	i, ok := t.find(id)
	if ok {
		t.recs[i] = r
		return
	}
	t.ids = slices.Insert(t.ids, i, id)
	t.recs = slices.Insert(t.recs, i, r)
}

// Learn records (or updates) a neighbor's position as static knowledge
// that never goes stale (the paper's perfect-neighbor-protocol
// assumption). Learning yourself is a no-op.
func (t *Table) Learn(id phy.NodeID, pos geom.Point) {
	if id == t.self {
		return
	}
	t.set(id, record{pos: pos, static: true})
}

// LearnAt records a neighbor's position observed at simulated time at;
// Age reports its staleness afterwards.
func (t *Table) LearnAt(id phy.NodeID, pos geom.Point, at des.Time) {
	if id == t.self {
		return
	}
	t.set(id, record{pos: pos, at: at})
}

// Age returns how stale the record for id is at time now: 0 for static
// entries, now − learnedAt for timestamped ones, and ok=false when the
// neighbor is unknown.
func (t *Table) Age(id phy.NodeID, now des.Time) (age des.Time, ok bool) {
	i, ok := t.find(id)
	if !ok {
		return 0, false
	}
	e := &t.recs[i]
	if e.static {
		return 0, true
	}
	age = now - e.at
	if age < 0 {
		age = 0
	}
	return age, true
}

// Forget removes a neighbor.
func (t *Table) Forget(id phy.NodeID) {
	if i, ok := t.find(id); ok {
		t.ids = slices.Delete(t.ids, i, i+1)
		t.recs = slices.Delete(t.recs, i, i+1)
	}
}

// Clear forgets every neighbor, keeping the record storage for reuse.
func (t *Table) Clear() {
	t.ids = t.ids[:0]
	t.recs = t.recs[:0]
}

// Position returns a neighbor's recorded position.
func (t *Table) Position(id phy.NodeID) (geom.Point, bool) {
	i, ok := t.find(id)
	if !ok {
		return geom.Point{}, false
	}
	return t.recs[i].pos, true
}

// Bearing returns the direction from this node's recorded own position
// to the recorded position of the given neighbor.
func (t *Table) Bearing(id phy.NodeID) (float64, error) {
	return t.BearingFrom(t.selfPos, id)
}

// BearingFrom returns the direction from the given (live) position to
// the recorded position of the neighbor. Mobile nodes know their own
// position exactly but only a possibly stale snapshot of others'.
func (t *Table) BearingFrom(from geom.Point, id phy.NodeID) (float64, error) {
	i, ok := t.find(id)
	if !ok {
		return 0, fmt.Errorf("neighbor: node %d has no entry for %d", t.self, id)
	}
	return from.Bearing(t.recs[i].pos), nil
}

// SetSelfPos updates the node's recorded own position.
func (t *Table) SetSelfPos(p geom.Point) { t.selfPos = p }

// IDs returns a copy of the known neighbor IDs in ascending order.
func (t *Table) IDs() []phy.NodeID {
	return slices.Clone(t.ids)
}

// Len returns the number of known neighbors.
func (t *Table) Len() int { return len(t.ids) }

// GroundTruth builds one fully populated table per radio from the
// channel's actual geometry — the paper's "assume a neighbor protocol"
// taken at face value. Tables are indexed by node ID.
//
// The assembly is allocation-lean for large N: Table structs come from
// one backing array, neighbor queries reuse one scratch buffer, and the
// per-table record slices are carved from two shared append-grown
// backings (capped subslices, so a later Learn reallocates privately
// instead of stomping a sibling).
func GroundTruth(ch *phy.Channel) []*Table {
	n := ch.NumRadios()
	tables := make([]*Table, n)
	backing := make([]Table, n)
	var idsBack []phy.NodeID
	var recBack []record
	var nbs []phy.NodeID
	for i := 0; i < n; i++ {
		id := phy.NodeID(i)
		nbs = ch.NeighborsAppend(id, nbs[:0])
		t := &backing[i]
		t.self = id
		t.selfPos = ch.Radio(id).Pos()
		is, rs := len(idsBack), len(recBack)
		for _, nb := range nbs {
			idsBack = append(idsBack, nb)
			recBack = append(recBack, record{pos: ch.Radio(nb).Pos(), static: true})
		}
		t.ids = idsBack[is:len(idsBack):len(idsBack)]
		t.recs = recBack[rs:len(recBack):len(recBack)]
		tables[i] = t
	}
	return tables
}

// HelloConfig tunes the over-the-air bootstrap protocol.
type HelloConfig struct {
	// Rounds is the number of beacon rounds. Each node broadcasts once
	// per round at a uniformly random offset; more rounds recover from
	// beacon collisions.
	Rounds int
	// RoundLen is the duration of one round.
	RoundLen des.Time
	// HelloBytes is the on-air size of a beacon.
	HelloBytes int
}

// DefaultHelloConfig returns a bootstrap configuration that completes
// quickly and survives collisions in the paper's densest topologies.
func DefaultHelloConfig() HelloConfig {
	return HelloConfig{Rounds: 12, RoundLen: 50 * des.Millisecond, HelloBytes: 30}
}

// helloNode is the per-radio handler used during bootstrap.
type helloNode struct {
	radio *phy.Radio
	table *Table
}

func (h *helloNode) OnCarrierBusy() {}
func (h *helloNode) OnCarrierIdle() {}
func (h *helloNode) OnTxDone()      {}
func (h *helloNode) OnFrameError()  {}

func (h *helloNode) OnFrame(f phy.Frame) {
	if f.Type != phy.Hello {
		return
	}
	if pos, ok := f.Payload.(geom.Point); ok {
		h.table.Learn(f.Src, pos)
	}
}

// Bootstrap runs the HELLO protocol on the channel: every radio
// broadcasts its position at random offsets for cfg.Rounds rounds, and
// every radio learns the positions it hears. It returns the resulting
// tables (indexed by node ID) and restores no handlers — callers attach
// their MAC handlers afterwards. The scheduler is advanced by
// Rounds × RoundLen.
func Bootstrap(sched *des.Scheduler, ch *phy.Channel, cfg HelloConfig) ([]*Table, error) {
	if cfg.Rounds <= 0 || cfg.RoundLen <= 0 || cfg.HelloBytes <= 0 {
		return nil, fmt.Errorf("neighbor: invalid hello config %+v", cfg)
	}
	n := ch.NumRadios()
	tables := make([]*Table, n)
	nodes := make([]*helloNode, n)
	for i := 0; i < n; i++ {
		id := phy.NodeID(i)
		radio := ch.Radio(id)
		tables[i] = NewTable(id, radio.Pos())
		nodes[i] = &helloNode{radio: radio, table: tables[i]}
		radio.SetHandler(nodes[i])
	}
	end := sched.Now()
	for round := 0; round < cfg.Rounds; round++ {
		start := sched.Now() + des.Time(round)*cfg.RoundLen
		for i := 0; i < n; i++ {
			node := nodes[i]
			// Leave headroom at the end of the round for the beacon itself.
			head := cfg.RoundLen - ch.Params().Airtime(cfg.HelloBytes) - ch.Params().PropDelay
			if head < 1 {
				return nil, fmt.Errorf("neighbor: round length %v too short for a beacon", cfg.RoundLen)
			}
			offset := des.Time(sched.Rand().Int63n(int64(head)))
			sched.At(start+offset, func() {
				// Best effort: if the radio happens to be transmitting
				// (impossible with one beacon per round) skip this round.
				f := phy.Frame{
					Type:    phy.Hello,
					Src:     node.radio.ID(),
					Dst:     phy.Broadcast,
					Bytes:   cfg.HelloBytes,
					Payload: node.radio.Pos(),
				}
				_, _ = node.radio.Transmit(f, phy.Omni)
			})
		}
		end = start + cfg.RoundLen
	}
	sched.Run(end)
	return tables, nil
}

// PeriodicRefresh re-learns ground-truth neighbor positions (and own
// position) for every table at the given interval, modeling a location
// service with bounded staleness under mobility. Between refreshes,
// directional transmissions aim at snapshots up to one interval old.
// The returned stop function halts future refreshes.
func PeriodicRefresh(sched *des.Scheduler, ch *phy.Channel, tables []*Table, interval des.Time) (stop func(), err error) {
	if interval <= 0 {
		return nil, fmt.Errorf("neighbor: refresh interval must be positive, got %v", interval)
	}
	if len(tables) != ch.NumRadios() {
		return nil, fmt.Errorf("neighbor: %d tables for %d radios", len(tables), ch.NumRadios())
	}
	stopped := false
	var scratch []phy.NodeID
	var refresh func()
	refresh = func() {
		if stopped {
			return
		}
		for i, t := range tables {
			id := phy.NodeID(i)
			t.SetSelfPos(ch.Radio(id).Pos())
			t.Clear()
			scratch = ch.NeighborsAppend(id, scratch[:0])
			for _, nb := range scratch {
				t.LearnAt(nb, ch.Radio(nb).Pos(), sched.Now())
			}
		}
		sched.Schedule(interval, refresh)
	}
	sched.Schedule(interval, refresh)
	return func() { stopped = true }, nil
}

// Complete reports whether every table knows every true neighbor of its
// node (compared against the channel geometry).
func Complete(ch *phy.Channel, tables []*Table) bool {
	for i, t := range tables {
		for _, nb := range ch.Neighbors(phy.NodeID(i)) {
			if _, ok := t.Position(nb); !ok {
				return false
			}
		}
	}
	return true
}
