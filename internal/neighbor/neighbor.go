// Package neighbor implements the neighbor protocol the paper assumes:
// "there is a neighbor protocol that can actively maintain a list of
// neighbors as well as their locations". It provides per-node location
// tables, a ground-truth bootstrap (the paper's assumption taken
// literally), and an actual HELLO-beacon protocol that populates the
// tables over the air, demonstrating the assumption is realizable.
package neighbor

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/phy"
)

// Table is one node's view of its neighbors' locations. Entries live in
// parallel slices sorted by neighbor ID and looked up by binary search:
// a node's degree is small and read-heavy lookups dominate, so the
// compact layout beats a per-node map on both memory and locality at
// large N (DESIGN.md §15).
//
// A ground-truth table's ID list is the PHY's in-range list of its node
// itself (phy.Channel.InRange), which the table copies before its first
// write to the IDs, so each neighbor relation is stored once and a
// table's own bytes are one position per entry.
type Table struct {
	self    phy.NodeID
	selfPos geom.Point
	ids     []int32      // ascending
	pos     []geom.Point // parallel to ids
	// at is parallel to ids once the table has learned through LearnAt,
	// and nil before: it holds each entry's observation time, or
	// staticAt for an entry installed by Learn.
	at []des.Time

	// shared is set while ids is the PHY's list, not the table's own.
	shared bool

	// The last BearingFrom answer, keyed by peer and from-position
	// (valid while memo is set). Every write to the entries clears memo.
	memo      bool
	memoPeer  int32
	memoFrom  geom.Point
	memoValue float64
}

// staticAt marks an entry that never goes stale (installed by Learn).
// Age reads it as 0, as it would any observation time at or after now.
const staticAt des.Time = math.MinInt64

// NewTable creates an empty table for the node at selfPos.
func NewTable(self phy.NodeID, selfPos geom.Point) *Table {
	return &Table{self: self, selfPos: selfPos}
}

// Self returns the owning node's ID.
func (t *Table) Self() phy.NodeID { return t.self }

// find returns the index of id and whether it is present. Node IDs are
// the PHY's int32 IDs; no other ID is ever present.
func (t *Table) find(id phy.NodeID) (int, bool) {
	if id != phy.NodeID(int32(id)) {
		return 0, false
	}
	return slices.BinarySearch(t.ids, int32(id))
}

// ownIDs gives the table its own copy of a shared ID list, with room
// for one more entry, before the IDs are written.
func (t *Table) ownIDs() {
	if t.shared {
		t.ids = append(make([]int32, 0, len(t.ids)+1), t.ids...)
		t.shared = false
	}
}

// set upserts an entry, keeping the IDs sorted. Sequential bulk loads
// arrive in ascending order and take the O(1) append path; an
// out-of-order learn shifts the tail of the (degree-sized) slices.
func (t *Table) set(id phy.NodeID, p geom.Point, at des.Time) {
	if id != phy.NodeID(int32(id)) {
		panic(fmt.Sprintf("neighbor: node ID %d outside the PHY's int32 range", id))
	}
	t.memo = false
	if at != staticAt && t.at == nil {
		t.at = make([]des.Time, len(t.ids), cap(t.pos))
		for i := range t.at {
			t.at[i] = staticAt
		}
	}
	i, ok := len(t.ids), false
	if i > 0 && t.ids[i-1] >= int32(id) {
		i, ok = t.find(id)
	}
	if ok {
		t.pos[i] = p
		if t.at != nil {
			t.at[i] = at
		}
		return
	}
	t.ownIDs()
	t.ids = slices.Insert(t.ids, i, int32(id))
	t.pos = slices.Insert(t.pos, i, p)
	if t.at != nil {
		t.at = slices.Insert(t.at, i, at)
	}
}

// Learn records (or updates) a neighbor's position as static knowledge
// that never goes stale (the paper's perfect-neighbor-protocol
// assumption). Learning yourself is a no-op.
func (t *Table) Learn(id phy.NodeID, pos geom.Point) {
	if id == t.self {
		return
	}
	t.set(id, pos, staticAt)
}

// LearnAt records a neighbor's position observed at simulated time at;
// Age reports its staleness afterwards.
func (t *Table) LearnAt(id phy.NodeID, pos geom.Point, at des.Time) {
	if id == t.self {
		return
	}
	t.set(id, pos, at)
}

// Age returns how stale the record for id is at time now: 0 for static
// entries, now − learnedAt for timestamped ones, and ok=false when the
// neighbor is unknown.
func (t *Table) Age(id phy.NodeID, now des.Time) (age des.Time, ok bool) {
	i, ok := t.find(id)
	if !ok {
		return 0, false
	}
	if t.at == nil || t.at[i] == staticAt {
		return 0, true
	}
	return max(now-t.at[i], 0), true
}

// Forget removes a neighbor.
func (t *Table) Forget(id phy.NodeID) {
	i, ok := t.find(id)
	if !ok {
		return
	}
	t.memo = false
	t.ownIDs()
	t.ids = slices.Delete(t.ids, i, i+1)
	t.pos = slices.Delete(t.pos, i, i+1)
	if t.at != nil {
		t.at = slices.Delete(t.at, i, i+1)
	}
}

// Clear forgets every neighbor, keeping the table's own storage for
// reuse. A shared ID list is dropped, not truncated: the PHY's memory is
// never written.
func (t *Table) Clear() {
	t.memo = false
	if t.shared {
		t.ids, t.shared = nil, false
	}
	t.ids = t.ids[:0]
	t.pos = t.pos[:0]
	if t.at != nil {
		t.at = t.at[:0]
	}
}

// Position returns a neighbor's recorded position.
func (t *Table) Position(id phy.NodeID) (geom.Point, bool) {
	i, ok := t.find(id)
	if !ok {
		return geom.Point{}, false
	}
	return t.pos[i], true
}

// ErrUnknown is the error Bearing and BearingFrom return for a neighbor
// the table has no entry for. It is one preallocated value: under
// mobility a quarter of a sparse network's RTS lookups can miss, and a
// miss must cost no allocation.
var ErrUnknown = errors.New("neighbor: no entry for the node")

// Bearing returns the direction from this node's recorded own position
// to the recorded position of the given neighbor.
func (t *Table) Bearing(id phy.NodeID) (float64, error) {
	return t.BearingFrom(t.selfPos, id)
}

// BearingFrom returns the direction from the given (live) position to
// the recorded position of the neighbor, or ErrUnknown. Mobile nodes
// know their own position exactly but only a possibly stale snapshot of
// others'. The table remembers its last answer: a repeated question (an
// RTS retry, the data frame after the RTS) with the same from-position,
// bit for bit, and no write in between returns it without a search.
//
//desalint:hotpath
func (t *Table) BearingFrom(from geom.Point, id phy.NodeID) (float64, error) {
	if t.memo && phy.NodeID(t.memoPeer) == id && samePoint(t.memoFrom, from) {
		return t.memoValue, nil
	}
	i, ok := t.find(id)
	if !ok {
		return 0, ErrUnknown
	}
	b := from.Bearing(t.pos[i])
	t.memo, t.memoPeer, t.memoFrom, t.memoValue = true, t.ids[i], from, b
	return b, nil
}

// samePoint reports whether p and q are the same bit for bit (so 0 and
// −0 differ, as they may in a bearing).
//
//desalint:hotpath
func samePoint(p, q geom.Point) bool {
	return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
}

// SetSelfPos updates the node's recorded own position.
func (t *Table) SetSelfPos(p geom.Point) { t.selfPos = p }

// IDs returns a copy of the known neighbor IDs in ascending order.
func (t *Table) IDs() []phy.NodeID {
	if len(t.ids) == 0 {
		return nil
	}
	ids := make([]phy.NodeID, len(t.ids))
	for i, id := range t.ids {
		ids[i] = phy.NodeID(id)
	}
	return ids
}

// Len returns the number of known neighbors.
func (t *Table) Len() int { return len(t.ids) }

// GroundTruth builds one fully populated table per radio from the
// channel's actual geometry — the paper's "assume a neighbor protocol"
// taken at face value. Tables are indexed by node ID.
//
// The assembly is allocation-lean for large N: Table structs come from
// one backing array, each table's IDs are its radio's in-range list
// (shared, see Table), and the per-table positions are carved from one
// backing sized exactly by InRangePairs (capped subslices, so a later
// Learn reallocates privately instead of stomping a sibling).
func GroundTruth(ch *phy.Channel) []*Table {
	n := ch.NumRadios()
	tables := make([]*Table, n)
	backing := make([]Table, n)
	posBack := make([]geom.Point, ch.InRangePairs())
	for i := range backing {
		id := phy.NodeID(i)
		ids := ch.InRange(id)
		pos := posBack[:len(ids):len(ids)]
		posBack = posBack[len(ids):]
		for k, nb := range ids {
			pos[k] = ch.Radio(phy.NodeID(nb)).Pos()
		}
		backing[i] = Table{self: id, selfPos: ch.Radio(id).Pos(), ids: ids, pos: pos, shared: true}
		tables[i] = &backing[i]
	}
	return tables
}

// The over-the-air bootstrap protocol: it completes quickly and
// survives beacon collisions in the paper's densest topologies. A unit
// test checks that a round leaves room for a beacon.
const (
	// HelloRounds is the number of beacon rounds. Each node broadcasts
	// once per round at a uniformly random offset; more rounds recover
	// from beacon collisions.
	HelloRounds = 12
	// HelloRoundLen is the duration of one round.
	HelloRoundLen = 50 * des.Millisecond
	// HelloBytes is the on-air size of a beacon.
	HelloBytes = 30
)

// helloNode is the per-radio handler used during bootstrap, and the
// event that sends the radio's beacon.
type helloNode struct {
	radio *phy.Radio
	table *Table
}

// Fire broadcasts the radio's position. It is best effort: a radio that
// happens to be transmitting (impossible with one beacon per round)
// skips the round.
func (h *helloNode) Fire() {
	f := phy.Frame{
		Type:    phy.Hello,
		Src:     h.radio.ID(),
		Dst:     phy.Broadcast,
		Bytes:   HelloBytes,
		Payload: h.radio.Pos(),
	}
	_, _ = h.radio.Transmit(f, phy.Omni)
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
// broadcasts its position at random offsets for HelloRounds rounds, and
// every radio learns the positions it hears. It returns the resulting
// tables (indexed by node ID) and restores no handlers — callers attach
// their MAC handlers afterwards. The scheduler is advanced by
// HelloRounds × HelloRoundLen.
func Bootstrap(sched *des.Scheduler, ch *phy.Channel) []*Table {
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
	// Leave headroom at the end of the round for the beacon itself.
	head := HelloRoundLen - phy.Airtime(HelloBytes) - phy.PropDelay
	end := sched.Now()
	for round := 0; round < HelloRounds; round++ {
		start := sched.Now() + des.Time(round)*HelloRoundLen
		for i := 0; i < n; i++ {
			offset := des.Time(sched.Rand().Int63n(int64(head)))
			sched.AtEvent(start+offset, nodes[i])
		}
		end = start + HelloRoundLen
	}
	sched.Run(end)
	return tables
}

// PeriodicRefresh re-learns ground-truth neighbor positions (and own
// position) for every table at the given interval, modeling a location
// service with bounded staleness under mobility. Between refreshes,
// directional transmissions aim at snapshots up to one interval old.
// Refreshes go on for as long as the scheduler runs.
func PeriodicRefresh(sched *des.Scheduler, ch *phy.Channel, tables []*Table, interval des.Time) error {
	if interval <= 0 {
		return fmt.Errorf("neighbor: refresh interval must be positive, got %v", interval)
	}
	if len(tables) != ch.NumRadios() {
		return fmt.Errorf("neighbor: %d tables for %d radios", len(tables), ch.NumRadios())
	}
	r := &refresher{sched: sched, ch: ch, tables: tables, interval: interval}
	sched.ScheduleEvent(interval, r)
	return nil
}

// refresher is PeriodicRefresh's event: each firing refreshes every
// table and schedules the next.
type refresher struct {
	sched    *des.Scheduler
	ch       *phy.Channel
	tables   []*Table
	interval des.Time
	scratch  []phy.NodeID
}

// Fire refreshes every table from the channel's geometry.
func (r *refresher) Fire() {
	for i, t := range r.tables {
		id := phy.NodeID(i)
		t.SetSelfPos(r.ch.Radio(id).Pos())
		t.Clear()
		r.scratch = r.ch.NeighborsAppend(id, r.scratch[:0])
		for _, nb := range r.scratch {
			t.LearnAt(nb, r.ch.Radio(nb).Pos(), r.sched.Now())
		}
	}
	r.sched.ScheduleEvent(r.interval, r)
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
