package neighbor

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/phy"
)

// refTable is the table layout Table replaced, kept as the reference
// the differential test drives beside it: an ID slice and a record per
// neighbor, each record a position, a timestamp and a static flag, and
// no memo.
type refTable struct {
	self    phy.NodeID
	selfPos geom.Point
	ids     []phy.NodeID
	recs    []refRecord
}

type refRecord struct {
	pos    geom.Point
	at     des.Time
	static bool
}

func (t *refTable) set(id phy.NodeID, r refRecord) {
	i, ok := slices.BinarySearch(t.ids, id)
	if ok {
		t.recs[i] = r
		return
	}
	t.ids = slices.Insert(t.ids, i, id)
	t.recs = slices.Insert(t.recs, i, r)
}

func (t *refTable) Learn(id phy.NodeID, pos geom.Point) {
	if id != t.self {
		t.set(id, refRecord{pos: pos, static: true})
	}
}

func (t *refTable) LearnAt(id phy.NodeID, pos geom.Point, at des.Time) {
	if id != t.self {
		t.set(id, refRecord{pos: pos, at: at})
	}
}

func (t *refTable) Age(id phy.NodeID, now des.Time) (des.Time, bool) {
	i, ok := slices.BinarySearch(t.ids, id)
	if !ok {
		return 0, false
	}
	if t.recs[i].static {
		return 0, true
	}
	return max(now-t.recs[i].at, 0), true
}

func (t *refTable) Forget(id phy.NodeID) {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		t.ids = slices.Delete(t.ids, i, i+1)
		t.recs = slices.Delete(t.recs, i, i+1)
	}
}

func (t *refTable) Clear() { t.ids, t.recs = t.ids[:0], t.recs[:0] }

func (t *refTable) Position(id phy.NodeID) (geom.Point, bool) {
	i, ok := slices.BinarySearch(t.ids, id)
	if !ok {
		return geom.Point{}, false
	}
	return t.recs[i].pos, true
}

func (t *refTable) BearingFrom(from geom.Point, id phy.NodeID) (float64, error) {
	i, ok := slices.BinarySearch(t.ids, id)
	if !ok {
		return 0, ErrUnknown
	}
	return from.Bearing(t.recs[i].pos), nil
}

// refGroundTruth builds the reference tables from the channel geometry.
func refGroundTruth(ch *phy.Channel) []*refTable {
	tables := make([]*refTable, ch.NumRadios())
	for i := range tables {
		id := phy.NodeID(i)
		t := &refTable{self: id, selfPos: ch.Radio(id).Pos()}
		for _, nb := range ch.Neighbors(id) {
			t.Learn(nb, ch.Radio(nb).Pos())
		}
		tables[i] = t
	}
	return tables
}

// randomField places n radios uniformly on a side×side square.
func randomField(t *testing.T, rng *rand.Rand, n int, side float64) (*des.Scheduler, *phy.Channel) {
	t.Helper()
	ps := make([]geom.Point, n)
	for i := range ps {
		ps[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	sched, ch := newChannel(t)
	ch.AddRadios(ps)
	return sched, ch
}

// snapshotLists copies every radio's in-range list, and returns the
// lists themselves alongside, to check later that nobody wrote them.
func snapshotLists(ch *phy.Channel) (lists, copies [][]int32) {
	for i := 0; i < ch.NumRadios(); i++ {
		l := ch.InRange(phy.NodeID(i))
		lists = append(lists, l)
		copies = append(copies, slices.Clone(l))
	}
	return lists, copies
}

func checkListsUnchanged(t *testing.T, stage string, lists, copies [][]int32) {
	t.Helper()
	for i := range lists {
		if !slices.Equal(lists[i], copies[i]) {
			t.Fatalf("%s: radio %d's shared in-range list became %v, was %v", stage, i, lists[i], copies[i])
		}
	}
}

// TestTableMatchesReference drives ground-truth tables and reference
// tables through the same random sequences of every exported method and
// compares every answer, bearings bit for bit. Lookups repeat the last
// peer and from-position often, so the bearing memo answers many of
// them, and every write must make it forget. The PHY's in-range lists,
// which the tables start out sharing, must come out unchanged, and so
// must a second set of ground-truth tables sharing the same lists.
func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	_, ch := randomField(t, rng, 60, 3)
	lists, copies := snapshotLists(ch)
	tables, refs := GroundTruth(ch), refGroundTruth(ch)
	bystanders := GroundTruth(ch)
	froms := []geom.Point{{}, {X: math.Copysign(0, -1)}, {X: 1, Y: 1}, {X: 1.5, Y: 0.25}}
	var ops [9]int
	for i, tab := range tables {
		ref := refs[i]
		from, peer := ref.selfPos, ref.self
		now := des.Time(0)
		for step := 0; step < 400; step++ {
			id := phy.NodeID(rng.Intn(64) - 2) // includes -1, self and strangers
			pos := geom.Point{X: rng.Float64() * 3, Y: rng.Float64() * 3}
			if rng.Intn(8) == 0 {
				pos = froms[rng.Intn(len(froms))] // a peer at the aiming point
			}
			now += des.Time(rng.Intn(int(des.Millisecond)))
			op := rng.Intn(len(ops))
			ops[op]++
			switch op {
			case 0:
				tab.Learn(id, pos)
				ref.Learn(id, pos)
			case 1:
				at := now - des.Time(rng.Intn(int(des.Second)))
				tab.LearnAt(id, pos, at)
				ref.LearnAt(id, pos, at)
			case 2:
				if rng.Intn(2) == 0 && len(ref.ids) > 0 {
					id = ref.ids[rng.Intn(len(ref.ids))]
				}
				tab.Forget(id)
				ref.Forget(id)
			case 3:
				if rng.Intn(10) == 0 {
					tab.Clear()
					ref.Clear()
				}
			case 4:
				a, aok := tab.Age(id, now)
				b, bok := ref.Age(id, now)
				if a != b || aok != bok {
					t.Fatalf("table %d step %d: Age(%d) = %v, %v; reference %v, %v", i, step, id, a, aok, b, bok)
				}
			case 5:
				a, aok := tab.Position(id)
				b, bok := ref.Position(id)
				if a != b || aok != bok {
					t.Fatalf("table %d step %d: Position(%d) = %v, %v; reference %v, %v", i, step, id, a, aok, b, bok)
				}
			case 6, 7, 8:
				// Repeat the last question half the time; otherwise move
				// the aiming point or pick a known peer.
				if rng.Intn(2) == 0 {
					if rng.Intn(3) == 0 {
						from = froms[rng.Intn(len(froms))]
					}
					peer = id
					if rng.Intn(3) > 0 && len(ref.ids) > 0 {
						peer = ref.ids[rng.Intn(len(ref.ids))]
					}
				}
				a, aerr := tab.BearingFrom(from, peer)
				b, berr := ref.BearingFrom(from, peer)
				if math.Float64bits(a) != math.Float64bits(b) || !errors.Is(aerr, berr) || (aerr == nil) != (berr == nil) {
					t.Fatalf("table %d step %d: BearingFrom(%v, %d) = %v, %v; reference %v, %v", i, step, from, peer, a, aerr, b, berr)
				}
			}
			if tab.Len() != len(ref.ids) {
				t.Fatalf("table %d step %d (op %d): Len = %d, reference %d", i, step, op, tab.Len(), len(ref.ids))
			}
			if got := tab.IDs(); !slices.Equal(got, ref.ids) {
				t.Fatalf("table %d step %d (op %d): IDs = %v, reference %v", i, step, op, got, ref.ids)
			}
		}
	}
	for op, n := range ops {
		if n == 0 {
			t.Fatalf("operation %d never ran", op)
		}
	}
	checkListsUnchanged(t, "after table writes", lists, copies)
	for i, tab := range bystanders {
		want := ch.Neighbors(phy.NodeID(i))
		if got := tab.IDs(); !slices.Equal(got, want) {
			t.Fatalf("untouched table %d lists %v, want %v", i, got, want)
		}
	}
}

// TestBearingMemoFollowsRefreshAndMovement: after a node and its peers
// move and a periodic refresh re-learns the tables, every bearing the
// tables give (from the node's live position, as the MAC aims) equals a
// fresh computation from the refreshed positions, and the PHY's first
// lists are untouched by both the refresh and the in-range rebuilds.
func TestBearingMemoFollowsRefreshAndMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	sched, ch := randomField(t, rng, 40, 2.5)
	lists, copies := snapshotLists(ch)
	tables := GroundTruth(ch)
	if err := PeriodicRefresh(sched, ch, tables, 100*des.Millisecond); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for i, tab := range tables {
			from := ch.Radio(phy.NodeID(i)).Pos()
			for _, nb := range tab.IDs() {
				for rep := 0; rep < 2; rep++ { // the second asks the memo
					got, err := tab.BearingFrom(from, nb)
					pos, _ := tab.Position(nb)
					if want := from.Bearing(pos); err != nil || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: node %d toward %d: BearingFrom = %v, %v; fresh %v", stage, i, nb, got, err, want)
					}
				}
			}
		}
	}
	check("ground truth")
	for round := 0; round < 5; round++ {
		for k := 0; k < 10; k++ {
			r := ch.Radio(phy.NodeID(rng.Intn(ch.NumRadios())))
			r.SetPos(geom.Point{X: rng.Float64() * 2.5, Y: rng.Float64() * 2.5})
		}
		check("after moves")
		sched.Run(sched.Now() + 100*des.Millisecond)
		check("after refresh")
		checkListsUnchanged(t, "after moves and refresh", lists, copies)
	}
	if !Complete(ch, tables) {
		t.Error("refreshed tables miss a true neighbor")
	}
}
