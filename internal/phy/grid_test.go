package phy

// Tests for the channel's spatial index and the in-range lists built
// from it: both must agree with a brute-force all-pairs scan in every
// geometry, stay correct through mobility (SetPos moves a radio between
// cells and makes every list stale), and keep steady-state delivery
// allocation-free.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
)

// brutNeighbors is the reference all-pairs neighbor scan.
func brutNeighbors(c *Channel, id NodeID) []NodeID {
	self := c.Radio(id)
	r2 := c.Params().Range * c.Params().Range
	var out []NodeID
	for i := 0; i < c.NumRadios(); i++ {
		o := c.Radio(NodeID(i))
		if o.ID() != id && o.Pos().Dist2(self.Pos()) <= r2 {
			out = append(out, o.ID())
		}
	}
	return out
}

func sameIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGridNeighborsMatchBruteForce: random clouds at several scales and
// ranges, including positions straddling cell boundaries and negative
// coordinates. InRangePairs must count the same pairs.
func TestGridNeighborsMatchBruteForce(t *testing.T) {
	for _, rng0 := range []float64{0.3, 1.0, 2.5} {
		rng := rand.New(rand.NewSource(int64(rng0 * 100)))
		sched := des.New(1)
		p := DefaultParams()
		p.Range = rng0
		ch, err := NewChannel(sched, p)
		if err != nil {
			t.Fatal(err)
		}
		var handlers [60]discardHandler
		for i := 0; i < 60; i++ {
			pos := geom.Point{X: rng.Float64()*8 - 4, Y: rng.Float64()*8 - 4}
			ch.AddRadio(pos, &handlers[i])
		}
		pairs := 0
		for id := 0; id < 60; id++ {
			got := ch.Neighbors(NodeID(id))
			want := brutNeighbors(ch, NodeID(id))
			if !sameIDs(got, want) {
				t.Fatalf("range %v node %d: grid %v, brute force %v", rng0, id, got, want)
			}
			pairs += len(want)
		}
		if got := ch.InRangePairs(); got != pairs {
			t.Fatalf("range %v: InRangePairs = %d, brute force %d", rng0, got, pairs)
		}
	}
}

// checkBruteForce fails t unless every radio's neighbors and
// InRangePairs agree with the brute-force scan.
func checkBruteForce(t *testing.T, ch *Channel) {
	t.Helper()
	pairs := 0
	for id := 0; id < ch.NumRadios(); id++ {
		got := ch.Neighbors(NodeID(id))
		want := brutNeighbors(ch, NodeID(id))
		if !sameIDs(got, want) {
			t.Fatalf("node %d at %v: grid %v, brute force %v", id, ch.Radio(NodeID(id)).Pos(), got, want)
		}
		pairs += len(want)
	}
	if got := ch.InRangePairs(); got != pairs {
		t.Fatalf("InRangePairs = %d, brute force %d", got, pairs)
	}
}

// TestAddRadiosMatchesBruteForce: the batch path (AddRadios, then the
// first in-range lists built in one pass over the radios in cell order)
// agrees with a brute-force scan in the geometries that pass could get
// wrong: a large uniform field, radios exactly on cell boundaries at
// negative and positive multiples of R, stacks of radios on one point,
// and a far outlier.
func TestAddRadiosMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	uniform := make([]geom.Point, 3000)
	for i := range uniform {
		uniform[i] = geom.Point{X: rng.Float64()*60 - 30, Y: rng.Float64()*60 - 30}
	}
	lattice := func(r float64) []geom.Point {
		var ps []geom.Point
		for k := -6; k <= 6; k++ {
			for m := -3; m <= 3; m++ {
				x, y := float64(k)*r, float64(m)*r
				ps = append(ps, geom.Point{X: x, Y: y}, geom.Point{X: x + r/2, Y: y})
			}
		}
		return ps
	}
	var stacks []geom.Point
	for i := 0; i < 40; i++ {
		p := geom.Point{X: float64(i%4) * 0.9, Y: -float64(i%3) * 0.6}
		stacks = append(stacks, p, p, geom.Point{X: rng.Float64() * 3, Y: -rng.Float64() * 2})
	}
	outlier := append(append([]geom.Point{}, uniform[:300]...), geom.Point{X: 1e9, Y: -1e9}, uniform[300], geom.Point{X: -1e9, Y: 5})
	cases := []struct {
		name  string
		rng   float64
		field []geom.Point
	}{
		{"uniform", 1, uniform},
		{"boundaries-R1", 1, lattice(1)},
		{"boundaries-R0.3", 0.3, lattice(0.3)},
		{"boundaries-R2.5", 2.5, lattice(2.5)},
		{"duplicates", 1, stacks},
		{"outlier", 1, outlier},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.Range = tc.rng
			ch, err := NewChannel(des.New(1), p)
			if err != nil {
				t.Fatal(err)
			}
			ch.AddRadios(tc.field)
			checkBruteForce(t, ch)
		})
	}
}

// TestAddRadiosOnExistingLists: a batch added to a channel whose radios
// already have lists (a cell it lands in may already hold radios),
// followed by single AddRadio calls and moves in and out of cells the
// batch filled, still matches the brute-force scan at every step.
func TestAddRadiosOnExistingLists(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	field := func(n int) []geom.Point {
		ps := make([]geom.Point, n)
		for i := range ps {
			ps[i] = geom.Point{X: rng.Float64()*8 - 4, Y: rng.Float64()*8 - 4}
		}
		return ps
	}
	ch, err := NewChannel(des.New(1), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ch.AddRadios(field(150))
	checkBruteForce(t, ch)
	ch.AddRadios(field(150))
	checkBruteForce(t, ch)
	var h discardHandler
	for _, p := range field(20) {
		ch.AddRadio(p, h)
	}
	checkBruteForce(t, ch)
	for round := 0; round < 10; round++ {
		moved := ch.Radio(NodeID(rng.Intn(ch.NumRadios())))
		home := moved.Pos()
		moved.SetPos(geom.Point{X: rng.Float64()*8 - 4, Y: rng.Float64()*8 - 4})
		checkBruteForce(t, ch)
		moved.SetPos(home)
		checkBruteForce(t, ch)
	}
}

// TestFirstListsAfterMoves: radios that move after AddRadios and before
// any list exists get lists for where they are, not for where the batch
// put them.
func TestFirstListsAfterMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ps := make([]geom.Point, 200)
	for i := range ps {
		ps[i] = geom.Point{X: rng.Float64() * 6, Y: rng.Float64() * 6}
	}
	ch, err := NewChannel(des.New(1), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ch.AddRadios(ps)
	for i := 0; i < 20; i++ {
		ch.Radio(NodeID(rng.Intn(len(ps)))).SetPos(geom.Point{X: rng.Float64() * 6, Y: rng.Float64() * 6})
	}
	checkBruteForce(t, ch)
}

// TestFirstListsMemoryLinear: building a network's first lists takes
// memory in proportion to its radios, not to the area they span: a
// radio 10⁹ R away costs what a near one does.
func TestFirstListsMemoryLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	near := make([]geom.Point, 2000)
	for i := range near {
		near[i] = geom.Point{X: rng.Float64() * 25, Y: rng.Float64() * 25}
	}
	far := append(append([]geom.Point{}, near[:len(near)-1]...), geom.Point{X: 1e9, Y: 1e9})
	build := func(positions []geom.Point) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ch, err := NewChannel(des.New(1), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ch.AddRadios(positions)
		ch.InRangePairs()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	nearBytes, farBytes := build(near), build(far)
	if farBytes > nearBytes+nearBytes/10 {
		t.Fatalf("first lists with a radio at 1e9 R allocated %d bytes, %d without it", farBytes, nearBytes)
	}
	if perRadio := nearBytes / uint64(len(near)); perRadio > 1024 {
		t.Fatalf("first lists allocated %d bytes per radio", perRadio)
	}
}

// TestGridInvalidationOnSetPos: neighbor queries after each batch of
// moves see the new geometry.
func TestGridInvalidationOnSetPos(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sched := des.New(1)
	ch, err := NewChannel(sched, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var handlers [30]discardHandler
	for i := 0; i < 30; i++ {
		ch.AddRadio(geom.Point{X: rng.Float64() * 5, Y: rng.Float64() * 5}, &handlers[i])
	}
	for round := 0; round < 20; round++ {
		// Move a random subset, sometimes across many cells.
		for i := 0; i < 30; i++ {
			if rng.Intn(3) == 0 {
				ch.Radio(NodeID(i)).SetPos(geom.Point{X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5})
			}
		}
		for id := 0; id < 30; id++ {
			got := ch.Neighbors(NodeID(id))
			want := brutNeighbors(ch, NodeID(id))
			if !sameIDs(got, want) {
				t.Fatalf("round %d node %d: grid %v, brute force %v", round, id, got, want)
			}
		}
	}
}

// countingHandler tallies deliveries.
type countingHandler struct {
	discardHandler
	frames int
	errors int
}

func (h *countingHandler) OnFrame(Frame) { h.frames++ }
func (h *countingHandler) OnFrameError() { h.errors++ }

// TestGriddedPropagationMatchesAllPairs: a transmission from every node
// in a multi-cell cloud must reach exactly the in-range, in-beam set the
// seed implementation's full scan reached.
func TestGriddedPropagationMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sched := des.New(1)
	p := DefaultParams()
	p.Range = 0.8
	ch, err := NewChannel(sched, p)
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	handlers := make([]countingHandler, n)
	for i := 0; i < n; i++ {
		ch.AddRadio(geom.Point{X: rng.Float64()*4 - 2, Y: rng.Float64()*4 - 2}, &handlers[i])
	}
	for src := 0; src < n; src++ {
		for i := range handlers {
			handlers[i].frames = 0
		}
		tx := ch.Radio(NodeID(src))
		mode := Directed(rng.Float64()*6-3, 1.2)
		if _, err := tx.Transmit(Frame{Type: Data, Src: tx.ID(), Dst: Broadcast, Bytes: 100}, mode); err != nil {
			t.Fatal(err)
		}
		sched.RunAll()
		for i := range handlers {
			want := 0
			if NodeID(i) != tx.ID() &&
				ch.Radio(NodeID(i)).Pos().Dist2(tx.Pos()) <= p.Range*p.Range &&
				mode.Covers(tx.Pos().Bearing(ch.Radio(NodeID(i)).Pos())) {
				want = 1
			}
			if handlers[i].frames != want {
				t.Fatalf("src %d -> node %d: delivered %d, want %d", src, i, handlers[i].frames, want)
			}
		}
	}
}

// TestInRangeListFollowsSetPos: every radio transmits once, which builds
// its in-range list. A peer then moves out of range of its old
// neighbors and into range of a new one, and back. After each move,
// every radio's transmission and neighbor query must match a
// brute-force distance scan.
func TestInRangeListFollowsSetPos(t *testing.T) {
	sched := des.New(1)
	ch, err := NewChannel(sched, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	positions := []geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0, Y: 0.7}, {X: -0.9, Y: 0.2}, {X: 1.6, Y: 0}}
	handlers := make([]countingHandler, len(positions))
	for i, pos := range positions {
		ch.AddRadio(pos, &handlers[i])
	}
	check := func(stage string) {
		t.Helper()
		for src := range handlers {
			for i := range handlers {
				handlers[i].frames = 0
			}
			tx := ch.Radio(NodeID(src))
			if _, err := tx.Transmit(Frame{Type: Data, Src: tx.ID(), Dst: Broadcast, Bytes: 100}, Omni); err != nil {
				t.Fatal(err)
			}
			sched.RunAll()
			var reached []NodeID
			for i, h := range handlers {
				if h.frames > 0 {
					reached = append(reached, NodeID(i))
				}
			}
			want := brutNeighbors(ch, tx.ID())
			if !sameIDs(reached, want) {
				t.Fatalf("%s: node %d reached %v, brute force %v", stage, src, reached, want)
			}
			if got := ch.Neighbors(tx.ID()); !sameIDs(got, want) {
				t.Fatalf("%s: node %d neighbors %v, brute force %v", stage, src, got, want)
			}
		}
	}
	check("initial")
	peer := ch.Radio(1)
	home := peer.Pos()
	peer.SetPos(geom.Point{X: 1.2, Y: 0}) // leaves nodes 0, 2, 3; joins node 4
	check("peer moved out")
	peer.SetPos(home)
	check("peer moved back")
}

// hintCounter also tallies NAV hints.
type hintCounter struct {
	countingHandler
	hints int
}

func (h *hintCounter) OnNAVHint(Frame) { h.hints++ }

// TestBroadcastAllocFree: once the channel pools are warm, one
// transmission costs an exact number of kernel events and allocates
// nothing, whoever hears it. A transmission heard in beam runs a start
// edge, an end edge and the sender's tx-done; one heard only through
// NAV hints skips the start edge; one nobody hears runs tx-done alone.
// The sender sits at the centre of a ring of 16 neighbours at 0.9 R; a
// 17th radio has no neighbour.
func TestBroadcastAllocFree(t *testing.T) {
	beam := 30 * math.Pi / 180
	cases := []struct {
		name          string
		oracle, lone  bool
		mode          Mode
		frames, hints int // heard per transmission, network-wide
		events        uint64
	}{
		{name: "omni", mode: Omni, frames: 16, events: 3},
		{name: "beam", mode: Directed(0.575, beam), frames: 2, events: 3},
		{name: "beam-oracle", oracle: true, mode: Directed(0.575, beam), frames: 2, hints: 14, events: 3},
		{name: "beam-misses-all-oracle", oracle: true, mode: Directed(0.075, beam), hints: 16, events: 2},
		{name: "no-neighbour", lone: true, mode: Omni, events: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			p.NAVOracle = tc.oracle
			sched := des.New(1)
			ch, err := NewChannel(sched, p)
			if err != nil {
				t.Fatal(err)
			}
			var handlers [18]hintCounter
			tx := ch.AddRadio(geom.Point{}, &handlers[0])
			for i := 1; i < 17; i++ {
				ch.AddRadio(geom.Polar(geom.Point{}, 0.9, float64(i)), &handlers[i])
			}
			if lone := ch.AddRadio(geom.Point{X: 10, Y: 10}, &handlers[17]); tc.lone {
				tx = lone
			}
			send := func() {
				if _, err := tx.Transmit(Frame{Type: Data, Bytes: 1460}, tc.mode); err != nil {
					t.Fatal(err)
				}
				sched.RunAll()
			}
			before := sched.Executed()
			send()
			if got := sched.Executed() - before; got != tc.events {
				t.Errorf("one transmission ran %d kernel events, want %d", got, tc.events)
			}
			frames, hints := 0, 0
			for _, h := range handlers {
				frames += h.frames
				hints += h.hints
			}
			if frames != tc.frames || hints != tc.hints {
				t.Fatalf("one transmission delivered %d frames and %d hints, want %d and %d", frames, hints, tc.frames, tc.hints)
			}
			if allocs := testing.AllocsPerRun(50, send); allocs != 0 {
				t.Errorf("steady-state transmission allocates %v per op, want 0", allocs)
			}
		})
	}
}

// discardHandler is a no-op PHY handler.
type discardHandler struct{}

func (discardHandler) OnCarrierBusy() {}
func (discardHandler) OnCarrierIdle() {}
func (discardHandler) OnFrame(Frame)  {}
func (discardHandler) OnFrameError()  {}
func (discardHandler) OnTxDone()      {}
