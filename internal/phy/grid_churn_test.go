package phy

// Mobility coverage for the spatial grid (DESIGN.md §15): randomized
// churn interleaved with transmissions must keep every radio's neighbor
// list and every delivery equal to a brute-force distance scan, across
// seeds and under -race (via `make test`).

import (
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
)

// churnOp is one scripted stimulus: a batch of repositionings followed
// by one directional transmission.
type churnOp struct {
	moves   []churnMove
	src     NodeID
	bearing float64
	width   float64
}

type churnMove struct {
	id  NodeID
	pos geom.Point
}

// churnScript draws a deterministic op sequence.
func churnScript(seed int64, n, rounds int) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]churnOp, rounds)
	for i := range ops {
		nMoves := rng.Intn(8)
		moves := make([]churnMove, nMoves)
		for j := range moves {
			moves[j] = churnMove{
				id:  NodeID(rng.Intn(n)),
				pos: geom.Point{X: rng.Float64()*6 - 3, Y: rng.Float64()*6 - 3},
			}
		}
		ops[i] = churnOp{
			moves:   moves,
			src:     NodeID(rng.Intn(n)),
			bearing: rng.Float64()*6 - 3,
			width:   0.5 + rng.Float64()*2,
		}
	}
	return ops
}

// TestMobilityChurnDifferential: across 4 seeds, after each batch of
// moves every radio's neighbors equal the brute-force scan, and the
// transmission that follows reaches exactly the in-range, in-beam radios.
func TestMobilityChurnDifferential(t *testing.T) {
	const n, rounds = 120, 150
	for _, seed := range []int64{1, 2, 3, 4} {
		sched := des.New(seed)
		p := DefaultParams()
		p.Range = 0.9
		ch, err := NewChannel(sched, p)
		if err != nil {
			t.Fatal(err)
		}
		place := rand.New(rand.NewSource(seed ^ 0x9e37))
		handlers := make([]countingHandler, n)
		for i := range handlers {
			ch.AddRadio(geom.Point{X: place.Float64()*6 - 3, Y: place.Float64()*6 - 3}, &handlers[i])
		}
		for round, op := range churnScript(seed, n, rounds) {
			for _, m := range op.moves {
				ch.Radio(m.id).SetPos(m.pos)
			}
			for id := NodeID(0); id < n; id++ {
				if got, want := ch.Neighbors(id), brutNeighbors(ch, id); !sameIDs(got, want) {
					t.Fatalf("seed %d round %d node %d: neighbors %v, brute force %v", seed, round, id, got, want)
				}
			}
			for i := range handlers {
				handlers[i].frames = 0
			}
			tx, mode := ch.Radio(op.src), Directed(op.bearing, op.width)
			if _, err := tx.Transmit(Frame{Type: Data, Src: op.src, Dst: Broadcast, Bytes: 200}, mode); err != nil {
				t.Fatal(err)
			}
			sched.RunAll()
			var reached, want []NodeID
			for i, h := range handlers {
				if h.frames > 0 {
					reached = append(reached, NodeID(i))
				}
			}
			for _, id := range brutNeighbors(ch, op.src) {
				if mode.Covers(tx.Pos().Bearing(ch.Radio(id).Pos())) {
					want = append(want, id)
				}
			}
			if !sameIDs(reached, want) {
				t.Fatalf("seed %d round %d: node %d reached %v, brute force %v", seed, round, op.src, reached, want)
			}
		}
	}
}

// TestSetPosBetweenHeldCellsAllocFree: a cell keeps its entry and
// capacity when a move empties it, so a radio moving back and forth
// between two cells that have each held a radio allocates nothing.
func TestSetPosBetweenHeldCellsAllocFree(t *testing.T) {
	ch, err := NewChannel(des.New(1), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var h discardHandler
	a, b := geom.Point{X: 0.5, Y: 0.5}, geom.Point{X: 2.5, Y: 0.5}
	r := ch.AddRadio(a, h)
	r.SetPos(b)
	r.SetPos(a)
	if allocs := testing.AllocsPerRun(100, func() {
		r.SetPos(b)
		r.SetPos(a)
	}); allocs != 0 {
		t.Errorf("moving between two held cells allocates %v per round trip, want 0", allocs)
	}
}
