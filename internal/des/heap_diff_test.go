package des

// Differential tests of the calendar queue (a heap for the current
// bucket, ring bucket lists and a far list behind it). The first runs it
// against the stdlib container/heap implementation the scheduler
// originally used: both sides see the same randomized stream of
// inserts, cancellations and bounded runs; the pop order must match
// exactly, including FIFO tie-breaking among simultaneous events, and
// the calendar's invariants are checked after every operation. The
// second schedules from inside events, where ties resolve by chain root,
// and runs it against one heap over every pending timer keyed by less.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refTimer mirrors the scheduler's queue entry for the reference heap.
type refTimer struct {
	at    Time
	seq   uint64
	id    int
	index int
	live  int // position in the test's live slice
}

// refHeap is the container/heap-backed reference: a min-heap over
// (at, seq) with index maintenance, exactly like the pre-optimization
// scheduler queue.
type refHeap []*refTimer

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	tm := x.(*refTimer)
	tm.index = len(*h)
	*h = append(*h, tm)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	tm.index = -1
	*h = old[:n-1]
	return tm
}

// checkCalendar verifies the queue's structure: heap indexes are current
// and every heap timer's bucket is at most curB; each ring list holds
// only its own bucket inside the window, doubly linked; occ and summary
// mark exactly the non-empty lists; every far timer lies above curB and
// at or above farMin; parked counts both.
func checkCalendar(t *testing.T, s *Scheduler) {
	t.Helper()
	for i, tm := range s.heap {
		if int(tm.index) != i || int64(tm.at>>bucketShift) > s.curB {
			t.Fatalf("heap[%d]: index %d, at %d (bucket %d) with curB %d", i, tm.index, tm.at, tm.at>>bucketShift, s.curB)
		}
	}
	parked := 0
	var summary uint64
	for slot := range s.ring {
		if bit := s.occ[slot>>6]>>(slot&63)&1 == 1; bit != (s.ring[slot] != nil) {
			t.Fatalf("slot %d: occupancy bit %v, list empty %v", slot, bit, s.ring[slot] == nil)
		}
		var prev *timer
		for tm := s.ring[slot]; tm != nil; prev, tm = tm, tm.next {
			b := int64(tm.at >> bucketShift)
			if tm.index != inRing || tm.prev != prev || b <= s.curB || b >= s.curB+ringSize || int(b&ringMask) != slot {
				t.Fatalf("slot %d: timer at %d (bucket %d, index %d) with curB %d", slot, tm.at, b, tm.index, s.curB)
			}
			parked++
		}
	}
	for w, bitsSet := range s.occ {
		if bitsSet != 0 {
			summary |= 1 << w
		}
	}
	if summary != s.summary {
		t.Fatalf("summary %#x, occupied words %#x", s.summary, summary)
	}
	var prev *timer
	for tm := s.far; tm != nil; prev, tm = tm, tm.next {
		b := int64(tm.at >> bucketShift)
		if tm.index != inFar || tm.prev != prev || b <= s.curB || b < s.farMin {
			t.Fatalf("far: timer at %d (bucket %d, index %d) with curB %d, farMin %d", tm.at, b, tm.index, s.curB, s.farMin)
		}
		parked++
	}
	if parked != s.parked {
		t.Fatalf("parked = %d, lists hold %d", s.parked, parked)
	}
}

// tierOf names the tier a pending timer sits in.
func tierOf(tm Timer) int {
	switch tm.tm.index {
	case inRing:
		return 1
	case inFar:
		return 2
	default:
		return 0
	}
}

// drawAt picks a due time: near the clock, across the ring's window,
// several windows ahead, exactly on a bucket edge or one below it, equal
// to a pending timer's instant, or in the past (clamped to now).
func drawAt(rng *rand.Rand, now Time, live []*refTimer) Time {
	const bucket = Time(1) << bucketShift
	switch r := rng.Intn(20); {
	case r < 4:
		return now + Time(rng.Intn(100_000))
	case r < 8:
		return now + Time(rng.Int63n(int64(ringSize*bucket)))
	case r < 11:
		return now + Time(rng.Int63n(int64(100*Millisecond)))
	case r < 15:
		k := now/bucket + Time(rng.Intn(2*ringSize+16))
		return k*bucket - Time(rng.Intn(2))
	case r < 18 && len(live) > 0:
		return live[rng.Intn(len(live))].at
	default:
		return Time(rng.Int63n(int64(now) + 1))
	}
}

// TestTypedHeapMatchesContainerHeap drives the scheduler and the
// reference heap with identical random insert/cancel/run workloads and
// checks they agree on the exact firing order and pending count.
func TestTypedHeapMatchesContainerHeap(t *testing.T) {
	var cancels [3]int // by tier: heap, ring, far
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*1009 + 1))
		s := New(0)

		var ref refHeap
		var refSeq uint64
		var live []*refTimer           // reference entries still queued
		handles := make(map[int]Timer) // id -> scheduler handle
		var fired []int                // scheduler-side firing order
		nextID := 0

		insert := func(at Time) {
			id := nextID
			nextID++
			handles[id] = s.AtEvent(at, call(func() { fired = append(fired, id) }))
			// The scheduler clamps to Now; mirror that.
			if at < s.Now() {
				at = s.Now()
			}
			refSeq++
			tm := &refTimer{at: at, seq: refSeq, id: id}
			heap.Push(&ref, tm)
			tm.live = len(live)
			live = append(live, tm)
		}
		drop := func(tm *refTimer) {
			last := live[len(live)-1]
			live[tm.live], last.live = last, tm.live
			live = live[:len(live)-1]
		}
		// expect pops the reference up to horizon and matches the
		// scheduler's firing order against it.
		expect := func(horizon Time, what string) {
			for ref.Len() > 0 && ref[0].at <= horizon {
				tm := heap.Pop(&ref).(*refTimer)
				drop(tm)
				if len(fired) == 0 {
					t.Fatalf("trial %d: %s: reference fired %d, scheduler fired nothing", trial, what, tm.id)
				}
				if got := fired[0]; got != tm.id {
					t.Fatalf("trial %d: %s: pop order diverged: scheduler %d, reference %d", trial, what, got, tm.id)
				}
				fired = fired[1:]
			}
			if len(fired) != 0 {
				t.Fatalf("trial %d: %s: scheduler fired %d extra events", trial, what, len(fired))
			}
		}

		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(20); {
			case r < 10:
				insert(drawAt(rng, s.Now(), live))
			case r < 15 && len(live) > 0: // cancel a random live timer
				tm := live[rng.Intn(len(live))]
				h := handles[tm.id]
				cancels[tierOf(h)]++
				if !s.Cancel(h) {
					t.Fatalf("trial %d: Cancel of live timer %d failed", trial, tm.id)
				}
				heap.Remove(&ref, tm.index)
				drop(tm)
			case r < 17: // one step
				ran := s.Step()
				if ran != (ref.Len() > 0) {
					t.Fatalf("trial %d: Step ran %v with %d pending in the reference", trial, ran, ref.Len())
				}
				if ran {
					tm := heap.Pop(&ref).(*refTimer)
					drop(tm)
					if len(fired) != 1 || fired[0] != tm.id {
						t.Fatalf("trial %d: step fired %v, reference %d", trial, fired, tm.id)
					}
					fired = fired[:0]
				}
			default: // run to a horizon, often mid-window or on an edge
				var horizon Time
				switch rng.Intn(4) {
				case 0:
					horizon = s.Now() + Time(rng.Intn(20_000))
				case 1:
					horizon = s.Now() + Time(rng.Int63n(int64(2*Millisecond)))
				case 2:
					horizon = s.Now() + Time(rng.Int63n(int64(50*Millisecond)))
				default:
					horizon = drawAt(rng, s.Now(), live)
				}
				s.Run(horizon)
				expect(horizon, "run")
				// Run may have loaded a bucket beyond its horizon:
				// schedule into the gap before that bucket.
				if loaded := Time(s.curB) << bucketShift; loaded > s.Now() && rng.Intn(2) == 0 {
					for k := rng.Intn(4); k >= 0; k-- {
						insert(s.Now() + Time(rng.Int63n(int64(loaded-s.Now()))))
					}
				}
			}
			if s.Pending() != ref.Len() {
				t.Fatalf("trial %d op %d: Pending() = %d, reference holds %d", trial, op, s.Pending(), ref.Len())
			}
			checkCalendar(t, s)
		}
		// Drain both completely.
		s.RunAll()
		expect(1<<62, "drain")
		if s.Pending() != 0 || ref.Len() != 0 {
			t.Fatalf("trial %d: %d events still pending after drain (reference %d)", trial, s.Pending(), ref.Len())
		}
		checkCalendar(t, s)
	}
	for tier, n := range cancels {
		if n == 0 {
			t.Errorf("no cancel reached tier %d (heap, ring, far)", tier)
		}
	}
}

// keyHeap is one container/heap over every pending timer, ordered by the
// scheduler's own less: the queue the calendar must reproduce.
type keyHeap struct {
	s  *Scheduler
	es []*keyEntry
}

// keyEntry is a copy of a pending timer's ordering key.
type keyEntry struct {
	key   timer
	id    int
	index int
}

func (h *keyHeap) Len() int           { return len(h.es) }
func (h *keyHeap) Less(i, j int) bool { return h.s.less(&h.es[i].key, &h.es[j].key) }
func (h *keyHeap) Swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.es[i].index, h.es[j].index = i, j
}
func (h *keyHeap) Push(x any) {
	e := x.(*keyEntry)
	e.index = len(h.es)
	h.es = append(h.es, e)
}
func (h *keyHeap) Pop() any {
	e := h.es[len(h.es)-1]
	h.es = h.es[:len(h.es)-1]
	return e
}

// TestCalendarMatchesOneHeap runs callback-driven workloads, where
// events and countdowns are scheduled from inside other events so that
// ties resolve by scheduling instant and chain root (DESIGN.md §12), on
// a lattice of steps that spans the heap, the ring and the far list. The
// calendar must fire them in the order one heap over all pending timers,
// keyed by less, gives.
func TestCalendarMatchesOneHeap(t *testing.T) {
	const bucket = Time(1) << bucketShift
	steps := []Time{0, Microsecond, 20 * Microsecond, 50 * Microsecond, bucket, bucket - 1, 3 * bucket, 5 * Millisecond, ringSize * bucket, 40 * Millisecond}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 77))
		s := New(0)
		ref := &keyHeap{s: s}
		entries := map[int]*keyEntry{}
		handles := map[int]Timer{}
		var ids []int // live ids, for cancels
		nextID, fired := 0, 0

		var schedule func()
		schedule = func() {
			id := nextID
			nextID++
			ev := call(func() {
				e := heap.Pop(ref).(*keyEntry)
				if e.id != id {
					t.Fatalf("trial %d event %d at %v: calendar fired %d, one heap %d", trial, fired, s.Now(), id, e.id)
				}
				delete(entries, id)
				fired++
				for k := 1 + rng.Intn(2); k > 0 && s.Pending() < 400; k-- {
					schedule()
				}
				if len(ids) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(ids))
					if e, ok := entries[ids[i]]; ok && s.Cancel(handles[ids[i]]) {
						heap.Remove(ref, e.index)
						delete(entries, ids[i])
					}
					ids[i] = ids[len(ids)-1]
					ids = ids[:len(ids)-1]
				}
			})

			var h Timer
			switch r := rng.Intn(10); {
			case r == 0:
				h = s.Countdown(1+rng.Intn(40), steps[2], ev)
			case r < 3 && s.running:
				h = s.ScheduleEvent(s.cur.at-s.cur.sched, ev) // continue the running event's chain
			default:
				h = s.ScheduleEvent(steps[rng.Intn(len(steps))], ev)
			}
			e := &keyEntry{key: *h.tm, id: id}
			heap.Push(ref, e)
			entries[id] = e
			handles[id] = h
			ids = append(ids, id)
		}
		for i := 0; i < 20; i++ {
			schedule()
		}
		for fired < 20_000 && s.Step() {
			if s.Pending() != ref.Len() {
				t.Fatalf("trial %d: Pending() = %d, one heap holds %d", trial, s.Pending(), ref.Len())
			}
		}
		if fired < 20_000 {
			t.Fatalf("trial %d: queue drained after %d events", trial, fired)
		}
		checkCalendar(t, s)
	}
}
