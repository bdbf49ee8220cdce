package des

// Countdown ordering tests. A countdown final must fire, and an
// interrupter must see the slots left, exactly as the per-slot tick
// chain "wait one slot, repeat until no slot is left" it stands for.
// The fixed cases pin each tie of the ordering contract (DESIGN.md §12);
// the randomized differential runs both forms side by side on a
// 1-unit time lattice where ties are everywhere.

import (
	"fmt"
	"reflect"
	"testing"
)

const (
	tSlot = 20
	tDIFS = 50
	tProp = 1
)

// cdWorld runs countdowns either as per-slot tick chains (the
// reference) or as one Countdown timer each.
type cdWorld struct {
	s       *Scheduler
	perSlot bool
	log     []string
}

// cd is one countdown owner.
type cd struct {
	name    string
	left    int // per-slot form: slots still to run
	timer   Timer
	running bool
	waiting bool // a DIFS wait is pending
	onDone  func()
}

func (w *cdWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%d ", w.s.Now())+fmt.Sprintf(format, args...))
}

// start begins c's countdown of b slots at the running instant.
func (w *cdWorld) start(c *cd, b int) {
	done := func() {
		c.running = false
		w.logf("%s fires", c.name)
		if c.onDone != nil {
			c.onDone()
		}
	}
	if b == 0 {
		done()
		return
	}
	c.running = true
	if !w.perSlot {
		c.timer = w.s.Countdown(b, tSlot, done)
		return
	}
	c.left = b
	var tick func()
	tick = func() {
		if c.left--; c.left == 0 {
			done()
			return
		}
		c.timer = w.s.Schedule(tSlot, tick)
	}
	c.timer = w.s.Schedule(tSlot, tick)
}

// interrupt stops c's countdown and reports the slots it had left.
func (w *cdWorld) interrupt(c *cd, why string) int {
	if !c.running {
		w.logf("%s %s: idle", why, c.name)
		return -1
	}
	left := c.left
	if !w.perSlot {
		left = w.s.SlotsLeft(c.timer)
	}
	w.s.Cancel(c.timer)
	c.running = false
	w.logf("%s %s: %d left", why, c.name, left)
	return left
}

// difs schedules c's DIFS wait from the running instant, unless c is
// already waiting or counting down; its expiry starts a countdown of b
// slots.
func (w *cdWorld) difs(c *cd, b int) {
	if c.waiting || c.running {
		return
	}
	c.waiting = true
	w.s.Schedule(tDIFS, func() {
		c.waiting = false
		w.start(c, b)
	})
}

// both runs setup under each form and returns the two logs.
func both(t *testing.T, setup func(w *cdWorld), until Time) (perSlot, oneTimer []string) {
	t.Helper()
	for _, ps := range []bool{true, false} {
		w := &cdWorld{s: New(1), perSlot: ps}
		setup(w)
		w.s.Run(until)
		if ps {
			perSlot = w.log
		} else {
			oneTimer = w.log
		}
	}
	return perSlot, oneTimer
}

func expectLog(t *testing.T, setup func(w *cdWorld), until Time, want []string) {
	t.Helper()
	ref, got := both(t, setup, until)
	if !reflect.DeepEqual(ref, want) {
		t.Fatalf("per-slot reference log\n%q\nwant\n%q", ref, want)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("one-timer log\n%q\nper-slot log\n%q", got, ref)
	}
}

func TestCountdownTieLaterStartFirst(t *testing.T) {
	a, b := &cd{name: "a"}, &cd{name: "b"}
	// a starts at 50 with 5 slots, b at 90 with 3: both due at 150.
	expectLog(t, func(w *cdWorld) {
		w.difs(a, 5)
		w.s.At(40, func() { w.difs(b, 3) })
	}, 1000, []string{"150 b fires", "150 a fires"})
}

func TestCountdownTieEqualStartsFollowStartingEvents(t *testing.T) {
	for _, first := range []string{"a", "b"} {
		a, b := &cd{name: "a"}, &cd{name: "b"}
		order := []*cd{a, b}
		if first == "b" {
			order = []*cd{b, a}
		}
		// Both waits expire at 60; the one scheduled first starts first.
		expectLog(t, func(w *cdWorld) {
			w.s.At(5, func() { w.s.At(60, func() { w.start(order[0], 4) }) })
			w.s.At(10, func() { w.s.At(60, func() { w.start(order[1], 4) }) })
		}, 1000, []string{"140 " + order[0].name + " fires", "140 " + order[1].name + " fires"})
	}
}

func TestCountdownTieWithOrdinaryEvents(t *testing.T) {
	// A countdown from 50 with 5 slots is due at 150; its last tick would
	// be scheduled at 130.
	a := &cd{name: "a"}
	mark := func(w *cdWorld, tag string) func() { return func() { w.logf("%s", tag) } }
	expectLog(t, func(w *cdWorld) {
		w.difs(a, 5)
		// Scheduled before the last tick: fires first.
		w.s.At(3, func() { w.s.At(150, mark(w, "before")) })
		// Scheduled after it: fires after.
		w.s.At(140, func() { w.s.At(150, mark(w, "after")) })
		// Exactly one slot ahead, by an event scheduled more than a slot
		// earlier: that event runs before the tick at 130, so its child
		// goes first.
		w.s.At(7, func() { w.s.At(130, func() { w.s.Schedule(tSlot, mark(w, "slot-early")) }) })
		// Exactly one slot ahead, by an event scheduled less than a slot
		// earlier: it runs after the tick at 130, so the final goes first.
		w.s.At(125, func() { w.s.At(130, func() { w.s.Schedule(tSlot, mark(w, "slot-late")) }) })
	}, 1000, []string{"150 before", "150 slot-early", "150 a fires", "150 slot-late", "150 after"})
}

func TestCountdownTieWithSlotPeriodicChain(t *testing.T) {
	// A one-slot periodic chain started before any countdown (a 20-unit
	// telemetry tick or refresh started at build time) orders after every
	// countdown final it ties with.
	a := &cd{name: "a"}
	expectLog(t, func(w *cdWorld) {
		n := 0
		var tick func()
		tick = func() {
			if n++; n < 10 {
				w.s.Schedule(tSlot, tick)
			}
			if w.s.Now() == 150 {
				w.logf("periodic")
			}
		}
		w.s.At(30, tick) // on the countdown's slot grid
		w.difs(a, 5)
	}, 1000, []string{"150 a fires", "150 periodic"})
}

func TestCountdownBusyEdgeOnBoundary(t *testing.T) {
	// A carrier-busy edge is scheduled one propagation delay ahead: on an
	// intermediate boundary the slot has elapsed; on the final the
	// transmission wins.
	for _, tc := range []struct {
		at   Time
		want []string
	}{
		{110, []string{"110 busy a: 2 left"}},
		{111, []string{"111 busy a: 2 left"}},
		{109, []string{"109 busy a: 3 left"}},
		{150, []string{"150 a fires", "150 busy a: idle"}},
	} {
		a := &cd{name: "a"}
		expectLog(t, func(w *cdWorld) {
			w.difs(a, 5)
			w.s.At(tc.at-tProp, func() { w.s.Schedule(tProp, func() { w.interrupt(a, "busy") }) })
		}, 1000, tc.want)
	}
}

func TestCountdownHintOnBoundary(t *testing.T) {
	// An interrupter scheduled long before (an oracle NAV hint at a frame
	// end) runs before a boundary tick due at the same instant: that slot
	// has not elapsed, and on the final the interrupter wins.
	for _, tc := range []struct {
		at   Time
		want []string
	}{
		{110, []string{"110 hint a: 3 left"}},
		{150, []string{"150 hint a: 1 left"}},
	} {
		a := &cd{name: "a"}
		expectLog(t, func(w *cdWorld) {
			w.difs(a, 5)
			w.s.At(tc.at, func() { w.interrupt(a, "hint") })
		}, 1000, tc.want)
	}
}

func TestCountdownInterruptAtStart(t *testing.T) {
	// An interrupter at the countdown's own start instant finds every slot
	// left.
	a := &cd{name: "a"}
	expectLog(t, func(w *cdWorld) {
		w.difs(a, 5)
		w.s.At(49, func() { w.s.Schedule(tProp, func() { w.interrupt(a, "busy") }) })
	}, 1000, []string{"50 busy a: 5 left"})
}

func TestCountdownHandle(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.Countdown(3, tSlot, func() { fired++ })
	if !tm.Active() || tm.When() != 3*tSlot {
		t.Fatalf("fresh countdown: active=%v when=%v, want true, %v", tm.Active(), tm.When(), 3*tSlot)
	}
	if got := s.SlotsLeft(tm); got != 3 {
		t.Fatalf("SlotsLeft before any slot = %d, want 3", got)
	}
	if !s.Cancel(tm) || tm.Active() || s.Cancel(tm) {
		t.Fatal("Cancel must take effect once and leave the handle inactive")
	}
	if got := s.SlotsLeft(tm); got != 0 {
		t.Fatalf("SlotsLeft on a canceled handle = %d, want 0", got)
	}
	// The recycled entry serves a new countdown; the stale handle must
	// neither see nor cancel it.
	next := s.Countdown(2, tSlot, func() { fired++ })
	if next.tm != tm.tm {
		t.Fatal("expected the free list to recycle the canceled entry")
	}
	if tm.Active() || s.Cancel(tm) {
		t.Fatal("stale handle affected the recycled countdown")
	}
	s.RunAll()
	if fired != 1 || next.Active() || s.Now() != 2*tSlot {
		t.Fatalf("fired=%d active=%v now=%v, want 1, false, %v", fired, next.Active(), s.Now(), 2*tSlot)
	}
}

func TestCountdownNextAtCountsSlotBoundaries(t *testing.T) {
	s := New(1)
	s.TrackCountdowns()
	var tm Timer
	s.At(5, func() { tm = s.Countdown(4, tSlot, func() {}) })
	s.At(30, func() {})
	s.RunBefore(6)
	s.AdvanceTo(6)
	if at, ok := s.NextAt(); !ok || at != 25 {
		t.Fatalf("NextAt = %v,%v, want the first slot boundary 25", at, ok)
	}
	s.AdvanceTo(26)
	if at, _ := s.NextAt(); at != 30 {
		t.Fatalf("NextAt = %v, want the ordinary event at 30 before boundary 45", at)
	}
	s.RunBefore(31)
	s.AdvanceTo(31)
	if at, _ := s.NextAt(); at != 45 {
		t.Fatalf("NextAt = %v, want boundary 45", at)
	}
	s.Cancel(tm)
	if _, ok := s.NextAt(); ok {
		t.Fatal("a canceled countdown still counts as pending")
	}
}

// TestCountdownDifferential runs agents that contend, get interrupted by
// busy edges and long-scheduled hints, and restart with the slots they
// had left, next to a one-slot periodic chain and one-slot ordinary
// events, on a lattice where ties are frequent. Both forms must log the
// same history.
func TestCountdownDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		setup := func(w *cdWorld) {
			rng := w.s.Rand()
			agents := make([]*cd, 6)
			for i := range agents {
				c := &cd{name: fmt.Sprintf("n%d", i)}
				agents[i] = c
				c.onDone = func() { w.s.Schedule(Time(rng.Intn(4))*10, func() { w.difs(c, rng.Intn(8)) }) }
				w.s.At(Time(rng.Intn(40)), func() { w.difs(c, rng.Intn(8)) })
			}
			var busy func()
			busy = func() {
				c := agents[rng.Intn(len(agents))]
				switch rng.Intn(3) {
				case 0:
					w.s.Schedule(tProp, func() {
						if left := w.interrupt(c, "busy"); left >= 0 {
							w.s.Schedule(Time(100+rng.Intn(5)*tSlot), func() { w.difs(c, left) })
						}
					})
				case 1:
					w.s.Schedule(200+tProp, func() {
						if left := w.interrupt(c, "hint"); left >= 0 {
							w.difs(c, left)
						}
					})
				default:
					w.s.Schedule(tSlot, func() { w.logf("ordinary") })
				}
				w.s.Schedule(Time(1+rng.Intn(3))*10, busy)
			}
			w.s.At(Time(rng.Intn(20)), busy)
			var periodic func()
			periodic = func() {
				w.logf("periodic")
				w.s.Schedule(tSlot, periodic)
			}
			w.s.Schedule(tSlot, periodic)
		}
		ref, got := both(t, setup, 20_000)
		if !reflect.DeepEqual(got, ref) {
			for i := range ref {
				if i >= len(got) || got[i] != ref[i] {
					t.Fatalf("seed %d: histories diverge at entry %d: one-timer %q, per-slot %q", seed, i, got[min(i, len(got)-1)], ref[i])
				}
			}
			t.Fatalf("seed %d: one-timer history has %d extra entries", seed, len(got)-len(ref))
		}
	}
}
