package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// call adapts a closure to Event for the tests that schedule closures;
// the kernel itself schedules typed events only.
type call func()

func (f call) Fire() { f() }

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := (1500 * Microsecond).Microseconds(); got != 1500 {
		t.Errorf("Microseconds = %v, want 1500", got)
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond || Microsecond != 1000*Nanosecond {
		t.Error("time unit ladder inconsistent")
	}
}

func TestScheduleAndRunOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.ScheduleEvent(30, call(func() { order = append(order, 3) }))
	s.ScheduleEvent(10, call(func() { order = append(order, 1) }))
	s.ScheduleEvent(20, call(func() { order = append(order, 2) }))
	if n := s.RunAll(); n != 3 {
		t.Fatalf("RunAll executed %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("execution order %v, want [1 2 3]", order)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now = %v, want 30", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.AtEvent(50, call(func() { order = append(order, i) }))
	}
	s.RunAll()
	if !sort.IntsAreSorted(order) {
		t.Error("simultaneous events did not run in scheduling order")
	}
	if len(order) != 100 {
		t.Errorf("ran %d events, want 100", len(order))
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		if len(ticks) < 5 {
			s.ScheduleEvent(10, call(tick))
		}
	}
	s.ScheduleEvent(0, call(tick))
	s.RunAll()
	want := []Time{0, 10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.ScheduleEvent(10, call(func() { fired = true }))
	if !tm.Active() {
		t.Error("timer should be active before firing")
	}
	if !s.Cancel(tm) {
		t.Error("first Cancel should succeed")
	}
	if s.Cancel(tm) {
		t.Error("second Cancel should report false")
	}
	if tm.Active() {
		t.Error("canceled timer should not be active")
	}
	s.RunAll()
	if fired {
		t.Error("canceled timer fired")
	}
	if s.Executed() != 0 {
		t.Errorf("Executed = %d, want 0", s.Executed())
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New(1)
	tm := s.ScheduleEvent(5, call(func() {}))
	s.RunAll()
	if s.Cancel(tm) {
		t.Error("Cancel after firing should report false")
	}
	if tm.Active() {
		t.Error("fired timer should not be active")
	}
}

func TestCancelZeroHandle(t *testing.T) {
	s := New(1)
	var tm Timer
	if s.Cancel(tm) {
		t.Error("Cancel of the zero handle should report false")
	}
	if tm.Active() {
		t.Error("zero handle should not be active")
	}
	if tm.When() != 0 {
		t.Errorf("zero handle When = %v, want 0", tm.When())
	}
}

// TestWhenOnlyWhilePending: a handle reports its due time while the
// timer is pending and 0 once it fired or was canceled, even after the
// entry is recycled for a timer due at another time. The handle itself
// is 16 bytes.
func TestWhenOnlyWhilePending(t *testing.T) {
	if size := unsafe.Sizeof(Timer{}); size != 16 {
		t.Errorf("Timer is %d bytes, want 16", size)
	}
	s := New(1)
	fired := s.ScheduleEvent(30, call(func() {}))
	canceled := s.ScheduleEvent(40, call(func() {}))
	if fired.When() != 30 || canceled.When() != 40 {
		t.Fatalf("pending When = %v and %v, want 30 and 40", fired.When(), canceled.When())
	}
	s.Cancel(canceled)
	s.Run(35)
	later := s.ScheduleEvent(1000, call(func() {})) // reuses a recycled entry
	if fired.When() != 0 || canceled.When() != 0 {
		t.Errorf("done When = %v and %v, want 0", fired.When(), canceled.When())
	}
	if later.When() != 1035 {
		t.Errorf("recycled entry's When = %v, want 1035", later.When())
	}
}

// TestStaleHandleSafety: a handle retained past its timer's firing must
// stay inert even after the underlying entry is recycled for a new
// event. This is the contract that makes the timer free list safe.
func TestStaleHandleSafety(t *testing.T) {
	s := New(1)
	stale := s.ScheduleEvent(1, call(func() {}))
	s.RunAll()
	// The free list now holds the fired entry; the next schedule reuses it.
	fresh := s.ScheduleEvent(10, call(func() {}))
	if stale.Active() {
		t.Error("stale handle reports active after its timer fired")
	}
	if s.Cancel(stale) {
		t.Error("stale handle canceled a recycled timer")
	}
	if !fresh.Active() {
		t.Fatal("recycled timer should be active for its new owner")
	}
	if !s.Cancel(fresh) {
		t.Error("fresh handle failed to cancel its own timer")
	}
	// Same protection after cancellation recycles the entry.
	reused := s.ScheduleEvent(20, call(func() {}))
	if fresh.Active() || s.Cancel(fresh) {
		t.Error("canceled handle affects the reused entry")
	}
	if !reused.Active() {
		t.Error("reused entry should be active")
	}
}

// TestSteadyStateAllocFree: once the free list is warm, scheduling,
// canceling and firing performs no heap allocation, whichever tier a
// timer lands in: the heap (a few ns ahead), a ring bucket (50 µs, 5 ms)
// or the far list (100 ms).
func TestSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	round := func() {
		for i := 0; i < 32; i++ {
			s.ScheduleEvent(Time(i%7), call(fn))
		}
		for _, d := range []Time{50 * Microsecond, 5 * Millisecond, 100 * Millisecond} {
			s.Cancel(s.ScheduleEvent(d, call(fn)))
			s.ScheduleEvent(d, call(fn))
		}
		s.RunAll()
	}
	// Warm the free list and heap capacity.
	for i := 0; i < 4; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Errorf("steady-state scheduling allocates %v per run, want 0", allocs)
	}
}

// pingEvent implements Event for the closure-free scheduling path.
type pingEvent struct {
	s     *Scheduler
	fires int
	last  Time
}

func (e *pingEvent) Fire() {
	e.fires++
	e.last = e.s.Now()
}

func TestScheduleEvent(t *testing.T) {
	s := New(1)
	ev := &pingEvent{s: s}
	s.ScheduleEvent(15, ev)
	tm := s.AtEvent(30, ev)
	s.ScheduleEvent(40, ev)
	s.Cancel(tm)
	s.RunAll()
	if ev.fires != 2 {
		t.Errorf("event fired %d times, want 2 (one canceled)", ev.fires)
	}
	if ev.last != 40 {
		t.Errorf("last firing at %v, want 40", ev.last)
	}
	if s.Executed() != 2 {
		t.Errorf("Executed = %d, want 2", s.Executed())
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.ScheduleEvent(5, ev)
		s.RunAll()
	})
	if allocs != 0 {
		t.Errorf("pooled event scheduling allocates %v per run, want 0", allocs)
	}
}

// TestEventClosureInterleaving: func-typed and pointer events share one
// queue and one FIFO ordering.
func TestEventClosureInterleaving(t *testing.T) {
	s := New(1)
	var order []string
	ev := orderEvent{log: &order, tag: "event"}
	s.AtEvent(10, call(func() { order = append(order, "fn1") }))
	s.AtEvent(10, &ev)
	s.AtEvent(10, call(func() { order = append(order, "fn2") }))
	s.RunAll()
	want := []string{"fn1", "event", "fn2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

type orderEvent struct {
	log *[]string
	tag string
}

func (e *orderEvent) Fire() { *e.log = append(*e.log, e.tag) }

func TestRunUntil(t *testing.T) {
	s := New(1)
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20, 25} {
		at := at
		s.AtEvent(at, call(func() { ran = append(ran, at) }))
	}
	n := s.Run(15)
	if n != 3 {
		t.Errorf("Run(15) executed %d, want 3 (inclusive boundary)", n)
	}
	if s.Now() != 15 {
		t.Errorf("Now = %v, want 15", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	n = s.Run(100)
	if n != 2 {
		t.Errorf("second Run executed %d, want 2", n)
	}
	if s.Now() != 100 {
		t.Errorf("Now advances to the run horizon: %v, want 100", s.Now())
	}
}

func TestRunAdvancesClockWithEmptyQueue(t *testing.T) {
	s := New(1)
	s.Run(500)
	if s.Now() != 500 {
		t.Errorf("Now = %v, want 500", s.Now())
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	s := New(1)
	s.ScheduleEvent(100, call(func() {}))
	s.RunAll()
	if s.Now() != 100 {
		t.Fatalf("Now = %v", s.Now())
	}
	var at Time
	tm := s.AtEvent(50, call(func() { at = s.Now() })) // in the past
	if tm.When() != 100 {
		t.Errorf("When = %v, want clamped to 100", tm.When())
	}
	s.RunAll()
	if at != 100 {
		t.Errorf("past event ran at %v, want 100", at)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	s := New(1)
	ran := false
	s.ScheduleEvent(-5, call(func() { ran = true }))
	s.RunAll()
	if !ran || s.Now() != 0 {
		t.Errorf("negative delay: ran=%v now=%v, want true/0", ran, s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []Time {
		s := New(seed)
		var log []Time
		var step func()
		step = func() {
			log = append(log, s.Now())
			if len(log) < 200 {
				s.ScheduleEvent(Time(s.Rand().Intn(100)+1), call(step))
			}
		}
		s.ScheduleEvent(0, call(step))
		s.RunAll()
		return log
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different run lengths for same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// TestClockMonotonicity: no matter how events are scheduled, the observed
// clock at execution time never decreases.
func TestClockMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		rng := rand.New(rand.NewSource(seed))
		var times []Time
		for i := 0; i < 100; i++ {
			s.AtEvent(Time(rng.Intn(1000)), call(func() { times = append(times, s.Now()) }))
		}
		s.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCancelStorm: heavy cancellation (the MAC workload) must not corrupt
// the queue.
func TestCancelStorm(t *testing.T) {
	s := New(7)
	rng := rand.New(rand.NewSource(99))
	var live, canceled int
	var timers []Timer
	for i := 0; i < 10000; i++ {
		tm := s.AtEvent(Time(rng.Intn(5000)), call(func() { live++ }))
		timers = append(timers, tm)
	}
	for _, tm := range timers {
		if rng.Intn(2) == 0 {
			if s.Cancel(tm) {
				canceled++
			}
		}
	}
	s.RunAll()
	if live+canceled != 10000 {
		t.Errorf("live %d + canceled %d != 10000", live, canceled)
	}
	if uint64(live) != s.Executed() {
		t.Errorf("Executed = %d, want %d", s.Executed(), live)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New(1)
	if s.Step() {
		t.Error("Step on empty queue should return false")
	}
	tm := s.ScheduleEvent(1, call(func() {}))
	s.Cancel(tm)
	if s.Step() {
		t.Error("Step with only canceled events should return false")
	}
}

// TestSchedulerAgainstReferenceModel stress-tests the event heap against
// a brute-force reference: random schedules and cancellations must fire
// in exactly the order a sort-based model predicts.
func TestSchedulerAgainstReferenceModel(t *testing.T) {
	type ref struct {
		at    Time
		seq   int
		alive bool
	}
	for trial := 0; trial < 20; trial++ {
		s := New(int64(trial))
		rng := rand.New(rand.NewSource(int64(trial) * 7))
		var (
			model  []*ref
			timers []Timer
			fired  []int
		)
		for i := 0; i < 500; i++ {
			at := Time(rng.Intn(10000))
			r := &ref{at: at, seq: i, alive: true}
			model = append(model, r)
			i := i
			timers = append(timers, s.AtEvent(at, call(func() { fired = append(fired, i) })))
		}
		for i, tm := range timers {
			if rng.Intn(3) == 0 {
				s.Cancel(tm)
				model[i].alive = false
			}
		}
		s.RunAll()
		var want []int
		alive := make([]*ref, 0, len(model))
		for _, r := range model {
			if r.alive {
				alive = append(alive, r)
			}
		}
		sort.Slice(alive, func(a, b int) bool {
			if alive[a].at != alive[b].at {
				return alive[a].at < alive[b].at
			}
			return alive[a].seq < alive[b].seq
		})
		for _, r := range alive {
			want = append(want, r.seq)
		}
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: order diverges at %d: got %d want %d", trial, i, fired[i], want[i])
			}
		}
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Microsecond).String(); got != "1.5ms" {
		t.Errorf("String = %q, want 1.5ms", got)
	}
}
