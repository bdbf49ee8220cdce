// Package des is a deterministic discrete-event simulation kernel: a
// monotonic virtual clock, a typed binary-heap event queue with stable
// FIFO ordering among simultaneous events, cancellable timers, slotted
// countdowns that cost one event however many slots they run, and a
// seeded random stream. It is single-threaded by design — protocol models
// run as callbacks on the scheduler goroutine, which makes runs exactly
// reproducible for a given seed.
//
// The event queue is built for the MAC workload: millions of schedules
// per simulated second, most of them canceled before they fire. Timers
// are recycled through a free list, the heap stores typed pointers (no
// interface boxing), and cancellation removes the entry immediately via
// its heap index — so steady-state scheduling performs no allocation and
// canceled events leave no garbage behind. Timer handles are small
// generation-checked values: a handle retained after its timer fired (or
// was canceled and recycled) safely reports inactive instead of aliasing
// a later event.
package des

import (
	"math/rand"
	"time"
)

// Time is a simulation timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a simulation duration to floating-point seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// Microseconds converts a simulation duration to floating-point
// microseconds.
func (t Time) Microseconds() float64 {
	return float64(t) / float64(Microsecond)
}

// String renders the time like a time.Duration (both are nanosecond
// counts).
func (t Time) String() string {
	return time.Duration(t).String()
}

// Event is a scheduled action dispatched without a closure. Hot callers
// (the PHY layer) pool Event implementations and schedule them via
// AtEvent/ScheduleEvent, so delivering a frame to a dense neighborhood
// allocates nothing.
type Event interface {
	// Fire runs the event at its due time, on the scheduler goroutine.
	Fire()
}

// funcEvent adapts a plain callback to Event. A func value is
// pointer-shaped, so the conversion stores it in the interface word
// without allocating.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// The queue orders events by (at, sched, root): due time, then the
// instant the event was scheduled, then — only for events scheduled
// exactly as far ahead as their scheduling event was — the "root" of
// that chain of equal steps. For ordinary events sched is Now() at
// insertion, which never decreases along insertion order, so their
// order is plain FIFO. A countdown final (see Countdown) is one event
// standing for a chain of per-slot ticks; it carries the sched and root
// its last tick would have had, so it lands exactly where the tick
// chain's last event would have. DESIGN.md §12 derives the rule.

// root flag bits, stored below the root's execution index in rootKey.
const (
	// rootEarly marks a root that executes before the chain events due
	// at its own instant: its sched lies more than one step back.
	rootEarly = 1 << iota
	// rootCountdown marks a countdown final tracked for NextAt.
	rootCountdown
	rootShift = 2
)

// timer is one pending queue entry. Entries are owned by the scheduler
// and recycled through a free list once fired or canceled; external code
// only ever sees them through generation-checked Timer handles.
type timer struct {
	at    Time
	sched Time // scheduling instant (a countdown final: its last tick's)
	seq   uint64
	// rootAt and rootKey identify the first event of the chain of
	// equal-step scheduling that led here: its instant, and its place
	// in execution order (2i for the i-th executed event, odd for a
	// root outside any callback) shifted past the root flag bits.
	rootAt  Time
	rootKey uint64
	ev      Event
	gen     uint32 // bumped on recycle; stale handles mismatch
	index   int32  // position in the heap array
}

// Timer is a cancellable handle for a scheduled event. The zero value is
// an inert handle: not active, and cancelling it is a no-op. Handles stay
// safe to retain indefinitely — after the event fires (or is canceled)
// the underlying entry may be recycled for a new event, and the
// generation check makes the old handle report inactive rather than
// affect the newcomer.
type Timer struct {
	tm  *timer
	gen uint32
	at  Time
}

// When returns the simulated time the timer is (or was) due to fire. The
// zero handle returns 0.
func (t Timer) When() Time {
	return t.at
}

// Active reports whether the timer is still pending: neither fired nor
// canceled.
func (t Timer) Active() bool {
	return t.tm != nil && t.tm.gen == t.gen
}

// Scheduler owns the virtual clock and the pending-event queue.
type Scheduler struct {
	now   Time
	heap  []*timer
	free  []*timer
	seq   uint64
	rng   *rand.Rand
	count uint64 // events executed

	// cur is the ordering key of the event being executed (valid while
	// running): insertions derive their chain root from it, and
	// SlotsLeft compares a countdown's virtual ticks against it.
	cur     timer
	running bool

	// phases counts the running countdowns per slot grid while
	// trackPhases is set (partition schedulers; see NextAt).
	phases      []slotPhase
	trackPhases bool
}

// slotPhase is one slot grid holding running countdowns.
type slotPhase struct {
	slot, phase Time
	n           int
}

// New returns a Scheduler whose random stream is seeded with seed.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time {
	return s.now
}

// Rand returns the scheduler's deterministic random stream.
func (s *Scheduler) Rand() *rand.Rand {
	return s.rng
}

// Executed returns the number of events executed so far.
func (s *Scheduler) Executed() uint64 {
	return s.count
}

// Pending returns the number of events still queued. Canceled events are
// removed eagerly and never count.
func (s *Scheduler) Pending() int {
	return len(s.heap)
}

// alloc takes a recycled timer from the free list or makes a new one.
//
//desalint:hotpath
func (s *Scheduler) alloc() *timer {
	if n := len(s.free); n > 0 {
		tm := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return tm
	}
	return &timer{}
}

// recycle invalidates every outstanding handle to tm and returns it to
// the free list. The event is cleared so the queue never retains
// captured state past a timer's lifetime.
//
//desalint:hotpath
func (s *Scheduler) recycle(tm *timer) {
	if tm.rootKey&rootCountdown != 0 {
		s.untrackPhase(tm.at-tm.sched, tm.at)
	}
	tm.gen++
	tm.ev = nil
	tm.index = -1
	s.free = append(s.free, tm)
}

// insert enqueues ev due at `at`, scheduled at sched with the given
// chain root, and returns its handle.
//
//desalint:hotpath
func (s *Scheduler) insert(ev Event, at, sched, rootAt Time, rootKey uint64) Timer {
	tm := s.alloc()
	s.seq++
	tm.at, tm.sched, tm.seq, tm.ev = at, sched, s.seq, ev
	tm.rootAt, tm.rootKey = rootAt, rootKey
	tm.index = int32(len(s.heap))
	s.heap = append(s.heap, tm)
	s.siftUp(len(s.heap) - 1)
	return Timer{tm: tm, gen: tm.gen, at: at}
}

// schedule enqueues an ordinary event: scheduled now, due at `at`
// (clamped to now). An event scheduled exactly as far ahead as the
// running event was continues that event's chain and inherits its root;
// any other starts a new chain rooted at the running event.
//
//desalint:hotpath
func (s *Scheduler) schedule(ev Event, at Time) Timer {
	if at < s.now {
		at = s.now
	}
	step := at - s.now
	if c := &s.cur; s.running && c.at-c.sched == step {
		return s.insert(ev, at, s.now, c.rootAt, c.rootKey&^rootCountdown)
	}
	rootAt, rootKey := s.newRoot(step)
	return s.insert(ev, at, s.now, rootAt, rootKey)
}

// newRoot returns the running event as the root of a new chain of the
// given step. Events scheduled from outside any callback (at build time,
// or by a partition flush between windows) root at Now() ahead of every
// event due then: nothing due at Now() has executed when they are
// scheduled.
//
//desalint:hotpath
func (s *Scheduler) newRoot(step Time) (Time, uint64) {
	if !s.running {
		return s.now, (2*s.count+1)<<rootShift | rootEarly
	}
	key := 2 * s.count << rootShift
	if s.cur.sched < s.now-step {
		key |= rootEarly
	}
	return s.now, key
}

// At schedules fn to run at absolute time t. Scheduling in the past (t
// before Now) clamps to Now, preserving causality. Events scheduled for
// the same instant fire in scheduling order.
//
//desalint:hotpath
func (s *Scheduler) At(t Time, fn func()) Timer {
	return s.schedule(funcEvent(fn), t)
}

// Schedule schedules fn to run after delay d from now. Negative delays
// clamp to zero.
//
//desalint:hotpath
func (s *Scheduler) Schedule(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtEvent schedules ev to fire at absolute time t, with the same clamping
// and FIFO guarantees as At. Passing a pooled pointer implementation
// performs no allocation.
//
//desalint:hotpath
func (s *Scheduler) AtEvent(t Time, ev Event) Timer {
	return s.schedule(ev, t)
}

// ScheduleEvent schedules ev to fire after delay d from now. Negative
// delays clamp to zero.
//
//desalint:hotpath
func (s *Scheduler) ScheduleEvent(d Time, ev Event) Timer {
	if d < 0 {
		d = 0
	}
	return s.AtEvent(s.now+d, ev)
}

// Countdown schedules fn as the one timer of a slotted countdown that
// starts now and runs slots slots of length slot (slots >= 1). It fires
// at Now()+slots*slot, and in every tie with other events it fires
// exactly where the last tick of the per-slot chain "wait one slot,
// repeat until no slot is left" would have: it carries that tick's
// scheduling instant, and its chain is rooted at the running event. The
// equivalence needs the running event not to have been scheduled exactly
// one slot ahead itself. An interrupter reads SlotsLeft, then cancels.
//
//desalint:hotpath
func (s *Scheduler) Countdown(slots int, slot Time, fn func()) Timer {
	at := s.now + Time(slots)*slot
	rootAt, rootKey := s.newRoot(slot)
	if s.trackPhases {
		rootKey |= rootCountdown
		s.trackPhase(slot, at)
	}
	return s.insert(funcEvent(fn), at, at-slot, rootAt, rootKey)
}

// SlotsLeft returns how many slots the pending countdown t still has to
// run as seen by the running event: a slot boundary falling exactly on
// Now() has elapsed only if its per-slot tick would have fired before
// the running event. It returns 0 for a handle that is not pending.
//
//desalint:hotpath
func (s *Scheduler) SlotsLeft(t Timer) int {
	tm := t.tm
	if tm == nil || tm.gen != t.gen {
		return 0
	}
	slot := tm.at - tm.sched
	start := tm.rootAt
	total := (tm.at - start) / slot
	done := (s.now - start) / slot
	if done > 0 && (s.now-start)%slot == 0 {
		// The tick due now: the virtual twin of the final, one level
		// down its chain.
		tick := timer{at: s.now, sched: s.now - slot, rootAt: start, rootKey: tm.rootKey, seq: tm.seq}
		if !s.running || !s.less(&tick, &s.cur) {
			done--
		}
	}
	return int(total - done)
}

// Cancel prevents a pending timer from firing. It reports whether the
// cancellation took effect (false when the timer already fired, was
// already canceled, or is the zero handle). The queue entry is unlinked
// immediately — heavy cancellation (the MAC's normal operation) leaves no
// garbage in the heap.
//
//desalint:hotpath
func (s *Scheduler) Cancel(t Timer) bool {
	tm := t.tm
	if tm == nil || tm.gen != t.gen {
		return false
	}
	s.remove(int(tm.index))
	s.recycle(tm)
	return true
}

// Step executes the next pending event and reports whether one ran.
//
//desalint:hotpath
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	tm := s.popMin()
	s.now = tm.at
	s.count++
	s.cur.at, s.cur.sched, s.cur.seq = tm.at, tm.sched, tm.seq
	s.cur.rootAt, s.cur.rootKey = tm.rootAt, tm.rootKey
	ev := tm.ev
	// Recycle before running: the callback observes its own handle as
	// no longer active (it has fired), and may immediately reuse the
	// entry for a follow-up event.
	s.recycle(tm)
	s.running = true
	ev.Fire()
	s.running = false
	return true
}

// Run executes events until the clock would pass `until` or the queue
// drains, and returns the number of events executed by this call. Events
// scheduled exactly at `until` still run.
//
//desalint:hotpath
func (s *Scheduler) Run(until Time) uint64 {
	start := s.count
	for len(s.heap) > 0 && s.heap[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
	return s.count - start
}

// NextAt returns the due time of the earliest pending event and whether
// one exists. The partition group engine uses it to compute conservative
// execution horizons. On a scheduler with TrackCountdowns set, a running
// countdown counts as pending at its next slot boundary at or after
// Now(), where the per-slot tick chain it stands for would hold its next
// tick; the windows, and with them the partitioned results, are then
// the ones that chain would produce.
//
//desalint:hotpath
func (s *Scheduler) NextAt() (Time, bool) {
	var next Time
	ok := len(s.heap) > 0
	if ok {
		next = s.heap[0].at
	}
	for _, p := range s.phases {
		t := s.now + ((p.phase-s.now)%p.slot+p.slot)%p.slot
		if !ok || t < next {
			next, ok = t, true
		}
	}
	return next, ok
}

// RunBefore executes events strictly earlier than horizon and returns
// how many ran. Unlike Run it neither executes events AT the horizon nor
// advances the clock to it: the horizon is a conservative bound, not a
// target, and the next window may still insert events exactly at it.
//
//desalint:hotpath
func (s *Scheduler) RunBefore(horizon Time) uint64 {
	start := s.count
	for len(s.heap) > 0 && s.heap[0].at < horizon {
		s.Step()
	}
	return s.count - start
}

// AdvanceTo moves the clock forward to t without executing anything
// (clamping, never rewinding). The group engine calls it once per
// partition after the final window so every partition ends a run at the
// same instant, mirroring Run's trailing clock advance.
func (s *Scheduler) AdvanceTo(t Time) {
	if t > s.now {
		s.now = t
	}
}

// RunAll executes every pending event regardless of time and returns how
// many ran. Useful for draining short test scenarios.
func (s *Scheduler) RunAll() uint64 {
	start := s.count
	for s.Step() {
	}
	return s.count - start
}

// The queue is a hand-rolled binary min-heap over the ordering key.
// container/heap would box every *timer through an interface on each
// Push/Pop; inlining the sifts keeps the hot path monomorphic and
// allocation-free.

// less orders the heap by due time, then scheduling instant, then chain
// root. Two events tied on (at, sched) were scheduled the same step
// ahead; their chains of equal steps meet at the later root's instant,
// where that root runs before the other chain's event iff it is early.
// Roots at one instant run in execution order, and one root's chains in
// scheduling order.
//
//desalint:hotpath
func (s *Scheduler) less(a, b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	if a.rootAt != b.rootAt {
		if a.rootAt > b.rootAt {
			return a.rootKey&rootEarly != 0
		}
		return b.rootKey&rootEarly == 0
	}
	if ak, bk := a.rootKey>>rootShift, b.rootKey>>rootShift; ak != bk {
		return ak < bk
	}
	return a.seq < b.seq
}

// TrackCountdowns makes NextAt account for running countdowns' slot
// grids. The partition group sets it on every partition it runs, before
// any countdown can start.
func (s *Scheduler) TrackCountdowns() {
	s.trackPhases = true
}

// trackPhase records a running countdown on its slot grid.
func (s *Scheduler) trackPhase(slot, at Time) {
	phase := at % slot
	for i := range s.phases {
		if p := &s.phases[i]; p.slot == slot && p.phase == phase {
			p.n++
			return
		}
	}
	s.phases = append(s.phases, slotPhase{slot: slot, phase: phase, n: 1})
}

// untrackPhase drops a countdown that fired or was canceled.
func (s *Scheduler) untrackPhase(slot, at Time) {
	phase := at % slot
	for i := range s.phases {
		if p := &s.phases[i]; p.slot == slot && p.phase == phase {
			if p.n--; p.n == 0 {
				last := len(s.phases) - 1
				s.phases[i] = s.phases[last]
				s.phases = s.phases[:last]
			}
			return
		}
	}
}

//desalint:hotpath
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	tm := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(tm, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = int32(i)
		i = parent
	}
	h[i] = tm
	tm.index = int32(i)
}

//desalint:hotpath
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	tm := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && s.less(h[right], h[child]) {
			child = right
		}
		if !s.less(h[child], tm) {
			break
		}
		h[i] = h[child]
		h[i].index = int32(i)
		i = child
	}
	h[i] = tm
	tm.index = int32(i)
}

// popMin removes and returns the earliest timer.
//
//desalint:hotpath
func (s *Scheduler) popMin() *timer {
	h := s.heap
	tm := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
	return tm
}

// remove unlinks the timer at heap position i.
//
//desalint:hotpath
func (s *Scheduler) remove(i int) {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.heap = h[:n]
	if i == n {
		return
	}
	h[i] = last
	last.index = int32(i)
	// The displaced entry may belong above or below its new slot.
	s.siftDown(i)
	if h[i] == last {
		s.siftUp(i)
	}
}
