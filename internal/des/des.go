// Package des is a deterministic discrete-event simulation kernel: a
// monotonic virtual clock, an event queue with stable FIFO ordering
// among simultaneous events, cancellable timers, slotted countdowns that
// cost one event however many slots they run, and a seeded random
// stream. It is single-threaded by design — protocol models run as
// callbacks on the scheduler goroutine, which makes runs exactly
// reproducible for a given seed.
//
// The event queue is built for the MAC workload: millions of schedules
// per simulated second, many of them canceled before they fire, most due
// tens of microseconds to milliseconds ahead. It is a calendar in front
// of a binary heap: the heap orders only the timers due in the current
// 16 µs bucket, later ones wait unordered in O(1) bucket lists (or one
// far list beyond the calendar's window), and a bucket enters the heap
// only when the heap runs dry. Timers are recycled through a free list
// and cancellation unlinks the entry immediately, so steady-state
// scheduling performs no allocation and canceled events leave no
// garbage behind. Timer handles are small generation-checked values: a
// handle retained after its timer fired (or was canceled and recycled)
// safely reports inactive instead of aliasing a later event.
package des

import (
	"math/bits"
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

// Event is a scheduled action; AtEvent, ScheduleEvent and Countdown are
// the only ways to schedule one. Callers pass pointer-shaped
// implementations: the PHY's delivery edges are views of a pooled
// record and the MAC's timers views of its node, so neither delivering
// a frame nor arming a timer allocates.
type Event interface {
	// Fire runs the event at its due time, on the scheduler goroutine.
	Fire()
}

// The queue orders events by (at, sched, root): due time, then the
// instant the event was scheduled, then — only for events scheduled
// exactly as far ahead as their scheduling event was — the "root" of
// that chain of equal steps. For ordinary events sched is Now() at
// insertion, which never decreases along insertion order, so their
// order is plain FIFO. A countdown final (see Countdown) is one event
// standing for a chain of per-slot ticks; it carries the sched and root
// its last tick would have had, so it lands exactly where the tick
// chain's last event would have. DESIGN.md §12 derives the rule.

// rootEarly marks a root that executes before the chain events due at
// its own instant: its sched lies more than one step back. It is the
// low bit of rootKey, below the root's execution index.
const (
	rootEarly = 1
	rootShift = 1
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
	// root outside any callback) shifted past the rootEarly bit.
	rootAt  Time
	rootKey uint64
	ev      Event
	gen     uint32 // bumped on recycle; stale handles mismatch
	// index is the position in the heap array, or inRing/inFar for a
	// parked timer (linked through next and prev).
	index int32
	next  *timer
	prev  *timer
}

// The calendar: a timer's bucket is at >> bucketShift. The heap holds
// every timer whose bucket is at most curB; a ring of ringSize bucket
// lists holds those filed for the next ringSize-1 buckets, and one far
// list those filed beyond. Both sizes were chosen by measurement
// (DESIGN.md §7.1).
const (
	bucketShift = 14 // 16.384 µs buckets
	ringSize    = 1024
	ringMask    = ringSize - 1
	ringWords   = ringSize / 64

	inRing = -2 // index of a timer in a ring bucket list
	inFar  = -3 // index of a timer in the far list
)

// Timer is a cancellable handle for a scheduled event: 16 bytes, a
// pointer and a generation. The zero value is an inert handle: not
// active, and cancelling it is a no-op. Handles stay safe to retain
// indefinitely — after the event fires (or is canceled) the underlying
// entry may be recycled for a new event, and the generation check makes
// the old handle report inactive rather than affect the newcomer.
type Timer struct {
	tm  *timer
	gen uint32
}

// When returns the simulated time a pending timer is due to fire, and 0
// once it has fired or been canceled, and for the zero handle.
func (t Timer) When() Time {
	if !t.Active() {
		return 0
	}
	return t.tm.at
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

	// The calendar tier. Every parked timer's bucket is above curB, so
	// it is due strictly after every timer in the heap. ring[b&ringMask]
	// lists the timers of bucket b for curB < b < curB+ringSize; occ
	// marks the non-empty lists and summary the non-zero occ words. far
	// lists the timers filed beyond the window as it stood then; farMin
	// is a lower bound of their buckets, and they stay there until curB
	// reaches it.
	curB    int64
	ring    [ringSize]*timer
	occ     [ringWords]uint64
	summary uint64
	far     *timer
	farMin  int64
	parked  int // timers in ring and far
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
	return len(s.heap) + s.parked
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
	s.file(tm)
	return Timer{tm: tm, gen: tm.gen}
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
		return s.insert(ev, at, s.now, c.rootAt, c.rootKey)
	}
	rootAt, rootKey := s.newRoot(step)
	return s.insert(ev, at, s.now, rootAt, rootKey)
}

// newRoot returns the running event as the root of a new chain of the
// given step. Events scheduled from outside any callback (at build time)
// root at Now() ahead of every event due then: nothing due at Now() has
// executed when they are scheduled.
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

// AtEvent schedules ev to fire at absolute time t. Scheduling in the
// past (t before Now) clamps to Now, preserving causality. Events
// scheduled for the same instant fire in scheduling order. Passing a
// pointer-shaped implementation performs no allocation.
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

// Countdown schedules ev as the one timer of a slotted countdown that
// starts now and runs slots slots of length slot (slots >= 1). It fires
// at Now()+slots*slot, and in every tie with other events it fires
// exactly where the last tick of the per-slot chain "wait one slot,
// repeat until no slot is left" would have: it carries that tick's
// scheduling instant, and its chain is rooted at the running event. The
// equivalence needs the running event not to have been scheduled exactly
// one slot ahead itself. An interrupter reads SlotsLeft, then cancels.
//
//desalint:hotpath
func (s *Scheduler) Countdown(slots int, slot Time, ev Event) Timer {
	at := s.now + Time(slots)*slot
	rootAt, rootKey := s.newRoot(slot)
	return s.insert(ev, at, at-slot, rootAt, rootKey)
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
	if tm.index >= 0 {
		s.remove(int(tm.index))
	} else {
		s.unpark(tm)
	}
	s.recycle(tm)
	return true
}

// Step executes the next pending event and reports whether one ran.
//
//desalint:hotpath
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 && !s.advance() {
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
	for (len(s.heap) > 0 || s.advance()) && s.heap[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
	return s.count - start
}

// RunAll executes every pending event regardless of time and returns how
// many ran. Useful for draining short test scenarios.
func (s *Scheduler) RunAll() uint64 {
	start := s.count
	for s.Step() {
	}
	return s.count - start
}

// The queue's near tier is a hand-rolled binary min-heap over the
// ordering key, holding only the timers of buckets up to curB.
// container/heap would box every *timer through an interface on each
// Push/Pop; inlining the sifts keeps the hot path monomorphic and
// allocation-free. Every parked timer is due strictly after every heap
// timer, so the heap's minimum is the queue's, and events fire in
// exactly the order one heap over all of them would give.

// file puts tm into the tier its bucket belongs to: the heap at or below
// curB, a ring list inside the window, the far list beyond it.
//
//desalint:hotpath
func (s *Scheduler) file(tm *timer) {
	b := int64(tm.at >> bucketShift)
	switch {
	case b <= s.curB:
		s.push(tm)
		return
	case b < s.curB+ringSize:
		slot := int(b & ringMask)
		if s.ring[slot] == nil {
			s.occ[slot>>6] |= 1 << (slot & 63)
			s.summary |= 1 << (slot >> 6)
		}
		tm.index = inRing
		link(&s.ring[slot], tm)
	default:
		if s.far == nil || b < s.farMin {
			s.farMin = b
		}
		tm.index = inFar
		link(&s.far, tm)
	}
	s.parked++
}

// link pushes tm onto the front of the list at head.
//
//desalint:hotpath
func link(head **timer, tm *timer) {
	tm.prev = nil
	tm.next = *head
	if tm.next != nil {
		tm.next.prev = tm
	}
	*head = tm
}

// unpark unlinks a parked timer from its ring or far list. A canceled
// far timer may leave farMin below the far list's minimum; it stays a
// lower bound, which is all advance needs.
//
//desalint:hotpath
func (s *Scheduler) unpark(tm *timer) {
	s.parked--
	if tm.next != nil {
		tm.next.prev = tm.prev
	}
	switch {
	case tm.prev != nil:
		tm.prev.next = tm.next
	case tm.index == inFar:
		s.far = tm.next
	default:
		slot := int(tm.at>>bucketShift) & ringMask
		s.ring[slot] = tm.next
		if tm.next == nil {
			s.clearSlot(slot)
		}
	}
}

// clearSlot marks an emptied ring slot in occ, and its word in summary
// if the word emptied too.
//
//desalint:hotpath
func (s *Scheduler) clearSlot(slot int) {
	w := slot >> 6
	s.occ[w] &^= 1 << (slot & 63)
	if s.occ[w] == 0 {
		s.summary &^= 1 << w
	}
}

// advance moves curB to the earliest parked bucket and loads its timers
// into the heap, which must be empty. It reports false when nothing is
// pending. The far list is re-filed when curB reaches farMin: every far
// timer then inside the new window moves to the ring or the heap, so the
// list is walked at most once per window however densely timers sit
// beyond it.
//
//desalint:hotpath
func (s *Scheduler) advance() bool {
	for len(s.heap) == 0 {
		if s.parked == 0 {
			return false
		}
		b := s.farMin
		if s.summary != 0 {
			start := int(s.curB+1) & ringMask
			if rb := s.curB + 1 + int64((s.nextSlot(start)-start)&ringMask); s.far == nil || rb < b {
				b = rb
			}
		}
		s.curB = b
		if s.far != nil && s.farMin <= b {
			far := s.far
			s.far = nil
			for tm := far; tm != nil; {
				next := tm.next
				s.parked--
				s.file(tm)
				tm = next
			}
		}
		slot := int(b & ringMask)
		tm := s.ring[slot]
		if tm == nil {
			continue
		}
		s.ring[slot] = nil
		s.clearSlot(slot)
		for ; tm != nil; tm = tm.next {
			s.parked--
			s.push(tm)
		}
	}
	return true
}

// nextSlot returns the first occupied ring slot at or after start,
// wrapping around; the ring must not be empty.
//
//desalint:hotpath
func (s *Scheduler) nextSlot(start int) int {
	w := start >> 6
	if m := s.occ[w] &^ (1<<(start&63) - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	words := s.summary &^ (1<<(w+1) - 1)
	if words == 0 {
		words = s.summary
	}
	w = bits.TrailingZeros64(words)
	return w<<6 | bits.TrailingZeros64(s.occ[w])
}

// push adds tm to the heap.
//
//desalint:hotpath
func (s *Scheduler) push(tm *timer) {
	tm.index = int32(len(s.heap))
	s.heap = append(s.heap, tm)
	s.siftUp(len(s.heap) - 1)
}

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
