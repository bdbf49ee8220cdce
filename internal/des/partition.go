// Conservative parallel execution of partitioned event queues.
//
// A Group owns P independent Schedulers ("partitions") and runs them in
// barrier-synchronized windows, GloMoSim-style. The safety argument is
// the classic conservative one: an event executing at time t in one
// partition can influence another partition no earlier than t+Lookahead
// (in this simulator the PHY's fixed propagation delay — the earliest
// cross-node consequence of any callback is a signal edge one
// propagation delay later; the frame's airtime only pushes the END edge
// further out). Each round therefore lets partition p execute every
// event strictly before
//
//	horizon(p) = min over q≠p of nextAt(q) + Lookahead
//
// because whatever any other partition q does in the same round happens
// at or after nextAt(q), and its effects reach p no earlier than
// horizon(p). Cross-partition effects are not delivered directly:
// executing callbacks stage them (the PHY keeps per-partition outboxes),
// and the single-threaded Flush hook routes the staged events into the
// destination queues between rounds, in a fixed partition order — so
// insertion order, and with it FIFO seq tie-breaking, is a pure function
// of the partition layout.
//
// Determinism contract: the round structure (flush contents, horizons,
// per-partition event order) depends only on the partition layout and
// the per-partition initial state, never on how many OS workers execute
// the rounds. Workers only decide which goroutine runs which partition's
// window; results are byte-identical for any worker count, including 1.

package des

import (
	"runtime"
	"sync/atomic"
)

// Group runs a set of partitioned schedulers under conservative
// barrier-window synchronization.
type Group struct {
	// Parts are the partition schedulers. The group never reorders the
	// slice; partition index is identity.
	Parts []*Scheduler
	// Lookahead is the minimum cross-partition influence latency (the
	// PHY propagation delay). Must be positive: it is what guarantees
	// per-round progress.
	Lookahead Time
	// Flush routes events staged by the previous round (cross-partition
	// signal deliveries) into their destination schedulers. It runs
	// single-threaded between rounds, before horizons are computed. May
	// be nil when partitions never interact.
	Flush func()

	horizons []Time
	phase    atomic.Int64
	arrived  atomic.Int64
	done     atomic.Bool
}

// spinThreshold bounds busy-waiting at the round barrier before a
// worker yields its thread. Windows are microseconds of simulated time
// and usually tens of events, so the barrier is hot; parking on a
// channel per round would dominate the run.
const spinThreshold = 256

// Run executes every partition up to and including time until, using at
// most workers goroutines (clamped to the partition count, minimum 1),
// and returns the total number of events executed. Mirroring
// Scheduler.Run, events exactly at until still run and every partition's
// clock ends at until.
func (g *Group) Run(until Time, workers int) uint64 {
	p := len(g.Parts)
	if p == 0 {
		return 0
	}
	if workers > p {
		workers = p
	}
	if workers < 1 {
		workers = 1
	}
	g.horizons = make([]Time, p)
	for _, part := range g.Parts {
		part.TrackCountdowns()
	}
	if workers == 1 {
		g.runRounds(until, 1, 0)
	} else {
		g.phase.Store(0)
		g.arrived.Store(0)
		g.done.Store(false)
		// Worker goroutines only execute partitions assigned to them by
		// index; the barrier protocol (atomic phase/arrived) orders every
		// cross-goroutine access to scheduler state.
		for w := 1; w < workers; w++ {
			go g.worker(w, workers)
		}
		g.runRounds(until, workers, 0)
		g.done.Store(true)
		// Reset before publishing, as every round does: a worker that
		// acknowledges before the count is first read must not push it
		// past workers-1 and leave this wait spinning forever.
		g.arrived.Store(0)
		g.phase.Add(1) // release workers into the exit check
		// Wait for every worker to acknowledge the exit phase so no
		// goroutine outlives the run (the caller may immediately reuse
		// or drop the schedulers).
		g.awaitArrivals(workers - 1)
	}
	var total uint64
	for _, part := range g.Parts {
		// The last window ran to until+1; every event at or before until
		// has run and none after, so the clock may settle on until,
		// mirroring Scheduler.Run.
		part.now = until
		total += part.Executed()
	}
	return total
}

// runRounds is the coordinator loop, executed on the caller's
// goroutine, which doubles as worker 0.
func (g *Group) runRounds(until Time, workers, self int) {
	for {
		if g.Flush != nil {
			g.Flush()
		}
		if !g.computeHorizons(until) {
			return
		}
		if workers == 1 {
			for i, part := range g.Parts {
				part.RunBefore(g.horizons[i])
			}
		} else {
			g.arrived.Store(0)
			g.phase.Add(1) // publish horizons; release workers into the round
			g.runOwned(self, workers)
			g.awaitArrivals(workers - 1)
		}
		// Each partition has run everything before its horizon. Standing
		// its clock there makes the next flush count as scheduled after
		// all of that and before anything due at the horizon — the place
		// a flush takes in the per-slot event order.
		for i, part := range g.Parts {
			part.AdvanceTo(g.horizons[i])
		}
	}
}

// worker executes the partitions assigned to index w (w, w+stride, ...)
// each round, synchronizing with the coordinator through the atomic
// phase/arrived pair. Atomic operations order the coordinator's horizon
// writes before the worker's reads and the worker's scheduler mutations
// before the coordinator's flush.
func (g *Group) worker(w, stride int) {
	round := int64(0)
	for {
		round++
		g.awaitPhase(round)
		if g.done.Load() {
			g.arrived.Add(1)
			return
		}
		g.runOwned(w, stride)
		g.arrived.Add(1)
	}
}

// runOwned executes one round's window for every partition owned by
// worker w under a static stride assignment.
func (g *Group) runOwned(w, stride int) {
	// Each partition scheduler is touched by exactly one worker per
	// round (static stride assignment), and rounds are separated by the
	// atomic barrier, so no two goroutines ever race on a scheduler.
	// Safety of the horizon itself: every cross-partition event staged
	// during a round is stamped >= sender's now + Lookahead >= the
	// receiver's horizon, and RunBefore's bound is strict, so flushed
	// events can never land in a window a partition already executed.
	for i := w; i < len(g.Parts); i += stride {
		g.Parts[i].RunBefore(g.horizons[i])
	}
}

// awaitPhase spins until the coordinator publishes the given round.
func (g *Group) awaitPhase(round int64) {
	for spins := 0; g.phase.Load() != round; spins++ {
		if spins > spinThreshold {
			runtime.Gosched()
		}
	}
}

// awaitArrivals spins until n workers have finished the current round.
func (g *Group) awaitArrivals(n int) {
	for spins := 0; g.arrived.Load() != int64(n); spins++ {
		if spins > spinThreshold {
			runtime.Gosched()
		}
	}
}

// computeHorizons fills g.horizons for the next round and reports
// whether any partition has work left at or before until. Partition p
// may run strictly before min over q≠p of nextAt(q)+Lookahead — its OWN
// next event never constrains it — capped at until+1 so events exactly
// at until still execute (Run's inclusive bound).
func (g *Group) computeHorizons(until Time) bool {
	const inf = Time(1)<<62 - 1
	min1, min2 := inf, inf // smallest and second-smallest nextAt
	argmin := -1
	for i, part := range g.Parts {
		at, ok := part.NextAt()
		if !ok {
			continue
		}
		if at < min1 {
			min1, min2, argmin = at, min1, i
		} else if at < min2 {
			min2 = at
		}
	}
	if min1 > until {
		return false
	}
	bound := until + 1
	for i := range g.horizons {
		others := min1
		if i == argmin {
			others = min2
		}
		h := bound
		if others < inf && others+g.Lookahead < bound {
			h = others + g.Lookahead
		}
		g.horizons[i] = h
	}
	return true
}
