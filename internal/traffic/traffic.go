// Package traffic implements the workload generators of the paper's
// Section 4: constant-bit-rate sources with 1460-byte data packets whose
// destination is a uniformly random neighbor, in both the saturated
// (always-backlogged) form used for the throughput study and a paced CBR
// form for lighter loads.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/des"
	"repro/internal/mac"
	"repro/internal/phy"
)

// PaperPacketBytes is the CBR data packet size from Section 4.
const PaperPacketBytes = 1460

// Empty is a source with no packets, for nodes that only receive (for
// example isolated outer-ring nodes with no neighbors to send to).
type Empty struct{}

var _ mac.Source = Empty{}

// Dequeue always reports an empty queue.
func (Empty) Dequeue(now des.Time) (mac.Packet, bool) { return mac.Packet{}, false }

// Saturated is an always-backlogged source: every Dequeue produces a
// fresh packet addressed to a uniformly random neighbor. It implements
// mac.Source.
type Saturated struct {
	rng       *rand.Rand
	neighbors []int32
	bytes     int
	seq       int64
}

var _ mac.Source = (*Saturated)(nil)

// NewSaturated builds a saturated source choosing destinations uniformly
// from neighbors, which must be non-empty. The source keeps the slice
// and never writes it; the caller must not modify it afterwards, so it
// may be a list others share, such as the PHY's in-range list
// (phy.Channel.InRange).
func NewSaturated(rng *rand.Rand, neighbors []int32, bytes int) (*Saturated, error) {
	s := new(Saturated)
	if err := NewSaturatedInto(s, rng, neighbors, bytes); err != nil {
		return nil, err
	}
	return s, nil
}

// NewSaturatedInto initializes a caller-allocated Saturated in place, as
// NewSaturated does, so bulk assembly (sim.Build) can carve every node's
// source from one backing array.
func NewSaturatedInto(s *Saturated, rng *rand.Rand, neighbors []int32, bytes int) error {
	if len(neighbors) == 0 {
		return fmt.Errorf("traffic: saturated source needs at least one neighbor")
	}
	if bytes <= 0 {
		return fmt.Errorf("traffic: packet size must be positive, got %d", bytes)
	}
	*s = Saturated{rng: rng, neighbors: neighbors, bytes: bytes}
	return nil
}

// Dequeue always returns a packet (the queue never empties).
func (s *Saturated) Dequeue(now des.Time) (mac.Packet, bool) {
	s.seq++
	dst := phy.NodeID(s.neighbors[s.rng.Intn(len(s.neighbors))])
	return mac.Packet{Dst: dst, Bytes: s.bytes, Enqueued: now, Seq: s.seq}, true
}

// Generated returns how many packets have been handed out.
func (s *Saturated) Generated() int64 { return s.seq }

// CBR is a paced constant-bit-rate source: one packet enqueued every
// Interval, addressed to a uniformly random neighbor, with a bounded
// queue. It implements mac.Source and drives itself from the scheduler.
type CBR struct {
	sched     *des.Scheduler
	rng       *rand.Rand
	neighbors []int32

	interval des.Time
	bytes    int
	queueCap int

	// The backlog is queue[head:]. Dequeue advances head, and an arrival
	// that finds the slice full moves the backlog to the front, so the
	// storage is reused and never grows past twice queueCap.
	queue   []mac.Packet
	head    int
	seq     int64
	dropped int64
	kick    Kicker
}

// Kicker is woken when a packet arrives at an empty queue: the owning
// MAC node, whose Kick re-checks its source.
type Kicker interface {
	Kick()
}

var _ mac.Source = (*CBR)(nil)

// CBRConfig configures a paced source.
type CBRConfig struct {
	// Interval is the packet inter-arrival time.
	Interval des.Time
	// Bytes is the packet payload size.
	Bytes int
	// QueueCap bounds the backlog; arrivals beyond it are dropped
	// (counted in Dropped).
	QueueCap int
}

// NewCBR builds a paced source. Call Start to begin arrivals and SetKick
// to connect the owning MAC node. Like NewSaturated, the source keeps
// the non-empty neighbors slice and never writes it.
func NewCBR(sched *des.Scheduler, rng *rand.Rand, neighbors []int32, cfg CBRConfig) (*CBR, error) {
	c := new(CBR)
	if err := NewCBRInto(c, sched, rng, neighbors, cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// NewCBRInto initializes a caller-allocated CBR in place, as NewCBR
// does. The source schedules a view of itself, so it must not be copied
// afterwards.
func NewCBRInto(c *CBR, sched *des.Scheduler, rng *rand.Rand, neighbors []int32, cfg CBRConfig) error {
	if len(neighbors) == 0 {
		return fmt.Errorf("traffic: CBR source needs at least one neighbor")
	}
	if cfg.Interval <= 0 || cfg.Bytes <= 0 || cfg.QueueCap <= 0 {
		return fmt.Errorf("traffic: invalid CBR config %+v", cfg)
	}
	*c = CBR{
		sched: sched, rng: rng, neighbors: neighbors,
		interval: cfg.Interval, bytes: cfg.Bytes, queueCap: cfg.QueueCap,
	}
	return nil
}

// arrival is the source's arrival event, a view of the source itself, so
// scheduling the next arrival allocates nothing.
type arrival CBR

// Fire enqueues one packet and schedules the next arrival.
//
//desalint:hotpath
func (e *arrival) Fire() { (*CBR)(e).arrive() }

// SetKick registers the node woken when a packet arrives at an empty
// queue (typically the owning *mac.Node). Passing the node, not its
// bound Kick method, costs no allocation.
func (c *CBR) SetKick(k Kicker) { c.kick = k }

// Start schedules the first arrival one interval from now. Arrivals go
// on for as long as the scheduler runs.
func (c *CBR) Start() {
	c.sched.ScheduleEvent(c.interval, (*arrival)(c))
}

//desalint:hotpath
func (c *CBR) arrive() {
	if c.Backlog() >= c.queueCap {
		c.dropped++
	} else {
		if len(c.queue) == cap(c.queue) && c.head > 0 {
			c.queue = c.queue[:copy(c.queue, c.queue[c.head:])]
			c.head = 0
		}
		c.seq++
		dst := phy.NodeID(c.neighbors[c.rng.Intn(len(c.neighbors))])
		c.queue = append(c.queue, mac.Packet{
			Dst: dst, Bytes: c.bytes, Enqueued: c.sched.Now(), Seq: c.seq,
		})
		if c.Backlog() == 1 && c.kick != nil {
			c.kick.Kick()
		}
	}
	c.sched.ScheduleEvent(c.interval, (*arrival)(c))
}

// Dequeue pops the oldest queued packet.
func (c *CBR) Dequeue(now des.Time) (mac.Packet, bool) {
	if c.head == len(c.queue) {
		return mac.Packet{}, false
	}
	p := c.queue[c.head]
	c.head++
	if c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	return p, true
}

// Dropped returns the number of arrivals rejected by the full queue.
func (c *CBR) Dropped() int64 { return c.dropped }

// Backlog returns the current queue length.
func (c *CBR) Backlog() int { return len(c.queue) - c.head }
