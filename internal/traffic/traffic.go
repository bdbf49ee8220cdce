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
	neighbors []phy.NodeID
	bytes     int
	seq       int64
}

var _ mac.Source = (*Saturated)(nil)

// NewSaturated builds a saturated source choosing destinations uniformly
// from neighbors, which must be non-empty. The source takes ownership of
// the slice and never writes it; the caller must not modify it
// afterwards. Bulk assembly (sim.Build) carves per-node neighbor slices
// from one shared backing array and hands them over here.
func NewSaturated(rng *rand.Rand, neighbors []phy.NodeID, bytes int) (*Saturated, error) {
	if len(neighbors) == 0 {
		return nil, fmt.Errorf("traffic: saturated source needs at least one neighbor")
	}
	if bytes <= 0 {
		return nil, fmt.Errorf("traffic: packet size must be positive, got %d", bytes)
	}
	return &Saturated{rng: rng, neighbors: neighbors, bytes: bytes}, nil
}

// Dequeue always returns a packet (the queue never empties).
func (s *Saturated) Dequeue(now des.Time) (mac.Packet, bool) {
	s.seq++
	dst := s.neighbors[s.rng.Intn(len(s.neighbors))]
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
	neighbors []phy.NodeID

	interval des.Time
	bytes    int
	queueCap int

	queue   []mac.Packet
	seq     int64
	dropped int64
	kick    func()
	stopped bool
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
// to connect the owning MAC node's Kick method. Like NewSaturated, the
// source takes ownership of the non-empty neighbors slice, and the
// caller must not modify it afterwards.
func NewCBR(sched *des.Scheduler, rng *rand.Rand, neighbors []phy.NodeID, cfg CBRConfig) (*CBR, error) {
	if len(neighbors) == 0 {
		return nil, fmt.Errorf("traffic: CBR source needs at least one neighbor")
	}
	if cfg.Interval <= 0 || cfg.Bytes <= 0 || cfg.QueueCap <= 0 {
		return nil, fmt.Errorf("traffic: invalid CBR config %+v", cfg)
	}
	return &CBR{
		sched: sched, rng: rng, neighbors: neighbors,
		interval: cfg.Interval, bytes: cfg.Bytes, queueCap: cfg.QueueCap,
	}, nil
}

// SetKick registers the callback invoked when a packet arrives at an
// empty queue (typically the MAC node's Kick).
func (c *CBR) SetKick(fn func()) { c.kick = fn }

// Start schedules the first arrival one interval from now.
func (c *CBR) Start() {
	c.sched.Schedule(c.interval, c.arrive)
}

// Stop halts future arrivals (already-queued packets still drain).
func (c *CBR) Stop() { c.stopped = true }

func (c *CBR) arrive() {
	if c.stopped {
		return
	}
	if len(c.queue) >= c.queueCap {
		c.dropped++
	} else {
		c.seq++
		dst := c.neighbors[c.rng.Intn(len(c.neighbors))]
		c.queue = append(c.queue, mac.Packet{
			Dst: dst, Bytes: c.bytes, Enqueued: c.sched.Now(), Seq: c.seq,
		})
		if len(c.queue) == 1 && c.kick != nil {
			c.kick()
		}
	}
	c.sched.Schedule(c.interval, c.arrive)
}

// Dequeue pops the oldest queued packet.
func (c *CBR) Dequeue(now des.Time) (mac.Packet, bool) {
	if len(c.queue) == 0 {
		return mac.Packet{}, false
	}
	p := c.queue[0]
	c.queue = c.queue[1:]
	return p, true
}

// Dropped returns the number of arrivals rejected by the full queue.
func (c *CBR) Dropped() int64 { return c.dropped }

// Backlog returns the current queue length.
func (c *CBR) Backlog() int { return len(c.queue) }
