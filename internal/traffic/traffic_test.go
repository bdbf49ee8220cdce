package traffic

import (
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/phy"
)

func TestSaturatedAlwaysBacklogged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, err := NewSaturated(rng, []int32{1, 2, 3}, 1460)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[phy.NodeID]int)
	for i := 0; i < 3000; i++ {
		p, ok := s.Dequeue(des.Time(i))
		if !ok {
			t.Fatal("saturated source returned empty")
		}
		if p.Bytes != 1460 {
			t.Fatalf("packet bytes = %d, want 1460", p.Bytes)
		}
		if p.Enqueued != des.Time(i) {
			t.Fatalf("Enqueued = %v, want %v", p.Enqueued, des.Time(i))
		}
		if p.Seq != int64(i+1) {
			t.Fatalf("Seq = %d, want %d", p.Seq, i+1)
		}
		seen[p.Dst]++
	}
	if s.Generated() != 3000 {
		t.Errorf("Generated = %d, want 3000", s.Generated())
	}
	// Destinations uniform over the three neighbors: each ≈ 1000 ± 15%.
	for _, id := range []phy.NodeID{1, 2, 3} {
		if seen[id] < 850 || seen[id] > 1150 {
			t.Errorf("destination %d chosen %d times, want ≈ 1000", id, seen[id])
		}
	}
	if len(seen) != 3 {
		t.Errorf("unexpected destinations: %v", seen)
	}
}

func TestSaturatedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSaturated(rng, nil, 100); err == nil {
		t.Error("empty neighbor list should be rejected")
	}
	if _, err := NewSaturated(rng, []int32{1}, 0); err == nil {
		t.Error("zero packet size should be rejected")
	}
}

// kickCount counts the wake-ups a source sends its node.
type kickCount int

func (k *kickCount) Kick() { *k++ }

func TestCBRArrivalsAndKick(t *testing.T) {
	sched := des.New(2)
	c, err := NewCBR(sched, sched.Rand(), []int32{7}, CBRConfig{
		Interval: 10 * des.Millisecond,
		Bytes:    500,
		QueueCap: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var kicks kickCount
	c.SetKick(&kicks)
	c.Start()
	sched.Run(105 * des.Millisecond)
	if got := c.Backlog(); got != 10 {
		t.Errorf("backlog = %d, want 10 arrivals in 105 ms", got)
	}
	// Kick fires only on the empty→non-empty transition.
	if kicks != 1 {
		t.Errorf("kicks = %d, want 1", kicks)
	}
	// Drain two packets; they pop in FIFO order.
	p1, ok1 := c.Dequeue(sched.Now())
	p2, ok2 := c.Dequeue(sched.Now())
	if !ok1 || !ok2 || p1.Seq != 1 || p2.Seq != 2 {
		t.Errorf("FIFO violation: %+v %+v", p1, p2)
	}
	if p1.Dst != 7 || p1.Bytes != 500 {
		t.Errorf("packet fields: %+v", p1)
	}
	// Empty again → next arrival kicks again.
	for {
		if _, ok := c.Dequeue(sched.Now()); !ok {
			break
		}
	}
	sched.Run(sched.Now() + 10*des.Millisecond)
	if kicks != 2 {
		t.Errorf("kicks after drain = %d, want 2", kicks)
	}
}

func TestCBRQueueCapDrops(t *testing.T) {
	sched := des.New(2)
	c, err := NewCBR(sched, sched.Rand(), []int32{1}, CBRConfig{
		Interval: des.Millisecond,
		Bytes:    100,
		QueueCap: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	sched.Run(20 * des.Millisecond) // 20 arrivals into a cap-5 queue
	if c.Backlog() != 5 {
		t.Errorf("backlog = %d, want 5 (capped)", c.Backlog())
	}
	if c.Dropped() != 15 {
		t.Errorf("dropped = %d, want 15", c.Dropped())
	}
}

func TestCBRValidation(t *testing.T) {
	sched := des.New(2)
	good := CBRConfig{Interval: des.Millisecond, Bytes: 100, QueueCap: 10}
	if _, err := NewCBR(sched, sched.Rand(), nil, good); err == nil {
		t.Error("empty neighbors should be rejected")
	}
	for _, cfg := range []CBRConfig{
		{Interval: 0, Bytes: 100, QueueCap: 10},
		{Interval: des.Millisecond, Bytes: 0, QueueCap: 10},
		{Interval: des.Millisecond, Bytes: 100, QueueCap: 0},
	} {
		if _, err := NewCBR(sched, sched.Rand(), []int32{1}, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestCBREmptyDequeue(t *testing.T) {
	sched := des.New(2)
	c, err := NewCBR(sched, sched.Rand(), []int32{1}, CBRConfig{
		Interval: des.Millisecond, Bytes: 100, QueueCap: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Dequeue(0); ok {
		t.Error("empty queue should return ok=false")
	}
}

// TestCBRQueueReusesStorage: arrivals and dequeues interleaved at random
// keep FIFO order through the queue's compaction and drops, and once the
// queue's storage has grown, arrivals, their scheduling and the drains
// allocate nothing.
func TestCBRQueueReusesStorage(t *testing.T) {
	sched := des.New(3)
	c, err := NewCBR(sched, sched.Rand(), []int32{4, 9}, CBRConfig{
		Interval: des.Millisecond, Bytes: 100, QueueCap: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	rng := rand.New(rand.NewSource(3))
	var last int64
	drain := func(k int) {
		for ; k > 0; k-- {
			p, ok := c.Dequeue(sched.Now())
			if !ok {
				return
			}
			if p.Seq <= last {
				t.Fatalf("dequeued seq %d after %d", p.Seq, last)
			}
			last = p.Seq
		}
	}
	for i := 0; i < 2000; i++ {
		sched.Run(sched.Now() + des.Time(rng.Intn(4))*des.Millisecond)
		drain(rng.Intn(5))
		if b := c.Backlog(); b < 0 || b > 6 {
			t.Fatalf("backlog %d outside [0, 6]", b)
		}
	}
	drain(1 << 30)
	if c.Dropped() == 0 || last != c.seq {
		t.Fatalf("dropped %d, last dequeued seq %d of %d accepted", c.Dropped(), last, c.seq)
	}
	if cap(c.queue) > 2*6 {
		t.Fatalf("queue storage grew to %d packets for a cap of 6", cap(c.queue))
	}
	allocs := testing.AllocsPerRun(100, func() {
		sched.Run(sched.Now() + 10*des.Millisecond)
		drain(1 << 30)
	})
	if allocs != 0 {
		t.Fatalf("10 arrivals and a drain made %v allocations, want 0", allocs)
	}
}
