package mobility

import (
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/phy"
)

type noop struct{}

func (noop) OnCarrierBusy()      {}
func (noop) OnCarrierIdle()      {}
func (noop) OnFrame(f phy.Frame) {}
func (noop) OnFrameError()       {}
func (noop) OnTxDone()           {}

func channelWith(t *testing.T, n int) (*des.Scheduler, *phy.Channel) {
	t.Helper()
	sched := des.New(9)
	ch, err := phy.NewChannel(sched, phy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ch.AddRadio(geom.Point{X: float64(i) * 0.3}, noop{})
	}
	return sched, ch
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{{Bound: 3, MaxSpeed: 1}, {Bound: 3}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %+v invalid: %v", cfg, err)
		}
	}
	bad := []Config{
		{Bound: 0, MaxSpeed: 1},
		{Bound: 3, MaxSpeed: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNodesMoveAndStayBounded(t *testing.T) {
	sched, ch := channelWith(t, 5)
	cfg := Config{Bound: 2, MaxSpeed: 1.5}
	m, err := New(sched, ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]geom.Point, 5)
	for i := range initial {
		initial[i] = ch.Radio(phy.NodeID(i)).Pos()
	}
	m.Start()
	moved := false
	for step := 0; step < 600; step++ {
		sched.Run(sched.Now() + 50*des.Millisecond)
		for i := 0; i < 5; i++ {
			pos := ch.Radio(phy.NodeID(i)).Pos()
			if d := pos.Dist(geom.Point{}); d > cfg.Bound+1e-9 {
				t.Fatalf("node %d escaped the bound: distance %v", i, d)
			}
			if pos != initial[i] {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("no node moved in 30 simulated seconds")
	}
}

func TestSpeedIsRespected(t *testing.T) {
	sched, ch := channelWith(t, 1)
	cfg := Config{Bound: 5, MaxSpeed: 1}
	m, err := New(sched, ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	prev := ch.Radio(0).Pos()
	for step := 0; step < 100; step++ {
		sched.Run(sched.Now() + 100*des.Millisecond)
		cur := ch.Radio(0).Pos()
		// At top speed 1.0 and 100 ms ticks, each step moves at most 0.1 (+ε).
		if d := cur.Dist(prev); d > 0.1+1e-9 {
			t.Fatalf("step %d moved %v, want <= 0.1", step, d)
		}
		prev = cur
	}
}

func TestZeroSpeedIsStatic(t *testing.T) {
	sched, ch := channelWith(t, 3)
	m, err := New(sched, ch, Config{Bound: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := ch.Radio(1).Pos()
	m.Start()
	sched.Run(10 * des.Second)
	if ch.Radio(1).Pos() != before {
		t.Error("zero-speed model moved a node")
	}
	if sched.Pending() != 0 {
		t.Error("zero-speed model should schedule nothing")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() geom.Point {
		sched, ch := channelWith(t, 4)
		m, err := New(sched, ch, Config{Bound: 3, MaxSpeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		sched.Run(20 * des.Second)
		return ch.Radio(2).Pos()
	}
	if run() != run() {
		t.Error("same seed produced different walks")
	}
}
