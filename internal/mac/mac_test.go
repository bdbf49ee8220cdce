package mac_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/neighbor"
	"repro/internal/phy"
	"repro/internal/sim/simtest"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := mac.DefaultConfig(core.ORTSOCTS, 0)
	if c.RTSBytes != 20 || c.CTSBytes != 14 || c.ACKBytes != 14 {
		t.Errorf("frame sizes = %d/%d/%d, want 20/14/14", c.RTSBytes, c.CTSBytes, c.ACKBytes)
	}
	if c.DIFS != 50*des.Microsecond || c.SIFS != 10*des.Microsecond || c.Slot != 20*des.Microsecond {
		t.Errorf("IFS = %v/%v/%v, want 50µs/10µs/20µs", c.DIFS, c.SIFS, c.Slot)
	}
	if c.CWMin != 31 || c.CWMax != 1023 {
		t.Errorf("CW = %d–%d, want 31–1023", c.CWMin, c.CWMax)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	base := mac.DefaultConfig(core.DRTSDCTS, math.Pi/2)
	if err := base.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*mac.Config)
	}{
		{"unknown scheme", func(c *mac.Config) { c.Scheme = 0 }},
		{"zero beamwidth directional", func(c *mac.Config) { c.Beamwidth = 0 }},
		{"beamwidth too wide", func(c *mac.Config) { c.Beamwidth = 7 }},
		{"zero RTS bytes", func(c *mac.Config) { c.RTSBytes = 0 }},
		{"zero DIFS", func(c *mac.Config) { c.DIFS = 0 }},
		{"CWMax below CWMin", func(c *mac.Config) { c.CWMax = 3 }},
		{"zero CWMin", func(c *mac.Config) { c.CWMin = 0 }},
		{"zero retry limit", func(c *mac.Config) { c.ShortRetryLimit = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := base
			m.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("mutated config should be invalid")
			}
		})
	}
	// ORTS-OCTS does not need a beamwidth.
	c := mac.DefaultConfig(core.ORTSOCTS, 0)
	if err := c.Validate(); err != nil {
		t.Errorf("ORTS-OCTS without beamwidth should validate: %v", err)
	}
}

func TestTwoNodeSaturatedHandshake(t *testing.T) {
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	nw := simtest.Build(t, 1, cfg, simtest.SaturatedSpecs(
		[]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}},
		[]int{1, -1}, // node 0 floods node 1
	))
	nw.StartAll()
	dur := 2 * des.Second
	nw.Run(dur)

	st := nw.Stats(0)
	if st.Successes == 0 {
		t.Fatal("no successful handshakes on a clean 2-node link")
	}
	if st.CTSTimeouts != 0 || st.ACKTimeouts != 0 || st.Drops != 0 {
		t.Errorf("clean link had failures: %+v", st)
	}
	if st.RTSSent < st.Successes || st.RTSSent > st.Successes+1 {
		// +1 allows one handshake in flight at the cutoff.
		t.Errorf("every RTS should succeed: RTS=%d successes=%d", st.RTSSent, st.Successes)
	}
	// The expected cycle is DIFS + E[backoff] + RTS + SIFS + CTS + SIFS +
	// DATA + SIFS + ACK (+ propagation): ≈ 7.19 ms, i.e. ≈ 278 packets in
	// 2 s and ≈ 1.62 Mb/s goodput. Allow ±10%.
	gotThroughput := float64(st.BitsAcked) / dur.Seconds()
	if gotThroughput < 1.45e6 || gotThroughput > 1.8e6 {
		t.Errorf("2-node saturated goodput = %.3g b/s, want ≈ 1.62 Mb/s", gotThroughput)
	}
	// Receiver-side accounting must match.
	rcv := nw.Stats(1)
	if rcv.DataDelivered != st.Successes {
		t.Errorf("receiver delivered %d, sender succeeded %d", rcv.DataDelivered, st.Successes)
	}
	if rcv.CTSSent != st.RTSSent {
		t.Errorf("receiver CTS = %d, sender RTS = %d", rcv.CTSSent, st.RTSSent)
	}
	if rcv.ACKSent != st.Successes {
		t.Errorf("receiver ACK = %d, successes = %d", rcv.ACKSent, st.Successes)
	}
	// Delay of every delivered packet ≈ cycle length.
	if d := st.AvgDelay(); d < 6*des.Millisecond || d > 9*des.Millisecond {
		t.Errorf("average service delay = %v, want ≈ 7.2 ms", d)
	}
}

func TestDeadDestinationBEBAndDrop(t *testing.T) {
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	nw := simtest.Build(t, 3, cfg, []simtest.NodeSpec{
		{Pos: geom.Point{X: 0, Y: 0}, Source: simtest.Packets(mac.Packet{Dst: 1, Bytes: 1460})},
		{Pos: geom.Point{X: 0.5, Y: 0}}, // dead: bare radio, never responds
	})
	nw.Start(0)
	nw.Run(5 * des.Second)

	st := nw.Stats(0)
	wantAttempts := int64(cfg.ShortRetryLimit + 1)
	if st.RTSSent != wantAttempts {
		t.Errorf("RTS attempts = %d, want %d (short retry limit + 1)", st.RTSSent, wantAttempts)
	}
	if st.CTSTimeouts != wantAttempts {
		t.Errorf("CTS timeouts = %d, want %d", st.CTSTimeouts, wantAttempts)
	}
	if st.Drops != 1 {
		t.Errorf("drops = %d, want 1", st.Drops)
	}
	if st.Successes != 0 {
		t.Errorf("successes = %d, want 0", st.Successes)
	}
}

func TestUnknownDestinationDropsPacket(t *testing.T) {
	cfg := mac.DefaultConfig(core.DRTSDCTS, math.Pi/6)
	nw := simtest.Build(t, 3, cfg, []simtest.NodeSpec{{
		Pos: geom.Point{X: 0, Y: 0},
		// Empty neighbor table: the directional sender has no bearing.
		Table:  neighbor.NewTable(0, geom.Point{}),
		Source: simtest.Packets(mac.Packet{Dst: 9, Bytes: 100}),
	}})
	nw.Start(0)
	nw.Run(des.Second)
	st := nw.Stats(0)
	if st.Drops != 1 || st.RTSSent != 0 {
		t.Errorf("stats = %+v, want exactly one drop and no RTS", st)
	}
}

func TestHiddenTerminalsBothProgress(t *testing.T) {
	// Classic hidden-terminal triple: A and C cannot hear each other, both
	// flood B. RTS/CTS collision avoidance must let both make progress.
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	nw := simtest.Build(t, 7, cfg, simtest.SaturatedSpecs(
		[]geom.Point{{X: -0.9, Y: 0}, {X: 0, Y: 0}, {X: 0.9, Y: 0}},
		[]int{1, -1, 1},
	))
	nw.StartAll()
	nw.Run(5 * des.Second)

	a, c := nw.Stats(0), nw.Stats(2)
	if a.Successes == 0 || c.Successes == 0 {
		t.Fatalf("hidden terminals starved: A=%d C=%d successes", a.Successes, c.Successes)
	}
	// Collision avoidance keeps data-phase failures low: the vulnerable
	// window is only the RTS. Expect collision ratio well under 20%.
	for name, st := range map[string]mac.Stats{"A": a, "C": c} {
		if r := st.CollisionRatio(); r > 0.2 {
			t.Errorf("%s collision ratio = %v, want < 0.2 with RTS/CTS", name, r)
		}
	}
	// B must have delivered everything the senders count as success.
	b := nw.Stats(1)
	if b.DataDelivered != a.Successes+c.Successes {
		t.Errorf("B delivered %d, senders succeeded %d", b.DataDelivered, a.Successes+c.Successes)
	}
}

func TestNAVDefersThirdNode(t *testing.T) {
	// Three mutually in-range nodes. While A exchanges with B, C (also
	// saturated, toward B) must defer via NAV/carrier sense; the medium is
	// shared, so aggregate goodput stays near the single-link rate.
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	nw := simtest.Build(t, 11, cfg, simtest.SaturatedSpecs(
		[]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0.25, Y: 0.4}},
		[]int{1, -1, 1},
	))
	nw.StartAll()
	dur := 3 * des.Second
	nw.Run(dur)
	a, c := nw.Stats(0), nw.Stats(2)
	agg := float64(a.BitsAcked+c.BitsAcked) / dur.Seconds()
	if agg > 1.85e6 {
		t.Errorf("aggregate goodput %.3g b/s exceeds the shared-medium budget", agg)
	}
	if a.Successes == 0 || c.Successes == 0 {
		t.Errorf("both contenders should progress: A=%d C=%d", a.Successes, c.Successes)
	}
	// With carrier sensing everyone in range, data collisions are rare.
	if r := a.CollisionRatio(); r > 0.1 {
		t.Errorf("A collision ratio = %v, want < 0.1 (all nodes in range)", r)
	}
}

func TestDirectionalSpatialReuse(t *testing.T) {
	// Two parallel east-pointing links close enough that omni transmissions
	// interfere, but with 30° beams that miss the other pair: DRTS-DCTS
	// should let both links run at nearly full rate, roughly doubling the
	// aggregate of ORTS-OCTS.
	positions := []geom.Point{
		{X: 0, Y: 0}, {X: 0.9, Y: 0}, // link 1: 0 → 1
		{X: 0, Y: 0.5}, {X: 0.9, Y: 0.5}, // link 2: 2 → 3
	}
	dests := []int{1, -1, 3, -1}
	dur := 3 * des.Second

	aggregate := func(scheme core.Scheme, beam float64) float64 {
		cfg := mac.DefaultConfig(scheme, beam)
		nw := simtest.Build(t, 21, cfg, simtest.SaturatedSpecs(positions, dests))
		nw.StartAll()
		nw.Run(dur)
		bits := nw.Stats(0).BitsAcked + nw.Stats(2).BitsAcked
		return float64(bits) / dur.Seconds()
	}

	omni := aggregate(core.ORTSOCTS, 0)
	dir := aggregate(core.DRTSDCTS, 30*math.Pi/180)
	if dir < 1.5*omni {
		t.Errorf("spatial reuse: DRTS-DCTS aggregate %.3g b/s, ORTS-OCTS %.3g b/s; want ≥ 1.5x", dir, omni)
	}
	if dir < 2.8e6 { // both links nearly independent
		t.Errorf("DRTS-DCTS aggregate %.3g b/s, want near 2 × 1.62 Mb/s", dir)
	}
}

func TestSchemesRunOnDenseCluster(t *testing.T) {
	// Five nodes in general position, all within range; every scheme must
	// make progress without deadlock and conserve frame accounting.
	positions := []geom.Point{
		{X: 0, Y: 0}, {X: 0.4, Y: 0.1}, {X: 0.1, Y: 0.45},
		{X: -0.3, Y: 0.2}, {X: 0.2, Y: -0.35},
	}
	dests := []int{1, 2, 3, 4, 0}
	for _, scheme := range core.Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := mac.DefaultConfig(scheme, math.Pi/2)
			nw := simtest.Build(t, 31, cfg, simtest.SaturatedSpecs(positions, dests))
			nw.StartAll()
			nw.Run(3 * des.Second)
			var totalSucc, totalDeliver int64
			for _, node := range nw.Nodes {
				st := node.Stats()
				totalSucc += st.Successes
				totalDeliver += st.DataDelivered
				if st.DataSent != st.Successes+st.ACKTimeouts {
					// The final handshake may still be in flight.
					if st.DataSent != st.Successes+st.ACKTimeouts+1 {
						t.Errorf("node %d: DataSent=%d != Successes+ACKTimeouts=%d",
							node.ID(), st.DataSent, st.Successes+st.ACKTimeouts)
					}
				}
			}
			if totalSucc == 0 {
				t.Fatal("no progress in dense cluster")
			}
			if totalDeliver < totalSucc {
				t.Errorf("delivered %d < acked %d", totalDeliver, totalSucc)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []mac.Stats {
		cfg := mac.DefaultConfig(core.DRTSOCTS, math.Pi/3)
		nw := simtest.Build(t, 99, cfg, simtest.SaturatedSpecs(
			[]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0.9, Y: 0.3}},
			[]int{1, 2, 0},
		))
		nw.StartAll()
		nw.Run(des.Second)
		out := make([]mac.Stats, len(nw.Nodes))
		for i := range nw.Nodes {
			out[i] = nw.Stats(i)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d stats differ across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	var s mac.Stats
	if s.CollisionRatio() != 0 {
		t.Error("empty stats collision ratio should be 0")
	}
	if s.AvgDelay() != 0 {
		t.Error("empty stats delay should be 0")
	}
	s.ACKTimeouts = 1
	s.Successes = 3
	if got := s.CollisionRatio(); got != 0.25 {
		t.Errorf("CollisionRatio = %v, want 0.25", got)
	}
	s.DelaySum = 100 * des.Millisecond
	s.DelayCount = 4
	if got := s.AvgDelay(); got != 25*des.Millisecond {
		t.Errorf("AvgDelay = %v, want 25ms", got)
	}
}

func TestKickWakesIdleNode(t *testing.T) {
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	var cbr *traffic.CBR
	nw := simtest.Build(t, 17, cfg, []simtest.NodeSpec{
		{Pos: geom.Point{X: 0, Y: 0}, Source: func(t *testing.T, nw *simtest.Net, id phy.NodeID) mac.Source {
			c, err := traffic.NewCBR(nw.Sched, nw.Sched.Rand(), []phy.NodeID{1}, traffic.CBRConfig{
				Interval: 50 * des.Millisecond,
				Bytes:    1460,
				QueueCap: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			cbr = c
			return c
		}},
		{Pos: geom.Point{X: 0.5, Y: 0}, Source: simtest.Responder()},
	})
	// Build wired cbr.SetKick to the sender's Kick.
	nw.Start(0) // queue empty: node goes idle
	cbr.Start()
	nw.Run(des.Second)

	st := nw.Stats(0)
	// 1 s / 50 ms = 20 arrivals; at ~7 ms service time all are delivered.
	if st.Successes < 18 || st.Successes > 20 {
		t.Errorf("CBR successes = %d, want ≈ 19-20", st.Successes)
	}
	if cbr.Dropped() != 0 {
		t.Errorf("CBR dropped %d packets on an idle link", cbr.Dropped())
	}
	// Light load: delay is a single service time, far below saturation.
	if d := st.AvgDelay(); d > 10*des.Millisecond {
		t.Errorf("light-load delay = %v, want < 10 ms", d)
	}
}

func TestTraceRecordsHandshake(t *testing.T) {
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	rec := trace.NewRecorder(256)
	cfg.Tracer = rec
	nw := simtest.Build(t, 13, cfg, []simtest.NodeSpec{
		{Pos: geom.Point{X: 0, Y: 0}, Source: simtest.Packets(mac.Packet{Dst: 1, Bytes: 1460})},
		{Pos: geom.Point{X: 0.5, Y: 0}, Source: simtest.Responder()},
	})
	nw.Start(0)
	nw.Run(des.Second)

	var kinds []string
	for _, ev := range rec.Events() {
		kinds = append(kinds, fmt.Sprintf("%d:%v:%v", ev.Node, ev.Kind, ev.Frame))
	}
	// The clean single-packet exchange, in causal order:
	want := []trace.Kind{trace.Backoff, trace.TxStart, trace.RxFrame, trace.TxStart,
		trace.RxFrame, trace.TxStart, trace.RxFrame, trace.TxStart, trace.RxFrame, trace.Success}
	events := rec.Events()
	if len(events) != len(want) {
		t.Fatalf("trace length = %d, want %d: %v", len(events), len(want), kinds)
	}
	for i, k := range want {
		if events[i].Kind != k {
			t.Fatalf("trace[%d] = %v, want %v (full: %v)", i, events[i].Kind, k, kinds)
		}
	}
	// Frame progression RTS→CTS→DATA→ACK on the tx events.
	var txs []phy.FrameType
	for _, ev := range events {
		if ev.Kind == trace.TxStart {
			txs = append(txs, ev.Frame)
		}
	}
	wantTx := []phy.FrameType{phy.RTS, phy.CTS, phy.Data, phy.ACK}
	for i := range wantTx {
		if txs[i] != wantTx[i] {
			t.Fatalf("tx order = %v, want %v", txs, wantTx)
		}
	}
}

// TestBasicAccessCleanLink: without RTS/CTS, a clean 2-node link still
// works and achieves higher goodput (no handshake overhead).
func TestBasicAccessCleanLink(t *testing.T) {
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	cfg.BasicAccess = true
	nw := simtest.Build(t, 1, cfg, simtest.SaturatedSpecs(
		[]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}},
		[]int{1, -1},
	))
	nw.StartAll()
	dur := 2 * des.Second
	nw.Run(dur)
	st := nw.Stats(0)
	if st.Successes == 0 || st.ACKTimeouts != 0 {
		t.Fatalf("basic access on clean link: %+v", st)
	}
	if st.RTSSent != 0 || nw.Stats(1).CTSSent != 0 {
		t.Error("basic access must not exchange RTS/CTS")
	}
	basic := float64(st.BitsAcked) / dur.Seconds()
	// RTS/CTS adds two control frames (~940 µs with sync preambles) to
	// every ~7.2 ms cycle; basic access should be measurably faster.
	if basic < 1.7e6 {
		t.Errorf("basic-access goodput = %.3g b/s, want > 1.7 Mb/s", basic)
	}
}

// TestBasicAccessHiddenTerminalCollapse reproduces the problem statement
// of the paper's introduction (Tobagi & Kleinrock's hidden terminals):
// without RTS/CTS, two hidden senders corrupt each other's long data
// frames at the shared receiver and goodput collapses; the RTS/CTS
// handshake confines the damage to the short control frames.
func TestBasicAccessHiddenTerminalCollapse(t *testing.T) {
	positions := []geom.Point{{X: -0.9, Y: 0}, {X: 0, Y: 0}, {X: 0.9, Y: 0}}
	dests := []int{1, -1, 1}
	run := func(basic bool) (succ, dataCollisions int64) {
		cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
		cfg.BasicAccess = basic
		nw := simtest.Build(t, 7, cfg, simtest.SaturatedSpecs(positions, dests))
		nw.StartAll()
		nw.Run(5 * des.Second)
		a, c := nw.Stats(0), nw.Stats(2)
		return a.Successes + c.Successes, a.ACKTimeouts + c.ACKTimeouts
	}
	rtsSucc, rtsColl := run(false)
	basicSucc, basicColl := run(true)
	if basicColl <= 4*rtsColl {
		t.Errorf("hidden terminals: basic-access data collisions %d should dwarf RTS/CTS %d",
			basicColl, rtsColl)
	}
	if rtsSucc <= basicSucc {
		t.Errorf("hidden terminals: RTS/CTS goodput (%d) should beat basic access (%d)",
			rtsSucc, basicSucc)
	}
}

// TestAdaptiveRTSRecoversFromStaleBearing reproduces the adaptive
// omni/directional RTS idea from Ko et al. (the paper's related work):
// when the recorded location of the destination is stale and wrong, a
// pure directional RTS misses forever, while the adaptive variant probes
// omni-directionally and relearns the bearing from the piggybacked CTS.
func TestAdaptiveRTSRecoversFromStaleBearing(t *testing.T) {
	run := func(adaptive bool) mac.Stats {
		cfg := mac.DefaultConfig(core.DRTSDCTS, math.Pi/6) // narrow 30° beam
		if adaptive {
			cfg.AdaptiveRTSStaleness = 100 * des.Millisecond
			cfg.PiggybackLocation = true
		}
		// The destination actually sits north; the sender's table says east.
		senderTable := neighbor.NewTable(0, geom.Point{})
		senderTable.LearnAt(1, geom.Point{X: 0.8, Y: 0}, 0) // stale and wrong
		nw := simtest.Build(t, 3, cfg, []simtest.NodeSpec{
			{Pos: geom.Point{X: 0, Y: 0}, Table: senderTable,
				Source: simtest.Packets(mac.Packet{Dst: 1, Bytes: 1460})},
			{Pos: geom.Point{X: 0, Y: 0.8}, Source: simtest.Responder()},
		})
		// Let the stale entry age past the threshold before starting.
		nw.Run(200 * des.Millisecond)
		nw.Start(0)
		nw.Run(nw.Sched.Now() + 2*des.Second)
		return nw.Stats(0)
	}

	plain := run(false)
	if plain.Successes != 0 || plain.Drops != 1 {
		t.Errorf("pure directional RTS with a wrong bearing should fail: %+v", plain)
	}
	adaptive := run(true)
	if adaptive.Successes != 1 {
		t.Errorf("adaptive RTS should recover via omni probe: %+v", adaptive)
	}
	if adaptive.Drops != 0 {
		t.Errorf("adaptive RTS dropped the packet: %+v", adaptive)
	}
}

// TestPiggybackKeepsDirectionalFresh: with location piggybacking, every
// decoded frame refreshes the sender's entry, so subsequent directional
// frames aim correctly without any external refresh.
func TestPiggybackKeepsDirectionalFresh(t *testing.T) {
	cfg := mac.DefaultConfig(core.DRTSDCTS, math.Pi/6)
	cfg.AdaptiveRTSStaleness = des.Second
	cfg.PiggybackLocation = true
	nw := simtest.Build(t, 9, cfg, []simtest.NodeSpec{
		{Pos: geom.Point{X: 0, Y: 0}, Source: simtest.SaturatedBytes(1460, 1)},
		{Pos: geom.Point{X: 0.5, Y: 0}, Source: simtest.Responder()},
	})
	nw.Start(0)
	nw.Run(2 * des.Second)
	st := nw.Stats(0)
	if st.Successes < 200 {
		t.Errorf("piggybacked adaptive link should run at full rate: %+v", st)
	}
	if st.CTSTimeouts != 0 {
		t.Errorf("no timeouts expected on a clean adaptive link: %+v", st)
	}
}

// A lossy-ACK wrapper is not possible at the MAC level, so duplicate
// suppression is tested by injecting the retransmission directly: the
// same data sequence number delivered twice must be delivered up once
// and acknowledged twice.
func TestSequenceControlSuppressesDuplicates(t *testing.T) {
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	nw := simtest.Build(t, 2, cfg, []simtest.NodeSpec{
		{Pos: geom.Point{X: 0, Y: 0}}, // bare radio: frames injected by hand
		{Pos: geom.Point{X: 0.5, Y: 0}, Source: simtest.Responder()},
	})
	fake := nw.Ch.Radio(0)
	send := func(seq int64) {
		f := phy.Frame{Type: phy.Data, Src: 0, Dst: 1, Bytes: 500, Seq: seq}
		if _, err := fake.Transmit(f, phy.Omni); err != nil {
			t.Fatal(err)
		}
		nw.Run(nw.Sched.Now() + 10*des.Millisecond)
	}
	send(7)
	send(7) // retransmission (sender "lost" the ACK)
	send(8) // next packet

	st := nw.Stats(1)
	if st.DataDelivered != 2 {
		t.Errorf("DataDelivered = %d, want 2 (seq 7 once, seq 8 once)", st.DataDelivered)
	}
	if st.DupsSuppressed != 1 {
		t.Errorf("DupsSuppressed = %d, want 1", st.DupsSuppressed)
	}
	if st.ACKSent != 3 {
		t.Errorf("ACKSent = %d, want 3 (every data frame is acknowledged)", st.ACKSent)
	}
	if st.BitsDelivered != 2*500*8 {
		t.Errorf("BitsDelivered = %d, want %d", st.BitsDelivered, 2*500*8)
	}
}

// TestRetransmissionKeepsSequence: a data retransmission after an ACK
// timeout must reuse the packet's sequence number so the receiver can
// recognize it.
func TestRetransmissionKeepsSequence(t *testing.T) {
	cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
	rec := trace.NewRecorder(2048)
	cfg.Tracer = rec
	// Hidden-terminal pressure generates ACK timeouts and data retries.
	nw := simtest.Build(t, 7, cfg, simtest.SaturatedSpecs(
		[]geom.Point{{X: -0.9, Y: 0}, {X: 0, Y: 0}, {X: 0.9, Y: 0}},
		[]int{1, -1, 1},
	))
	nw.StartAll()
	nw.Run(3 * des.Second)
	a := nw.Stats(0)
	if a.ACKTimeouts == 0 {
		t.Skip("no ACK timeouts in this run; nothing to check")
	}
	// Accounting sanity with dedup in place: B's deliveries + suppressed
	// dups ≥ senders' data transmissions that were decoded. At minimum,
	// total successes must not exceed distinct deliveries.
	b := nw.Stats(1)
	c := nw.Stats(2)
	if b.DataDelivered < a.Successes+c.Successes {
		t.Errorf("deliveries %d < successes %d (dup suppression broke accounting)",
			b.DataDelivered, a.Successes+c.Successes)
	}
}

// TestNewRejectsTimingOutsideCountdownEnvelope pins the one-timer
// countdown's preconditions: construction fails loudly, never silently
// changes behaviour, when PropDelay < Slot <= SyncTime with DIFS > Slot
// does not hold.
func TestNewRejectsTimingOutsideCountdownEnvelope(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(p *phy.Params, c *mac.Config)
		ok   bool
	}{
		{"table1", func(*phy.Params, *mac.Config) {}, true},
		{"prop-equals-slot", func(p *phy.Params, c *mac.Config) { p.PropDelay = c.Slot }, false},
		{"sync-below-slot", func(p *phy.Params, c *mac.Config) { p.SyncTime = c.Slot - 1 }, false},
		{"sync-equals-slot", func(p *phy.Params, c *mac.Config) { p.SyncTime = c.Slot }, true},
		{"difs-equals-slot", func(p *phy.Params, c *mac.Config) { c.DIFS = c.Slot }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := phy.DefaultParams()
			cfg := mac.DefaultConfig(core.ORTSOCTS, 0)
			tc.edit(&params, &cfg)
			sched := des.New(1)
			ch, err := phy.NewChannel(sched, params)
			if err != nil {
				t.Fatal(err)
			}
			radio := ch.AddRadio(geom.Point{}, nil)
			_, err = mac.New(sched, radio, neighbor.NewTable(0, geom.Point{}), nil, cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("mac.New error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
