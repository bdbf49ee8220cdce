package phy

import (
	"errors"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
)

// recorder is a Handler fixture that logs every PHY indication.
type recorder struct {
	busy, idle, errs, txdone int
	frames                   []Frame
	events                   []string
	sched                    *des.Scheduler
}

func (r *recorder) OnCarrierBusy() { r.busy++; r.events = append(r.events, "busy") }
func (r *recorder) OnCarrierIdle() { r.idle++; r.events = append(r.events, "idle") }
func (r *recorder) OnFrame(f Frame) {
	r.frames = append(r.frames, f)
	r.events = append(r.events, "frame")
}
func (r *recorder) OnFrameError() { r.errs++; r.events = append(r.events, "err") }
func (r *recorder) OnTxDone()     { r.txdone++; r.events = append(r.events, "txdone") }

// call adapts a closure to des.Event for the tests that schedule one.
type call func()

func (f call) Fire() { f() }

// rig builds a channel with one radio per position and a recorder each.
func rig(t *testing.T, params Params, positions ...geom.Point) (*des.Scheduler, *Channel, []*Radio, []*recorder) {
	t.Helper()
	sched := des.New(1)
	ch, err := NewChannel(sched, params)
	if err != nil {
		t.Fatal(err)
	}
	radios := make([]*Radio, len(positions))
	recs := make([]*recorder, len(positions))
	for i, pos := range positions {
		recs[i] = &recorder{sched: sched}
		radios[i] = ch.AddRadio(pos, recs[i])
	}
	return sched, ch, radios, recs
}

func TestAirtime(t *testing.T) {
	tests := []struct {
		bytes int
		want  des.Time
	}{
		{1460, 192*des.Microsecond + 5840*des.Microsecond}, // paper's data frame
		{20, 192*des.Microsecond + 80*des.Microsecond},     // RTS
		{14, 192*des.Microsecond + 56*des.Microsecond},     // CTS/ACK
		{0, 192 * des.Microsecond},
	}
	for _, tt := range tests {
		if got := Airtime(tt.bytes); got != tt.want {
			t.Errorf("Airtime(%d) = %v, want %v", tt.bytes, got, tt.want)
		}
	}
}

func TestFrameTypeString(t *testing.T) {
	tests := []struct {
		ft   FrameType
		want string
	}{
		{RTS, "RTS"}, {CTS, "CTS"}, {Data, "DATA"}, {ACK, "ACK"}, {Hello, "HELLO"},
		{FrameType(42), "FrameType(42)"},
	}
	for _, tt := range tests {
		if got := tt.ft.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
	bad := []Params{
		{Range: 0},
		{Range: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
	if _, err := NewChannel(des.New(1), Params{}); err == nil {
		t.Error("NewChannel should reject invalid params")
	}
}

func TestOmniDelivery(t *testing.T) {
	sched, _, radios, recs := rig(t, DefaultParams(),
		geom.Point{X: 0, Y: 0},   // sender
		geom.Point{X: 0.5, Y: 0}, // in range
		geom.Point{X: 2, Y: 0},   // out of range
	)
	f := Frame{Type: RTS, Src: 0, Dst: 1, Bytes: 20, Seq: 7}
	air, err := radios[0].Transmit(f, Omni)
	if err != nil {
		t.Fatal(err)
	}
	if want := Airtime(20); air != want {
		t.Errorf("airtime = %v, want %v", air, want)
	}
	sched.RunAll()
	if len(recs[1].frames) != 1 || recs[1].frames[0].Seq != 7 {
		t.Errorf("in-range receiver frames = %+v, want one with Seq 7", recs[1].frames)
	}
	if len(recs[2].frames) != 0 {
		t.Errorf("out-of-range receiver got %d frames, want 0", len(recs[2].frames))
	}
	if recs[0].txdone != 1 {
		t.Errorf("sender txdone = %d, want 1", recs[0].txdone)
	}
	if len(recs[0].frames) != 0 {
		t.Error("sender must not hear its own frame")
	}
	// Receiver saw busy then idle.
	if recs[1].busy != 1 || recs[1].idle != 1 {
		t.Errorf("receiver carrier events busy=%d idle=%d, want 1/1", recs[1].busy, recs[1].idle)
	}
}

func TestDirectionalBeamFiltering(t *testing.T) {
	// Sender at origin aims east with a 60° beam. The eastern node hears,
	// the northern node does not.
	sched, _, radios, recs := rig(t, DefaultParams(),
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.9, Y: 0},   // east: inside beam
		geom.Point{X: 0, Y: 0.9},   // north: outside beam
		geom.Point{X: 0.6, Y: 0.2}, // slightly off-axis: inside 60° beam (~18.4°)
	)
	f := Frame{Type: Data, Src: 0, Dst: 1, Bytes: 100}
	if _, err := radios[0].Transmit(f, Directed(0, geom.NormalizeAngle(1.0472))); err != nil { // 60°
		t.Fatal(err)
	}
	sched.RunAll()
	if len(recs[1].frames) != 1 {
		t.Error("east node should hear the directional frame")
	}
	if len(recs[2].frames) != 0 || recs[2].busy != 0 {
		t.Error("north node must neither decode nor sense the directional frame")
	}
	if len(recs[3].frames) != 1 {
		t.Error("off-axis node within the beam should hear the frame")
	}
}

func TestCollisionNoCapture(t *testing.T) {
	// Two hidden senders (2.0 apart, out of each other's range) overlap at
	// the middle receiver: both frames corrupted, one error per signal end.
	sched, _, radios, recs := rig(t, DefaultParams(),
		geom.Point{X: -1, Y: 0},
		geom.Point{X: 1, Y: 0},
		geom.Point{X: 0, Y: 0},
	)
	f1 := Frame{Type: Data, Src: 0, Dst: 2, Bytes: 100}
	f2 := Frame{Type: Data, Src: 1, Dst: 2, Bytes: 100}
	if _, err := radios[0].Transmit(f1, Omni); err != nil {
		t.Fatal(err)
	}
	// Start the second transmission mid-way through the first.
	sched.ScheduleEvent(200*des.Microsecond, call(func() {
		if _, err := radios[1].Transmit(f2, Omni); err != nil {
			t.Error(err)
		}
	}))

	sched.RunAll()
	if len(recs[2].frames) != 0 {
		t.Errorf("receiver decoded %d frames from a collision, want 0", len(recs[2].frames))
	}
	if recs[2].errs != 2 {
		t.Errorf("receiver errors = %d, want 2 (both signals damaged)", recs[2].errs)
	}
	if recs[2].busy != 1 || recs[2].idle != 1 {
		t.Errorf("carrier events busy=%d idle=%d, want exactly one busy/idle pair", recs[2].busy, recs[2].idle)
	}
}

func TestCollisionWithCapture(t *testing.T) {
	params := DefaultParams()
	params.Capture = true
	sched, _, radios, recs := rig(t, params,
		geom.Point{X: -1, Y: 0},
		geom.Point{X: 1, Y: 0},
		geom.Point{X: 0, Y: 0},
	)
	f1 := Frame{Type: Data, Src: 0, Dst: 2, Bytes: 100, Seq: 1}
	f2 := Frame{Type: Data, Src: 1, Dst: 2, Bytes: 100, Seq: 2}
	if _, err := radios[0].Transmit(f1, Omni); err != nil {
		t.Fatal(err)
	}
	sched.ScheduleEvent(200*des.Microsecond, call(func() {
		if _, err := radios[1].Transmit(f2, Omni); err != nil {
			t.Error(err)
		}
	}))

	sched.RunAll()
	if len(recs[2].frames) != 1 || recs[2].frames[0].Seq != 1 {
		t.Errorf("capture receiver frames = %+v, want only Seq 1", recs[2].frames)
	}
	if recs[2].errs != 1 {
		t.Errorf("capture receiver errors = %d, want 1 (the latecomer)", recs[2].errs)
	}
}

func TestDeafWhileTransmitting(t *testing.T) {
	sched, _, radios, recs := rig(t, DefaultParams(),
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.5, Y: 0},
	)
	// Node 1 transmits a long frame; node 0's frame arrives during it.
	if _, err := radios[1].Transmit(Frame{Type: Data, Src: 1, Dst: 0, Bytes: 1460}, Omni); err != nil {
		t.Fatal(err)
	}
	sched.ScheduleEvent(100*des.Microsecond, call(func() {
		if _, err := radios[0].Transmit(Frame{Type: RTS, Src: 0, Dst: 1, Bytes: 20}, Omni); err != nil {
			t.Error(err)
		}
	}))

	sched.RunAll()
	if len(recs[1].frames) != 0 {
		t.Error("transmitting radio must not decode arriving frames")
	}
	if recs[1].errs != 0 {
		t.Error("missed (deaf) signals must not surface as frame errors")
	}
	// Node 0 was deaf too when node 1's long frame arrived? No: node 0
	// started transmitting *after* reception began → its reception is
	// stomped by its own transmission.
	if len(recs[0].frames) != 0 {
		t.Error("radio that transmits mid-reception must lose the frame")
	}
}

func TestTransmitWhileBusyFails(t *testing.T) {
	sched, _, radios, _ := rig(t, DefaultParams(), geom.Point{X: 0, Y: 0})
	if _, err := radios[0].Transmit(Frame{Type: Data, Bytes: 100}, Omni); err != nil {
		t.Fatal(err)
	}
	if _, err := radios[0].Transmit(Frame{Type: Data, Bytes: 100}, Omni); err == nil {
		t.Error("second Transmit during first should fail")
	}
	sched.RunAll()
	if _, err := radios[0].Transmit(Frame{Type: Data, Bytes: 100}, Omni); err != nil {
		t.Errorf("Transmit after completion should succeed, got %v", err)
	}
}

// TestTransmitUnknownFrameType: airtime is accounted per frame type in
// fixed arrays, so a type past Hello is refused rather than counted.
func TestTransmitUnknownFrameType(t *testing.T) {
	_, ch, radios, _ := rig(t, DefaultParams(), geom.Point{X: 0, Y: 0})
	bad := FrameType(42)
	if _, err := radios[0].Transmit(Frame{Type: bad, Bytes: 100}, Omni); !errors.Is(err, ErrFrameType) {
		t.Fatalf("Transmit of %v: err %v, want ErrFrameType", bad, err)
	}
	if radios[0].Transmitting() || ch.TxCount(bad) != 0 || ch.TxAirtime(bad) != 0 {
		t.Error("a refused frame left the radio transmitting or was counted")
	}
}

func TestPropagationDelayTiming(t *testing.T) {
	params := DefaultParams()
	sched, _, radios, recs := rig(t, params,
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.5, Y: 0},
	)
	var deliveredAt des.Time = -1
	// Wrap: detect delivery time via a probe scheduled every event.
	f := Frame{Type: ACK, Src: 0, Dst: 1, Bytes: 14}
	air, err := radios[0].Transmit(f, Omni)
	if err != nil {
		t.Fatal(err)
	}
	want := air + PropDelay
	for sched.Step() {
		if len(recs[1].frames) == 1 && deliveredAt < 0 {
			deliveredAt = sched.Now()
		}
	}
	if deliveredAt != want {
		t.Errorf("frame delivered at %v, want %v (airtime+propagation)", deliveredAt, want)
	}
}

func TestCarrierBusyQuery(t *testing.T) {
	sched, _, radios, _ := rig(t, DefaultParams(),
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.5, Y: 0},
	)
	if radios[1].CarrierBusy() {
		t.Error("channel should start idle")
	}
	if _, err := radios[0].Transmit(Frame{Type: Data, Bytes: 1460}, Omni); err != nil {
		t.Fatal(err)
	}
	sched.Run(1 * des.Millisecond) // mid-transmission
	if !radios[1].CarrierBusy() {
		t.Error("receiver should sense carrier mid-transmission")
	}
	if !radios[0].Transmitting() {
		t.Error("sender should report Transmitting mid-transmission")
	}
	sched.RunAll()
	if radios[1].CarrierBusy() || radios[0].Transmitting() {
		t.Error("all radios should be quiet after the run drains")
	}
}

func TestNeighbors(t *testing.T) {
	_, ch, _, _ := rig(t, DefaultParams(),
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.5, Y: 0},
		geom.Point{X: 0.99, Y: 0},
		geom.Point{X: 1.5, Y: 0},
	)
	got := ch.Neighbors(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
	got = ch.Neighbors(3) // node 1 is exactly at range 1.0 (inclusive)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors(3) = %v, want [1 2]", got)
	}
	if ch.Neighbors(99) != nil {
		t.Error("Neighbors of unknown ID should be nil")
	}
}

func TestRadioAccessors(t *testing.T) {
	_, ch, radios, _ := rig(t, DefaultParams(), geom.Point{X: 3, Y: 4})
	if radios[0].ID() != 0 {
		t.Errorf("ID = %v, want 0", radios[0].ID())
	}
	if radios[0].Pos() != (geom.Point{X: 3, Y: 4}) {
		t.Errorf("Pos = %v", radios[0].Pos())
	}
	if ch.Radio(0) != radios[0] {
		t.Error("Radio(0) mismatch")
	}
	if ch.Radio(-2) != nil || ch.Radio(5) != nil {
		t.Error("Radio out of range should be nil")
	}
	if ch.NumRadios() != 1 {
		t.Errorf("NumRadios = %d, want 1", ch.NumRadios())
	}
	if ch.Params() != DefaultParams() {
		t.Errorf("Params = %+v, want %+v", ch.Params(), DefaultParams())
	}
}

func TestBackToBackTransmissionsNoFalseCollision(t *testing.T) {
	// Sequential, non-overlapping transmissions must both decode.
	sched, _, radios, recs := rig(t, DefaultParams(),
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.5, Y: 0},
	)
	air, err := radios[0].Transmit(Frame{Type: RTS, Src: 0, Dst: 1, Bytes: 20, Seq: 1}, Omni)
	if err != nil {
		t.Fatal(err)
	}
	sched.ScheduleEvent(air+10*des.Microsecond, call(func() {
		if _, err := radios[0].Transmit(Frame{Type: RTS, Src: 0, Dst: 1, Bytes: 20, Seq: 2}, Omni); err != nil {
			t.Error(err)
		}
	}))

	sched.RunAll()
	if len(recs[1].frames) != 2 {
		t.Errorf("receiver decoded %d frames, want 2", len(recs[1].frames))
	}
	if recs[1].errs != 0 {
		t.Errorf("false collision: %d errors", recs[1].errs)
	}
	if recs[1].busy != 2 || recs[1].idle != 2 {
		t.Errorf("carrier pairs = %d/%d, want 2/2", recs[1].busy, recs[1].idle)
	}
}

func TestThreeWayOverlapAllCorrupted(t *testing.T) {
	sched, _, radios, recs := rig(t, DefaultParams(),
		geom.Point{X: -1, Y: 0},
		geom.Point{X: 1, Y: 0},
		geom.Point{X: 0, Y: 0.9},
		geom.Point{X: 0, Y: 0},
	)
	for i := 0; i < 3; i++ {
		i := i
		sched.ScheduleEvent(des.Time(i*100)*des.Microsecond, call(func() {
			if _, err := radios[i].Transmit(Frame{Type: Data, Src: NodeID(i), Dst: 3, Bytes: 500}, Omni); err != nil {
				t.Error(err)
			}
		}))
	}
	sched.RunAll()
	if len(recs[3].frames) != 0 {
		t.Errorf("receiver decoded %d frames from triple overlap", len(recs[3].frames))
	}
	if recs[3].errs != 3 {
		t.Errorf("errors = %d, want 3", recs[3].errs)
	}
}

func TestBroadcastFrameReachesAllInRange(t *testing.T) {
	sched, _, radios, recs := rig(t, DefaultParams(),
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.5, Y: 0},
		geom.Point{X: -0.5, Y: 0.2},
		geom.Point{X: 0, Y: -0.9},
	)
	if _, err := radios[0].Transmit(Frame{Type: Hello, Src: 0, Dst: Broadcast, Bytes: 30}, Omni); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	for i := 1; i <= 3; i++ {
		if len(recs[i].frames) != 1 {
			t.Errorf("node %d got %d frames, want 1", i, len(recs[i].frames))
		}
	}
}

// hintRecorder also implements NAVHinter.
type hintRecorder struct {
	recorder

	hints []Frame
}

func (h *hintRecorder) OnNAVHint(f Frame) { h.hints = append(h.hints, f) }

func TestNAVOracleHints(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		params := DefaultParams()
		params.NAVOracle = oracle
		sched := des.New(1)
		ch, err := NewChannel(sched, params)
		if err != nil {
			t.Fatal(err)
		}
		tx := ch.AddRadio(geom.Point{X: 0, Y: 0}, &recorder{})
		inBeam := &hintRecorder{}
		ch.AddRadio(geom.Point{X: 0.9, Y: 0}, inBeam)
		outBeam := &hintRecorder{}
		ch.AddRadio(geom.Point{X: 0, Y: 0.9}, outBeam)
		outRange := &hintRecorder{}
		ch.AddRadio(geom.Point{X: 0, Y: 5}, outRange)

		f := Frame{Type: RTS, Src: 0, Dst: 1, Bytes: 20, NAV: des.Millisecond}
		if _, err := tx.Transmit(f, Directed(0, 0.5)); err != nil {
			t.Fatal(err)
		}
		sched.RunAll()

		if len(inBeam.frames) != 1 || len(inBeam.hints) != 0 {
			t.Errorf("oracle=%v: in-beam node frames=%d hints=%d, want 1/0",
				oracle, len(inBeam.frames), len(inBeam.hints))
		}
		wantHints := 0
		if oracle {
			wantHints = 1
		}
		if len(outBeam.hints) != wantHints || len(outBeam.frames) != 0 {
			t.Errorf("oracle=%v: out-of-beam node hints=%d frames=%d, want %d/0",
				oracle, len(outBeam.hints), len(outBeam.frames), wantHints)
		}
		if outBeam.busy != 0 {
			t.Errorf("oracle=%v: NAV hints must not carry energy", oracle)
		}
		if len(outRange.hints) != 0 {
			t.Errorf("oracle=%v: out-of-range node must get no hints", oracle)
		}
		if oracle && outBeam.hints[0].NAV != des.Millisecond {
			t.Errorf("hint NAV = %v, want 1ms", outBeam.hints[0].NAV)
		}
	}
}

func sinrParams() Params {
	p := DefaultParams()
	p.SINRThreshold = 10
	p.PathLoss = 2
	p.NoiseFloor = 0.001
	return p
}

func TestSINRValidation(t *testing.T) {
	good := sinrParams()
	if err := good.Validate(); err != nil {
		t.Errorf("SINR params invalid: %v", err)
	}
	bad := good
	bad.PathLoss = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero path loss should be rejected in SINR mode")
	}
	bad = good
	bad.NoiseFloor = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative noise should be rejected")
	}
}

func TestModeGain(t *testing.T) {
	if g := Omni.Gain(); g != 1 {
		t.Errorf("omni gain = %v, want 1", g)
	}
	if g := Directed(0, math.Pi).Gain(); math.Abs(g-2) > 1e-12 {
		t.Errorf("180° gain = %v, want 2", g)
	}
	if g := Directed(0, math.Pi/6).Gain(); math.Abs(g-12) > 1e-12 {
		t.Errorf("30° gain = %v, want 12", g)
	}
	if g := Directed(0, 2*math.Pi).Gain(); g != 1 {
		t.Errorf("full-circle gain = %v, want 1", g)
	}
}

// TestSINRCaptureByStrength: with the physical receiver, a strong nearby
// signal survives a weak far interferer — unlike the paper's pessimistic
// overlap model.
func TestSINRCaptureByStrength(t *testing.T) {
	sched, _, radios, recs := rig(t, sinrParams(),
		geom.Point{X: 0.05, Y: 0}, // strong sender, very close
		geom.Point{X: 1, Y: 0},    // weak interferer at the range edge
		geom.Point{X: 0, Y: 0},    // receiver
	)
	if _, err := radios[0].Transmit(Frame{Type: Data, Src: 0, Dst: 2, Bytes: 500, Seq: 1}, Omni); err != nil {
		t.Fatal(err)
	}
	sched.ScheduleEvent(200*des.Microsecond, call(func() {
		if _, err := radios[1].Transmit(Frame{Type: Data, Src: 1, Dst: 2, Bytes: 500, Seq: 2}, Omni); err != nil {
			t.Error(err)
		}
	}))

	sched.RunAll()
	// Strong: power 1/0.05² = 400; weak: 1. SINR = 400/(1+0.001) ≫ 10 →
	// the strong frame decodes; the weak one is hopeless.
	if len(recs[2].frames) != 1 || recs[2].frames[0].Seq != 1 {
		t.Errorf("receiver frames = %+v, want only the strong Seq 1", recs[2].frames)
	}
	if recs[2].errs != 1 {
		t.Errorf("errors = %d, want 1 (the weak frame)", recs[2].errs)
	}
}

// TestSINRMutualKill: two comparable-power signals still destroy each
// other (the SINR model reduces to the paper's behaviour for peers).
func TestSINRMutualKill(t *testing.T) {
	sched, _, radios, recs := rig(t, sinrParams(),
		geom.Point{X: -0.5, Y: 0},
		geom.Point{X: 0.5, Y: 0},
		geom.Point{X: 0, Y: 0},
	)
	if _, err := radios[0].Transmit(Frame{Type: Data, Src: 0, Dst: 2, Bytes: 500}, Omni); err != nil {
		t.Fatal(err)
	}
	sched.ScheduleEvent(100*des.Microsecond, call(func() {
		if _, err := radios[1].Transmit(Frame{Type: Data, Src: 1, Dst: 2, Bytes: 500}, Omni); err != nil {
			t.Error(err)
		}
	}))

	sched.RunAll()
	if len(recs[2].frames) != 0 || recs[2].errs != 2 {
		t.Errorf("equal-power overlap: frames=%d errs=%d, want 0/2", len(recs[2].frames), recs[2].errs)
	}
}

// TestSINRNarrowBeamBeatsNoise reproduces the paper's footnote 2: "it is
// more desirable to transmit with narrower beamwidth, because signal
// energy is more concentrated and a higher signal-to-noise ratio can be
// achieved". With a noise floor that drowns an omni transmission at the
// range edge, a 30° beam still gets through.
func TestSINRNarrowBeamBeatsNoise(t *testing.T) {
	params := sinrParams()
	params.NoiseFloor = 0.2 // omni SNR at d=0.95: (1/0.9025)/0.2 ≈ 5.5 < 10
	sched, _, radios, recs := rig(t, params,
		geom.Point{X: 0, Y: 0},
		geom.Point{X: 0.95, Y: 0},
	)
	if _, err := radios[0].Transmit(Frame{Type: Data, Src: 0, Dst: 1, Bytes: 100, Seq: 1}, Omni); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if len(recs[1].frames) != 0 {
		t.Error("omni transmission should be below the SNR threshold")
	}
	if recs[1].errs != 1 {
		t.Errorf("noise-drowned frame should surface as an error, got %d", recs[1].errs)
	}
	// Same link, 30° beam: gain 12 → SNR ≈ 66 > 10.
	if _, err := radios[0].Transmit(Frame{Type: Data, Src: 0, Dst: 1, Bytes: 100, Seq: 2}, Directed(0, math.Pi/6)); err != nil {
		t.Fatal(err)
	}
	sched.RunAll()
	if len(recs[1].frames) != 1 || recs[1].frames[0].Seq != 2 {
		t.Errorf("directional transmission should clear the threshold: %+v", recs[1].frames)
	}
}

// TestSINRDisabledMatchesOverlapModel: with SINRThreshold = 0 the channel
// behaves exactly as the paper's overlap model.
func TestSINRDisabledMatchesOverlapModel(t *testing.T) {
	params := DefaultParams() // SINR off
	sched, _, radios, recs := rig(t, params,
		geom.Point{X: 0.05, Y: 0},
		geom.Point{X: 1, Y: 0},
		geom.Point{X: 0, Y: 0},
	)
	if _, err := radios[0].Transmit(Frame{Type: Data, Src: 0, Dst: 2, Bytes: 500, Seq: 1}, Omni); err != nil {
		t.Fatal(err)
	}
	sched.ScheduleEvent(200*des.Microsecond, call(func() {
		if _, err := radios[1].Transmit(Frame{Type: Data, Src: 1, Dst: 2, Bytes: 500, Seq: 2}, Omni); err != nil {
			t.Error(err)
		}
	}))

	sched.RunAll()
	// No capture without SINR: even the overwhelmingly stronger frame dies.
	if len(recs[2].frames) != 0 || recs[2].errs != 2 {
		t.Errorf("overlap model: frames=%d errs=%d, want 0/2", len(recs[2].frames), recs[2].errs)
	}
}
