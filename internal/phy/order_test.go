package phy

// Callback order at the PHY boundary. The countdown corpus checks
// delivery only through the MAC, which never transmits from inside a PHY
// callback. This test drives the channel directly with overlapping
// transmissions, some of them sent from inside OnCarrierBusy and OnFrame,
// and pins the SHA-256 of the full callback log of each variant.
//
// The digests in testdata/callback-order.txt were recorded with the
// per-receiver delivery kernel (one start and one end event per hearing
// radio, one event per NAV hint). Per-transmission delivery must
// reproduce them unchanged: same callbacks, same radios, same instants,
// same order. Regenerate only for an intended behaviour change:
//
//	UPDATE_GOLDEN=1 go test ./internal/phy -run TestCallbackOrderDigests

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/geom"
)

const orderGolden = "testdata/callback-order.txt"

// orderSend is one scripted transmission attempt.
type orderSend struct {
	at    des.Time
	src   NodeID
	bytes int
	mode  Mode
}

// orderScript draws sends at random instants over a 60 ms window, so
// transmissions overlap and many attempts find their radio busy. Half
// are omni; the rest aim a 30°–150° beam at a random bearing.
func orderScript(seed int64, n, sends int) []orderSend {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{14, 20, 200, 1460}
	script := make([]orderSend, sends)
	for i := range script {
		s := orderSend{
			at:    des.Time(rng.Int63n(int64(60 * des.Millisecond))),
			src:   NodeID(rng.Intn(n)),
			bytes: sizes[rng.Intn(len(sizes))],
		}
		if rng.Intn(2) == 1 {
			width := (30 + rng.Float64()*120) * math.Pi / 180
			s.mode = Directed(rng.Float64()*2*math.Pi-math.Pi, width)
		}
		script[i] = s
	}
	return script
}

// traceRec is one observed PHY indication.
type traceRec struct {
	at   des.Time
	node NodeID
	kind byte // 'f' frame, 'e' frame error, 'b' carrier busy, 'i' carrier idle, 't' tx done, 'h' NAV hint
	src  NodeID
	seq  int64
}

// orderRun is the shared state of one variant's run.
type orderRun struct {
	sched *des.Scheduler
	log   []traceRec
	// reentrant makes every fourth OnCarrierBusy and every fourth
	// OnFrame transmit at once from inside the callback, up to replies
	// such sends.
	reentrant bool
	calls     int
	replies   int
}

// orderHandler logs every callback, NAV hints included, and optionally
// transmits from inside OnCarrierBusy and OnFrame.
type orderHandler struct {
	run   *orderRun
	radio *Radio
}

func (h *orderHandler) rec(kind byte, src NodeID, seq int64) {
	h.run.log = append(h.run.log, traceRec{at: h.run.sched.Now(), node: h.radio.ID(), kind: kind, src: src, seq: seq})
}

// reply transmits f from inside a callback when the variant asks for it.
func (h *orderHandler) reply(f Frame, m Mode) {
	r := h.run
	if !r.reentrant || r.replies == 0 {
		return
	}
	r.calls++
	if r.calls%4 != 0 {
		return
	}
	r.replies--
	f.Src, f.Seq = h.radio.ID(), -int64(r.replies)-1
	if _, err := h.radio.Transmit(f, m); err != nil && !errors.Is(err, ErrTxBusy) {
		panic(err)
	}
}

func (h *orderHandler) OnCarrierBusy() {
	h.rec('b', -1, 0)
	h.reply(Frame{Type: RTS, Dst: Broadcast, Bytes: 20}, Directed(float64(h.radio.ID()), math.Pi/2))
}

func (h *orderHandler) OnCarrierIdle() { h.rec('i', -1, 0) }

func (h *orderHandler) OnFrame(f Frame) {
	h.rec('f', f.Src, f.Seq)
	h.reply(Frame{Type: CTS, Dst: f.Src, Bytes: 14}, Omni)
}

func (h *orderHandler) OnFrameError()     { h.rec('e', -1, 0) }
func (h *orderHandler) OnTxDone()         { h.rec('t', -1, 0) }
func (h *orderHandler) OnNAVHint(f Frame) { h.rec('h', f.Src, f.Seq) }

// orderVariant is one channel configuration of the callback-order test.
type orderVariant struct {
	name      string
	params    func(*Params)
	reentrant bool
}

var orderVariants = []orderVariant{
	{name: "default", params: func(*Params) {}},
	{name: "capture", params: func(p *Params) { p.Capture = true }},
	{name: "sinr", params: func(p *Params) { p.SINRThreshold, p.PathLoss, p.NoiseFloor = 2, 3, 1e-3 }},
	{name: "oracle", params: func(p *Params) { p.NAVOracle = true }},
	{name: "reentrant-oracle", params: func(p *Params) { p.NAVOracle = true }, reentrant: true},
}

// runOrder places 24 radios in a 2R × 2R square, schedules the script
// without draining between sends, runs it out and returns the log.
func runOrder(t *testing.T, v orderVariant) []traceRec {
	t.Helper()
	const n = 24
	params := DefaultParams()
	v.params(&params)
	sched := des.New(1)
	ch, err := NewChannel(sched, params)
	if err != nil {
		t.Fatal(err)
	}
	run := &orderRun{sched: sched, reentrant: v.reentrant, replies: 80}
	place := rand.New(rand.NewSource(21))
	handlers := make([]orderHandler, n)
	for i := range handlers {
		pos := geom.Point{X: place.Float64() * 2 * params.Range, Y: place.Float64() * 2 * params.Range}
		handlers[i] = orderHandler{run: run, radio: ch.AddRadio(pos, &handlers[i])}
	}
	for i, s := range orderScript(7, n, 300) {
		f := Frame{Type: Data, Src: s.src, Dst: Broadcast, Bytes: s.bytes, Seq: int64(i + 1)}
		radio, mode := ch.Radio(s.src), s.mode
		sched.AtEvent(s.at, call(func() {
			if _, err := radio.Transmit(f, mode); err != nil && !errors.Is(err, ErrTxBusy) {
				t.Fatal(err)
			}
		}))
	}
	sched.RunAll()
	return run.log
}

// orderDigest hashes a callback log, one (Now, radio, kind, Src, Seq)
// line per callback.
func orderDigest(log []traceRec) string {
	h := sha256.New()
	for _, r := range log {
		fmt.Fprintf(h, "%d %d %c %d %d\n", r.at, r.node, r.kind, r.src, r.seq)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCallbackOrderDigests: every variant's callback log must hash to
// its committed digest, and must exercise what the variant is for.
func TestCallbackOrderDigests(t *testing.T) {
	got := make(map[string]string, len(orderVariants))
	var lines []string
	for _, v := range orderVariants {
		log := runOrder(t, v)
		kinds := map[byte]int{}
		for _, r := range log {
			kinds[r.kind]++
		}
		want := "bfeit"
		if v.name == "oracle" || v.name == "reentrant-oracle" {
			want += "h"
		}
		for _, k := range []byte(want) {
			if kinds[k] == 0 {
				t.Errorf("%s: no %q callback in %d records; the script no longer covers it", v.name, k, len(log))
			}
		}
		line := fmt.Sprintf("%s %d %s", v.name, len(log), orderDigest(log))
		got[v.name] = line
		lines = append(lines, line)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(orderGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		out := "# variant records sha256 (see order_test.go)\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(orderGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(orderGolden)
	if err != nil {
		t.Fatalf("missing digests (run with UPDATE_GOLDEN=1 to generate): %v", err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		seen++
		if got[name] != line {
			t.Errorf("callback log changed:\n got  %s\n want %s", got[name], line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(orderVariants) {
		t.Errorf("%s lists %d variants, the test runs %d", orderGolden, seen, len(orderVariants))
	}
}
