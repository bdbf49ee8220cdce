// Package mac implements the IEEE 802.11 DFWMAC distributed coordination
// function (DCF) with the RTS/CTS/DATA/ACK four-way handshake, and its
// directional variants studied in the paper:
//
//	ORTS-OCTS — every frame omni-directional (standard 802.11);
//	DRTS-DCTS — every frame directional (maximum spatial reuse);
//	DRTS-OCTS — directional RTS/DATA/ACK, omni-directional CTS.
//
// The DCF machinery follows the standard: physical carrier sensing plus a
// NAV (virtual carrier sensing) set from overheard durations, DIFS/EIFS
// deference, slotted binary-exponential backoff frozen while the medium is
// busy, SIFS-separated responses without carrier sensing, CTS/ACK
// timeouts, and separate short/long retry limits. Directionality enters
// in exactly one place: the antenna mode used for each frame type, which
// determines who overhears (and therefore who defers).
package mac

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/phy"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Metrics holds optional telemetry instruments for MAC-level
// distributions. Every field may be nil — observations on nil
// instruments are no-ops, so instrumented code records unconditionally
// and a run without telemetry pays only a nil check (the disabled path
// is bench-gated to zero extra allocations).
type Metrics struct {
	// Backoff observes the slot count of every backoff draw.
	Backoff *telemetry.Histogram
	// CW observes the contention window (slots) at every backoff draw,
	// capturing the binary-exponential-backoff pressure trajectory.
	CW *telemetry.Histogram
	// HandshakeUs observes the MAC service time of every acknowledged
	// packet (dequeue to ACK), in microseconds.
	HandshakeUs *telemetry.Histogram
	// NAVUs observes every NAV duration adopted through virtual carrier
	// sensing (overheard frames and oracle NAV hints), in microseconds.
	NAVUs *telemetry.Histogram
}

// Packet is one MAC service data unit waiting for transmission.
type Packet struct {
	Dst      phy.NodeID
	Bytes    int
	Enqueued des.Time
	Seq      int64
}

// Source supplies packets to a Node. Dequeue returns the next packet, or
// ok=false when the queue is empty. A source that becomes non-empty while
// the node is idle must call the node's Kick method (sources receive it
// via SetNotify).
type Source interface {
	Dequeue(now des.Time) (p Packet, ok bool)
}

// Config holds the MAC parameters. DefaultConfig matches Table 1 of the
// paper (IEEE 802.11 DSSS).
type Config struct {
	// Scheme selects the collision-avoidance variant.
	Scheme core.Scheme
	// Beamwidth is the directional transmission beamwidth in radians.
	// Unused by ORTS-OCTS.
	Beamwidth float64

	// Frame sizes in bytes (data size comes from each Packet).
	RTSBytes, CTSBytes, ACKBytes int

	// Interframe spaces and the slot time.
	DIFS, SIFS, Slot des.Time

	// Contention window bounds (number of slots, inclusive).
	CWMin, CWMax int

	// Retry limits: short governs RTS attempts (CTS timeouts), long
	// governs data attempts (ACK timeouts).
	ShortRetryLimit, LongRetryLimit int

	// DisableEIFS turns off extended-IFS deference after frame errors
	// (ablation; the standard behaviour is on).
	DisableEIFS bool

	// BasicAccess disables the RTS/CTS handshake: data frames are sent
	// directly after winning contention (CSMA/CA basic access). This is
	// the baseline that suffers the hidden-terminal problem the paper's
	// collision-avoidance schemes exist to solve; retries use the long
	// retry limit.
	BasicAccess bool

	// AdaptiveRTSStaleness, when positive, enables the adaptive variant
	// from Ko et al.'s second scheme (discussed in the paper's related
	// work): the RTS is sent directionally only while the destination's
	// recorded location is fresher than this threshold, and falls back to
	// omni-directional otherwise. Combine with PiggybackLocation so
	// responses refresh the table.
	AdaptiveRTSStaleness des.Time

	// PiggybackLocation attaches the sender's current position to every
	// frame and lets receivers update their neighbor tables from it —
	// the location service many directional MAC designs assume.
	PiggybackLocation bool

	// Tracer, when non-nil, receives structured protocol events
	// (transmissions, timeouts, backoff draws, ...). Nil disables
	// tracing with no overhead.
	Tracer trace.Tracer

	// OnDelivery, when non-nil, is invoked with the MAC service delay of
	// every successfully acknowledged packet (for per-packet delay
	// distributions beyond the running mean in Stats).
	OnDelivery func(delay des.Time)

	// Metrics carries optional telemetry instruments; the zero value
	// (all nil) disables them at no cost.
	Metrics Metrics
}

// DefaultConfig returns the Table 1 configuration for the given scheme
// and beamwidth.
func DefaultConfig(scheme core.Scheme, beamwidth float64) Config {
	return Config{
		Scheme:          scheme,
		Beamwidth:       beamwidth,
		RTSBytes:        20,
		CTSBytes:        14,
		ACKBytes:        14,
		DIFS:            50 * des.Microsecond,
		SIFS:            10 * des.Microsecond,
		Slot:            20 * des.Microsecond,
		CWMin:           31,
		CWMax:           1023,
		ShortRetryLimit: 7,
		LongRetryLimit:  4,
	}
}

// Validate checks parameter sanity.
func (c Config) Validate() error {
	switch c.Scheme {
	case core.ORTSOCTS, core.DRTSDCTS, core.DRTSOCTS, core.ORTSDCTS:
	default:
		return fmt.Errorf("mac: unknown scheme %v", c.Scheme)
	}
	if c.Scheme != core.ORTSOCTS && (c.Beamwidth <= 0 || c.Beamwidth > 2*math.Pi+1e-9) {
		return fmt.Errorf("mac: beamwidth must be in (0, 2π] for directional schemes, got %v", c.Beamwidth)
	}
	if c.RTSBytes <= 0 || c.CTSBytes <= 0 || c.ACKBytes <= 0 {
		return fmt.Errorf("mac: control frame sizes must be positive")
	}
	if c.DIFS <= 0 || c.SIFS <= 0 || c.Slot <= 0 {
		return fmt.Errorf("mac: DIFS, SIFS and slot time must be positive")
	}
	if c.CWMin < 1 || c.CWMax < c.CWMin {
		return fmt.Errorf("mac: need 1 <= CWMin <= CWMax, got %d, %d", c.CWMin, c.CWMax)
	}
	if c.ShortRetryLimit < 1 || c.LongRetryLimit < 1 {
		return fmt.Errorf("mac: retry limits must be at least 1")
	}
	return nil
}

// directional reports whether frames of type ft go out directionally
// under the configured scheme.
func (c Config) directional(ft phy.FrameType) bool {
	switch c.Scheme {
	case core.ORTSOCTS:
		return false
	case core.DRTSDCTS:
		return true
	case core.DRTSOCTS:
		return ft != phy.CTS
	case core.ORTSDCTS:
		return ft != phy.RTS
	default:
		return false
	}
}

// Stats counts per-node MAC events. Sender-side counters describe this
// node's own handshakes; DataDelivered/BitsDelivered count receptions.
type Stats struct {
	RTSSent     int64
	CTSSent     int64
	DataSent    int64
	ACKSent     int64
	CTSTimeouts int64
	ACKTimeouts int64
	// Successes counts completed four-way handshakes (ACK received).
	Successes int64
	// BitsAcked is the data payload successfully acknowledged, in bits.
	BitsAcked int64
	// Drops counts packets abandoned after a retry limit.
	Drops int64
	// DelaySum accumulates MAC service time (dequeue to ACK) over
	// DelayCount delivered packets.
	DelaySum   des.Time
	DelayCount int64
	// DataDelivered/BitsDelivered count data frames decoded as receiver.
	DataDelivered int64
	BitsDelivered int64
	// FrameErrors counts garbled receptions (collision damage observed).
	FrameErrors int64
	// DupsSuppressed counts retransmitted data frames recognized by
	// sequence control and acknowledged without re-delivery (the sender's
	// ACK was lost, not the data).
	DupsSuppressed int64
}

// CollisionRatio is the paper's Section 4 metric: the fraction of
// handshakes that reached the data phase but ended in an ACK timeout.
func (s Stats) CollisionRatio() float64 {
	done := s.ACKTimeouts + s.Successes
	if done == 0 {
		return 0
	}
	return float64(s.ACKTimeouts) / float64(done)
}

// AvgDelay returns the mean MAC service delay of delivered packets.
func (s Stats) AvgDelay() des.Time {
	if s.DelayCount == 0 {
		return 0
	}
	return s.DelaySum / des.Time(s.DelayCount)
}

// state is the sender-side position in the exchange.
type state int

const (
	stIdle    state = iota + 1 // no packet pending
	stContend                  // deferring / backing off
	stTxRTS                    // RTS on the air
	stWaitCTS                  // awaiting CTS
	stTxData                   // DATA on the air (or queued for SIFS)
	stWaitACK                  // awaiting ACK
)

// Node is one station's MAC instance. It implements phy.Handler and
// drives its radio; create with New and attach via the radio's
// SetHandler, or let New do it.
type Node struct {
	sched *des.Scheduler
	radio *phy.Radio
	table *neighbor.Table
	src   Source
	cfg   Config

	st           state
	cur          Packet
	serviceStart des.Time

	cw           int
	backoff      int
	shortRetries int
	longRetries  int

	navUntil  des.Time
	holdUntil des.Time // responder-side hold covering an exchange we joined
	needEIFS  bool

	difsTimer des.Timer
	countdown des.Timer // the running backoff countdown (des.Countdown)
	navTimer  des.Timer
	ctsTo     des.Timer
	ackTo     des.Timer

	// Contention callbacks fire millions of times per simulated second;
	// binding the method values once here keeps the scheduling hot path
	// free of per-call closure allocations.
	resumeDeferenceFn func()
	difsElapsedFn     func()
	countdownDoneFn   func()
	onCTSTimeoutFn    func()
	onACKTimeoutFn    func()

	// respPending is set while a SIFS-separated transmission (CTS, DATA
	// after CTS, ACK) is scheduled or on the air; contention stays frozen.
	respPending bool
	respTimer   des.Timer

	// respQueue holds the parameters of scheduled SIFS responses in fire
	// order. Timers all carry the same SIFS delay, so the scheduler fires
	// them in schedule order and the single pre-bound dispatcher
	// (fireResponseFn) pops from the front — no per-response closure.
	respQueue      []respParams
	fireResponseFn func()

	// txType is the frame type currently on the air (valid while the
	// radio transmits).
	txType phy.FrameType

	seq   int64
	stats Stats

	// lastData implements 802.11 sequence control: the last data sequence
	// number delivered per source, to suppress duplicate deliveries after
	// a lost ACK.
	lastData map[phy.NodeID]int64
}

var _ phy.Handler = (*Node)(nil)

// New creates a MAC node bound to the given radio, neighbor table and
// packet source, and installs itself as the radio's handler.
func New(sched *des.Scheduler, radio *phy.Radio, table *neighbor.Table, src Source, cfg Config) (*Node, error) {
	n := new(Node)
	if err := NewInto(n, sched, radio, table, src, cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// NewInto initializes a caller-allocated Node in place and installs it
// as the radio's handler. Bulk assembly (sim.Build) carves all N nodes
// from one backing array and initializes them through here, so MAC
// construction at large N costs O(1) allocations per node instead of a
// separate heap object each (DESIGN.md §15).
func NewInto(n *Node, sched *des.Scheduler, radio *phy.Radio, table *neighbor.Table, src Source, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	// The timing envelope of the one-timer backoff countdown (DESIGN.md
	// §12). DIFS > Slot roots each countdown's tick chain at its DIFS/EIFS
	// expiry, as the exact ordering assumes; PropDelay < Slot <= SyncTime
	// is the range the equivalence tests cover. Table 1 lies inside it.
	if p := radio.ChannelParams(); !(p.PropDelay < cfg.Slot && cfg.Slot <= p.SyncTime && cfg.DIFS > cfg.Slot) {
		return fmt.Errorf("mac: timing outside the countdown envelope PropDelay < Slot <= SyncTime, DIFS > Slot (PropDelay %v, Slot %v, SyncTime %v, DIFS %v)",
			p.PropDelay, cfg.Slot, p.SyncTime, cfg.DIFS)
	}
	*n = Node{
		sched: sched,
		radio: radio,
		table: table,
		src:   src,
		cfg:   cfg,
		st:    stIdle,
		cw:    cfg.CWMin,
		// lastData is allocated lazily on first data delivery; most nodes
		// in a large topology receive from a handful of senders, many from
		// none at all.
	}
	n.resumeDeferenceFn = n.resumeDeference
	n.difsElapsedFn = n.difsElapsed
	n.countdownDoneFn = n.countdownDone
	n.onCTSTimeoutFn = n.onCTSTimeout
	n.onACKTimeoutFn = n.onACKTimeout
	n.fireResponseFn = n.fireResponse
	n.respQueue = make([]respParams, 0, 4)
	radio.SetHandler(n)
	return nil
}

// ID returns the node's PHY identifier.
func (n *Node) ID() phy.NodeID { return n.radio.ID() }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// Start pulls the first packet and begins contending. Call once after
// construction.
func (n *Node) Start() {
	if n.st != stIdle {
		return
	}
	n.nextPacket()
}

// Kick re-checks the source; sources call it when a packet arrives while
// the node is idle.
func (n *Node) Kick() {
	if n.st == stIdle {
		n.nextPacket()
	}
}

// emit records a trace event when tracing is enabled.
func (n *Node) emit(kind trace.Kind, ft phy.FrameType, peer phy.NodeID, note string) {
	if n.cfg.Tracer == nil {
		return
	}
	n.cfg.Tracer.Record(trace.Event{
		At: n.sched.Now(), Node: n.ID(), Kind: kind, Frame: ft, Peer: peer, Note: note,
	})
}

// nextPacket dequeues the next packet and enters contention, or goes
// idle. The contention window and retry counters reset per packet.
func (n *Node) nextPacket() {
	n.cw = n.cfg.CWMin
	n.shortRetries, n.longRetries = 0, 0
	p, ok := n.src.Dequeue(n.sched.Now())
	if !ok {
		n.st = stIdle
		return
	}
	n.cur = p
	n.serviceStart = p.Enqueued
	n.beginAttempt()
}

// beginAttempt draws a fresh backoff and starts deferring.
func (n *Node) beginAttempt() {
	n.st = stContend
	n.backoff = n.sched.Rand().Intn(n.cw + 1)
	n.cfg.Metrics.Backoff.Observe(float64(n.backoff))
	n.cfg.Metrics.CW.Observe(float64(n.cw))
	if n.cfg.Tracer != nil {
		n.emit(trace.Backoff, 0, -1, fmt.Sprintf("cw=%d slots=%d", n.cw, n.backoff))
	}
	n.resumeDeference()
}

// eifs returns the extended interframe space used after frame errors.
func (n *Node) eifs() des.Time {
	return n.cfg.SIFS + n.radio.ChannelParams().Airtime(n.cfg.ACKBytes) + n.cfg.DIFS
}

// cancelContention stops any running DIFS wait, NAV wait or backoff
// countdown. A countdown keeps the slots it had left: the kernel counts
// the slot boundaries that fell before the interrupting event exactly as
// per-slot ticks would have.
//
//desalint:hotpath
func (n *Node) cancelContention() {
	if n.countdown.Active() {
		n.backoff = n.sched.SlotsLeft(n.countdown)
		n.sched.Cancel(n.countdown)
	}
	n.sched.Cancel(n.difsTimer)
	n.sched.Cancel(n.navTimer)
}

// resumeDeference restarts the DIFS wait if the medium is available.
// Invoked on carrier-idle edges, NAV/hold expiry, transmit completion and
// contention entry.
//
//desalint:hotpath
func (n *Node) resumeDeference() {
	n.cancelContention()
	if n.st != stContend || n.respPending || n.radio.Transmitting() {
		return
	}
	if n.radio.CarrierBusy() {
		return // OnCarrierIdle re-invokes
	}
	now := n.sched.Now()
	wait := n.navUntil
	if n.holdUntil > wait {
		wait = n.holdUntil
	}
	if wait > now {
		n.navTimer = n.sched.At(wait, n.resumeDeferenceFn)
		return
	}
	d := n.cfg.DIFS
	if n.needEIFS && !n.cfg.DisableEIFS {
		d = n.eifs()
	}
	n.difsTimer = n.sched.Schedule(d, n.difsElapsedFn)
}

// difsElapsed runs when the medium stayed idle through DIFS/EIFS; the
// backoff countdown begins (or the transmission, if the counter is 0).
// The countdown is one timer for all its slots; only a carrier-busy edge
// or another contention reset interrupts it.
//
//desalint:hotpath
func (n *Node) difsElapsed() {
	n.needEIFS = false
	if n.st != stContend {
		return
	}
	if n.backoff <= 0 {
		n.transmitAttempt()
		return
	}
	n.countdown = n.sched.Countdown(n.backoff, n.cfg.Slot, n.countdownDoneFn)
}

// countdownDone runs when every backoff slot elapsed on an idle medium.
//
//desalint:hotpath
func (n *Node) countdownDone() {
	n.backoff = 0
	n.transmitAttempt()
}

// mode returns the antenna mode for a frame of type ft toward dst.
func (n *Node) mode(ft phy.FrameType, dst phy.NodeID) (phy.Mode, error) {
	if !n.cfg.directional(ft) {
		return phy.Omni, nil
	}
	if ft == phy.RTS && n.cfg.AdaptiveRTSStaleness > 0 {
		age, known := n.table.Age(dst, n.sched.Now())
		if !known || age > n.cfg.AdaptiveRTSStaleness {
			// Stale or missing location: probe omni-directionally; the
			// (piggybacked) CTS re-teaches the bearing for the data phase.
			return phy.Omni, nil
		}
	}
	// Aim from the radio's live position (a node always knows where it
	// is) at the table's — possibly stale, under mobility — peer snapshot.
	bearing, err := n.table.BearingFrom(n.radio.Pos(), dst)
	if err != nil {
		return phy.Mode{}, err
	}
	return phy.Directed(bearing, n.cfg.Beamwidth), nil
}

// air is shorthand for frame airtime at the channel bit rate.
func (n *Node) air(bytes int) des.Time {
	return n.radio.ChannelParams().Airtime(bytes)
}

// transmitAttempt opens the exchange after winning contention: RTS under
// collision avoidance, the data frame itself under basic access.
func (n *Node) transmitAttempt() {
	if n.cfg.BasicAccess {
		n.sendDataDirect()
		return
	}
	n.sendRTS()
}

// sendDataDirect transmits the data frame without a handshake (basic
// access). The receiver still acknowledges after SIFS.
func (n *Node) sendDataDirect() {
	prop := n.radio.ChannelParams().PropDelay
	nav := n.cfg.SIFS + n.air(n.cfg.ACKBytes) + prop
	mode, err := n.mode(phy.Data, n.cur.Dst)
	if err != nil {
		n.stats.Drops++
		n.nextPacket()
		return
	}
	f := phy.Frame{Type: phy.Data, Src: n.ID(), Dst: n.cur.Dst, Bytes: n.cur.Bytes, NAV: nav, Seq: n.cur.Seq}
	if n.cfg.PiggybackLocation {
		f.Payload = n.radio.Pos()
	}
	if _, err := n.radio.Transmit(f, mode); err != nil {
		n.beginAttempt()
		return
	}
	n.st = stTxData
	n.txType = phy.Data
	n.stats.DataSent++
	n.emit(trace.TxStart, phy.Data, n.cur.Dst, "basic access")
}

// sendRTS transmits the RTS opening the four-way handshake.
func (n *Node) sendRTS() {
	prop := n.radio.ChannelParams().PropDelay
	// Duration field: remaining exchange after the RTS.
	nav := 3*n.cfg.SIFS + n.air(n.cfg.CTSBytes) + n.air(n.cur.Bytes) + n.air(n.cfg.ACKBytes) + 3*prop
	mode, err := n.mode(phy.RTS, n.cur.Dst)
	if err != nil {
		// No bearing for the destination: the packet is undeliverable.
		n.stats.Drops++
		n.nextPacket()
		return
	}
	n.seq++
	f := phy.Frame{Type: phy.RTS, Src: n.ID(), Dst: n.cur.Dst, Bytes: n.cfg.RTSBytes, NAV: nav, Seq: n.seq}
	if n.cfg.PiggybackLocation {
		f.Payload = n.radio.Pos()
	}
	if _, err := n.radio.Transmit(f, mode); err != nil {
		// The radio is busy with a response transmission; retry shortly.
		n.beginAttempt()
		return
	}
	n.st = stTxRTS
	n.txType = phy.RTS
	n.stats.RTSSent++
	n.emit(trace.TxStart, phy.RTS, n.cur.Dst, "")
}

// respKind tags a queued SIFS response.
type respKind uint8

const (
	respCTS respKind = iota + 1
	respData
	respACK
)

// respParams carries everything a SIFS response needs at fire time that
// is not read from the node's live state. The DATA response deliberately
// reads n.cur when it fires, exactly as the former closure did.
type respParams struct {
	kind respKind
	dst  phy.NodeID // CTS/ACK destination
	nav  des.Time   // NAV to advertise (CTS, DATA)
}

// scheduleResponse queues a SIFS-separated transmission (no carrier
// sensing, per the standard).
func (n *Node) scheduleResponse(p respParams) {
	n.cancelContention()
	n.respPending = true
	n.respQueue = append(n.respQueue, p)
	n.respTimer = n.sched.Schedule(n.cfg.SIFS, n.fireResponseFn)
}

// fireResponse pops and transmits the oldest queued response.
func (n *Node) fireResponse() {
	p := n.respQueue[0]
	n.respQueue = n.respQueue[:copy(n.respQueue, n.respQueue[1:])]
	switch p.kind {
	case respCTS:
		n.seq++
		cts := phy.Frame{Type: phy.CTS, Src: n.ID(), Dst: p.dst, Bytes: n.cfg.CTSBytes, NAV: p.nav, Seq: n.seq}
		if n.respond(cts, phy.CTS, p.dst) {
			n.stats.CTSSent++
			n.emit(trace.TxStart, phy.CTS, p.dst, "")
			// Hold our own contention through the expected exchange.
			if until := n.sched.Now() + n.air(n.cfg.CTSBytes) + p.nav; until > n.holdUntil {
				n.holdUntil = until
			}
		}
	case respData:
		data := phy.Frame{Type: phy.Data, Src: n.ID(), Dst: n.cur.Dst, Bytes: n.cur.Bytes, NAV: p.nav, Seq: n.cur.Seq}
		if n.respond(data, phy.Data, n.cur.Dst) {
			n.stats.DataSent++
			n.emit(trace.TxStart, phy.Data, n.cur.Dst, "")
		} else {
			// Should not happen (our radio is ours between CTS and DATA),
			// but recover via a fresh attempt rather than deadlock.
			n.retryLong()
		}
	case respACK:
		n.seq++
		ack := phy.Frame{Type: phy.ACK, Src: n.ID(), Dst: p.dst, Bytes: n.cfg.ACKBytes, NAV: 0, Seq: n.seq}
		if n.respond(ack, phy.ACK, p.dst) {
			n.stats.ACKSent++
			n.emit(trace.TxStart, phy.ACK, p.dst, "")
		}
	}
}

// respond transmits a SIFS response frame; on radio conflict the response
// is silently abandoned (the peer's timeout recovers).
func (n *Node) respond(f phy.Frame, ft phy.FrameType, dst phy.NodeID) bool {
	if n.cfg.PiggybackLocation {
		f.Payload = n.radio.Pos()
	}
	mode, err := n.mode(ft, dst)
	if err != nil {
		n.respPending = false
		n.resumeDeference()
		return false
	}
	if _, err := n.radio.Transmit(f, mode); err != nil {
		n.respPending = false
		n.resumeDeference()
		return false
	}
	n.txType = ft
	return true
}

// OnFrame handles a successfully decoded frame.
func (n *Node) OnFrame(f phy.Frame) {
	n.needEIFS = false // correct reception terminates EIFS deference
	now := n.sched.Now()
	if n.cfg.PiggybackLocation {
		if pos, ok := f.Payload.(geom.Point); ok {
			n.table.LearnAt(f.Src, pos, now)
		}
	}
	if f.Dst != n.ID() {
		// Overheard: virtual carrier sensing.
		if f.NAV > 0 {
			n.cfg.Metrics.NAVUs.Observe(f.NAV.Microseconds())
		}
		if until := now + f.NAV; until > n.navUntil {
			n.navUntil = until
		}
		n.emit(trace.Overheard, f.Type, f.Src, "")
		return
	}
	n.emit(trace.RxFrame, f.Type, f.Src, "")
	switch f.Type {
	case phy.RTS:
		n.onRTS(f, now)
	case phy.CTS:
		n.onCTS(f)
	case phy.Data:
		n.onData(f)
	case phy.ACK:
		n.onACK(f, now)
	}
}

// onRTS answers with a CTS when the node is available: not mid-exchange,
// no pending response, and NAV/hold indicate idle (virtual carrier sense
// governs RTS responses per the standard).
func (n *Node) onRTS(f phy.Frame, now des.Time) {
	available := (n.st == stIdle || n.st == stContend) &&
		!n.respPending && now >= n.navUntil && now >= n.holdUntil
	if !available {
		return
	}
	prop := n.radio.ChannelParams().PropDelay
	ctsNAV := f.NAV - n.air(n.cfg.CTSBytes) - n.cfg.SIFS - prop
	if ctsNAV < 0 {
		ctsNAV = 0
	}
	n.scheduleResponse(respParams{kind: respCTS, dst: f.Src, nav: ctsNAV})
}

// onCTS continues the handshake with the data frame.
func (n *Node) onCTS(f phy.Frame) {
	if n.st != stWaitCTS || f.Src != n.cur.Dst {
		return
	}
	n.sched.Cancel(n.ctsTo)
	n.shortRetries = 0 // RTS phase succeeded
	prop := n.radio.ChannelParams().PropDelay
	dataNAV := n.cfg.SIFS + n.air(n.cfg.ACKBytes) + prop
	n.st = stTxData
	n.scheduleResponse(respParams{kind: respData, nav: dataNAV})
}

// onData delivers the payload (suppressing retransmitted duplicates via
// sequence control) and answers with an ACK either way — the sender's
// timeout means the ACK was lost, not the data.
func (n *Node) onData(f phy.Frame) {
	if last, ok := n.lastData[f.Src]; ok && last == f.Seq {
		n.stats.DupsSuppressed++
	} else {
		if n.lastData == nil {
			n.lastData = make(map[phy.NodeID]int64, 8)
		}
		n.lastData[f.Src] = f.Seq
		n.stats.DataDelivered++
		n.stats.BitsDelivered += int64(f.Bytes) * 8
	}
	n.scheduleResponse(respParams{kind: respACK, dst: f.Src})
}

// onACK completes the handshake.
func (n *Node) onACK(f phy.Frame, now des.Time) {
	if n.st != stWaitACK || f.Src != n.cur.Dst {
		return
	}
	n.sched.Cancel(n.ackTo)
	n.stats.Successes++
	n.stats.BitsAcked += int64(n.cur.Bytes) * 8
	n.stats.DelaySum += now - n.serviceStart
	n.stats.DelayCount++
	n.cfg.Metrics.HandshakeUs.Observe((now - n.serviceStart).Microseconds())
	if n.cfg.OnDelivery != nil {
		n.cfg.OnDelivery(now - n.serviceStart)
	}
	n.emit(trace.Success, phy.ACK, f.Src, "")
	n.nextPacket()
}

// OnNAVHint applies virtual carrier sensing from an out-of-beam frame
// header delivered by the oracle-NAV ablation channel.
func (n *Node) OnNAVHint(f phy.Frame) {
	if f.Dst == n.ID() {
		return
	}
	if f.NAV > 0 {
		n.cfg.Metrics.NAVUs.Observe(f.NAV.Microseconds())
	}
	if until := n.sched.Now() + f.NAV; until > n.navUntil {
		n.navUntil = until
		if n.st == stContend {
			n.resumeDeference()
		}
	}
}

// OnFrameError notes collision damage; the standard defers by EIFS after
// an unintelligible frame.
func (n *Node) OnFrameError() {
	n.stats.FrameErrors++
	n.needEIFS = true
	n.emit(trace.RxError, 0, -1, "")
}

// OnCarrierBusy freezes the backoff countdown.
//
//desalint:hotpath
func (n *Node) OnCarrierBusy() {
	if n.st == stContend {
		n.cancelContention()
	}
}

// OnCarrierIdle resumes deference after the medium clears.
//
//desalint:hotpath
func (n *Node) OnCarrierIdle() {
	if n.st == stContend {
		n.resumeDeference()
	}
}

// OnTxDone advances the exchange after our own frame leaves the air.
//
//desalint:hotpath
func (n *Node) OnTxDone() {
	prop := n.radio.ChannelParams().PropDelay
	n.respPending = false
	switch n.txType {
	case phy.RTS:
		n.st = stWaitCTS
		to := n.cfg.SIFS + n.air(n.cfg.CTSBytes) + 2*prop + n.cfg.Slot
		n.ctsTo = n.sched.Schedule(to, n.onCTSTimeoutFn)
	case phy.Data:
		n.st = stWaitACK
		to := n.cfg.SIFS + n.air(n.cfg.ACKBytes) + 2*prop + n.cfg.Slot
		n.ackTo = n.sched.Schedule(to, n.onACKTimeoutFn)
	case phy.CTS, phy.ACK:
		n.resumeDeference()
	}
	n.txType = 0
}

// onCTSTimeout handles a failed RTS attempt: binary exponential backoff,
// drop after the short retry limit.
func (n *Node) onCTSTimeout() {
	if n.st != stWaitCTS {
		return
	}
	n.stats.CTSTimeouts++
	n.shortRetries++
	n.growCW()
	if n.cfg.Tracer != nil {
		n.emit(trace.Timeout, phy.CTS, n.cur.Dst, fmt.Sprintf("retry %d", n.shortRetries))
	}
	if n.shortRetries > n.cfg.ShortRetryLimit {
		n.stats.Drops++
		n.emit(trace.Drop, phy.RTS, n.cur.Dst, "short retry limit")
		n.nextPacket()
		return
	}
	n.beginAttempt()
}

// onACKTimeout handles a data frame that was never acknowledged.
func (n *Node) onACKTimeout() {
	if n.st != stWaitACK {
		return
	}
	n.stats.ACKTimeouts++
	if n.cfg.Tracer != nil {
		n.emit(trace.Timeout, phy.ACK, n.cur.Dst, fmt.Sprintf("retry %d", n.longRetries+1))
	}
	n.retryLong()
}

// retryLong applies the long-retry policy after a failed data phase.
func (n *Node) retryLong() {
	n.longRetries++
	n.growCW()
	if n.longRetries > n.cfg.LongRetryLimit {
		n.stats.Drops++
		n.emit(trace.Drop, phy.Data, n.cur.Dst, "long retry limit")
		n.nextPacket()
		return
	}
	n.beginAttempt()
}

// growCW doubles the contention window: CW ← min(2(CW+1)−1, CWMax).
func (n *Node) growCW() {
	n.cw = 2*(n.cw+1) - 1
	if n.cw > n.cfg.CWMax {
		n.cw = n.cfg.CWMax
	}
}
