// Package phy models the physical layer of a single-channel ad hoc
// network with directional transmit antennas and omni-directional
// reception, following the assumptions of the paper (Section 2):
//
//   - equal transmit range R for omni and directional transmissions
//     (equal gain via power control);
//   - complete attenuation outside the transmit beam: a node hears a
//     frame only if it is within range AND inside the sender's beam;
//   - omni-directional reception: any two time-overlapping signals heard
//     by a node corrupt each other (no capture, unless the capture
//     ablation is enabled);
//   - half-duplex radios that are deaf while transmitting;
//   - fixed propagation delay between all pairs in range.
package phy

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/des"
	"repro/internal/geom"
)

// NodeID identifies a radio in the network. IDs are dense and start at 0.
type NodeID int

// Broadcast is the destination for frames addressed to every neighbor.
const Broadcast NodeID = -1

// FrameType enumerates the MAC frame types carried by the channel.
type FrameType int

// Frame types used by the 802.11-style MAC and the neighbor protocol.
const (
	RTS FrameType = iota + 1
	CTS
	Data
	ACK
	Hello
)

// numFrameTypes sizes the per-type airtime accounting; valid frame
// types are 0 through Hello.
const numFrameTypes = int(Hello) + 1

var frameTypeNames = map[FrameType]string{
	RTS:   "RTS",
	CTS:   "CTS",
	Data:  "DATA",
	ACK:   "ACK",
	Hello: "HELLO",
}

// String returns the conventional frame-type name.
func (ft FrameType) String() string {
	if n, ok := frameTypeNames[ft]; ok {
		return n
	}
	return fmt.Sprintf("FrameType(%d)", int(ft))
}

// Frame is a MAC frame in flight. Bytes is the on-air size used to compute
// airtime; NAV is the duration-field value receivers use for virtual
// carrier sensing.
type Frame struct {
	Type  FrameType
	Src   NodeID
	Dst   NodeID
	Bytes int
	NAV   des.Time
	Seq   int64
	// Payload carries protocol data that a real frame would serialize
	// (e.g. the sender position in a HELLO beacon). It does not affect
	// airtime; Bytes does.
	Payload any
}

// Mode describes the antenna configuration of one transmission. The zero
// value is an omni-directional transmission.
type Mode struct {
	Directional bool
	Bearing     float64 // radians, toward the intended receiver
	Beamwidth   float64 // radians, total width of the cone
}

// Omni is the omni-directional transmission mode.
var Omni = Mode{}

// Directed returns a directional mode aimed at bearing with the given
// beamwidth.
func Directed(bearing, beamwidth float64) Mode {
	return Mode{Directional: true, Bearing: bearing, Beamwidth: beamwidth}
}

// Covers reports whether a transmission in this mode reaches direction dir.
func (m Mode) Covers(dir float64) bool {
	if !m.Directional {
		return true
	}
	return geom.WithinBeam(m.Bearing, m.Beamwidth, dir)
}

// The channel timing of Table 1 of the paper (DSSS at 2 Mb/s). The
// paper evaluates this one radio, so no scenario or flag can change it.
const (
	// BitRate is the raw channel rate in bits per second.
	BitRate int64 = 2_000_000
	// SyncTime is the PLCP preamble+header time prepended to every frame.
	SyncTime = 192 * des.Microsecond
	// PropDelay is the fixed propagation delay between any pair in range.
	PropDelay = 1 * des.Microsecond
)

// Params configures the channel: its range and the receiver ablations.
type Params struct {
	// Range is the transmission/reception radius R (same length unit as
	// node positions).
	Range float64
	// Capture, when true, enables the ablation receiver: an already
	// locked-on signal survives later-starting overlaps (the newcomer is
	// lost instead of both). The paper's model uses Capture=false.
	Capture bool
	// SINRThreshold, when positive, replaces the overlap-collision
	// receiver with a physical signal-to-interference-plus-noise model:
	// received power is TxGain/d^PathLoss (transmit power 1, directional
	// gain 2π/θ by energy conservation — the paper's footnote 2), and a
	// frame decodes only while its power stays at least SINRThreshold
	// times the sum of NoiseFloor and all other heard signal powers.
	// Strong frames therefore capture over weak interferers, and narrow
	// beams buy SNR headroom against the noise floor.
	SINRThreshold float64
	// PathLoss is the path-loss exponent α (used when SINRThreshold > 0;
	// typical values 2–4).
	PathLoss float64
	// NoiseFloor is the constant noise power (same units as the unit
	// transmit power; used when SINRThreshold > 0).
	NoiseFloor float64
	// NAVOracle, when true, delivers frame headers (as NAV hints, not
	// energy) to every in-range radio even outside the transmit beam.
	// This ablation separates "directional schemes win by reduced waiting"
	// from "directional schemes win by spatial reuse": with the oracle,
	// out-of-beam neighbors defer exactly as they would under
	// omni-directional transmissions, but the interference footprint
	// stays directional.
	NAVOracle bool
}

// DefaultParams returns the paper's channel: a transmission range of
// 1.0 distance unit and no ablation.
func DefaultParams() Params {
	return Params{Range: 1.0}
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.Range <= 0 {
		return fmt.Errorf("phy: range must be positive, got %v", p.Range)
	}
	if p.SINRThreshold > 0 {
		if p.PathLoss < 1 {
			return fmt.Errorf("phy: SINR mode needs a path-loss exponent >= 1, got %v", p.PathLoss)
		}
		if p.NoiseFloor < 0 {
			return fmt.Errorf("phy: noise floor must be non-negative, got %v", p.NoiseFloor)
		}
	}
	return nil
}

// sinr reports whether the physical SINR receiver model is enabled.
func (p Params) sinr() bool { return p.SINRThreshold > 0 }

// Gain returns the transmit antenna gain of mode m under the SINR model:
// 1 for omni, 2π/θ for a cone of width θ (energy conservation).
func (m Mode) Gain() float64 {
	if !m.Directional || m.Beamwidth <= 0 || m.Beamwidth >= 2*math.Pi {
		return 1
	}
	return 2 * math.Pi / m.Beamwidth
}

// Airtime returns the on-air duration of a frame of the given byte size:
// sync preamble plus serialization at the channel bit rate.
func Airtime(bytes int) des.Time {
	bits := int64(bytes) * 8
	return SyncTime + des.Time(bits*int64(des.Second)/BitRate)
}

// Handler receives PHY indications. All callbacks run on the scheduler
// goroutine. Carrier callbacks are edge-triggered for a non-transmitting
// radio; after a transmission ends the MAC should re-query CarrierBusy
// because transitions during its own transmission are not delivered.
type Handler interface {
	// OnCarrierBusy fires when heard energy appears at an idle radio.
	OnCarrierBusy()
	// OnCarrierIdle fires when the last heard signal ends and the radio is
	// not transmitting.
	OnCarrierIdle()
	// OnFrame delivers a successfully decoded frame (regardless of
	// addressing; filtering is the MAC's job).
	OnFrame(f Frame)
	// OnFrameError fires when garbled energy ends (collision damage);
	// 802.11 uses this for EIFS.
	OnFrameError()
	// OnTxDone fires when this radio's own transmission leaves the air.
	OnTxDone()
}

// NAVHinter is an optional Handler extension. When the channel runs with
// Params.NAVOracle, radios that are in range of a directional
// transmission but outside its beam receive the frame header through
// OnNAVHint at the time the frame ends, without any energy having been
// sensed.
type NAVHinter interface {
	OnNAVHint(f Frame)
}

// signal is one transmission as perceived by one receiver. The frame
// lives once, in the transmission's delivery record.
type signal struct {
	frame     *Frame
	power     float64 // received power under the SINR model
	corrupted bool
	missed    bool // receiver was deaf (transmitting) during part of it
}

// Radio is one node's half-duplex transceiver attached to a Channel.
type Radio struct {
	id      NodeID
	pos     geom.Point
	ch      *Channel
	handler Handler

	// inRange lists the IDs of the other radios within range, ascending,
	// as of placement generation rangeGen (0: never built). See
	// Channel.inRange. ownsList is false while inRange is a first list
	// or a list InRange handed out: others may share it, so it is never
	// rewritten.
	inRange  []int32
	rangeGen uint64
	ownsList bool

	transmitting bool
	active       []*signal // signals currently on the air at this radio
	txDone       txDoneEvent

	// axisOf is the bearing of the last directional frame the radio sent,
	// and axisSin and axisCos its sine and cosine, so a retry toward the
	// same bearing skips math.Sincos. A new radio holds Sincos(0).
	axisOf           float64
	axisSin, axisCos float64
}

// ID returns the radio's node ID.
func (r *Radio) ID() NodeID { return r.id }

// Pos returns the radio's current position.
func (r *Radio) Pos() geom.Point { return r.pos }

// SetPos moves the radio (mobility support). Propagation decisions use
// positions as of each transmission's start; a frame already in flight is
// unaffected by later movement (quasi-static per frame). A move into
// another grid cell takes the radio out of its old cell (swap-remove)
// and appends it to the new one; a cell it empties keeps its entry and
// capacity. Every in-range list goes stale and is rebuilt on its next
// use.
//
//desalint:hotpath
func (r *Radio) SetPos(p geom.Point) {
	c := r.ch
	if from, to := c.cellOf(r.pos), c.cellOf(p); from != to {
		ids := c.cells[from]
		i, last := slices.Index(ids, int32(r.id)), len(ids)-1
		ids[i] = ids[last]
		c.cells[from] = ids[:last]
		c.cells[to] = append(c.cells[to], int32(r.id))
	}
	r.pos = p
	c.placement++
}

// Transmitting reports whether the radio is currently transmitting.
func (r *Radio) Transmitting() bool { return r.transmitting }

// CarrierBusy reports whether any signal energy is currently arriving.
// The value is only physically meaningful when the radio is not
// transmitting (a transmitting radio cannot sense the channel).
func (r *Radio) CarrierBusy() bool { return len(r.active) > 0 }

// ErrTxBusy is returned when Transmit is called on a radio that is
// already transmitting.
var ErrTxBusy = fmt.Errorf("phy: radio already transmitting")

// ErrFrameType is returned when Transmit is given a frame type outside
// 0 through Hello.
var ErrFrameType = fmt.Errorf("phy: unknown frame type")

// Transmit puts frame f on the air with antenna mode m and returns the
// frame's airtime. OnTxDone fires on the handler when the transmission
// ends. Reception at each in-range, in-beam radio starts after the
// propagation delay.
//
//desalint:hotpath
func (r *Radio) Transmit(f Frame, m Mode) (des.Time, error) {
	if r.transmitting {
		return 0, ErrTxBusy
	}
	if uint(f.Type) >= uint(numFrameTypes) {
		return 0, ErrFrameType
	}
	r.transmitting = true
	// Our own transmission stomps anything we were receiving.
	for _, sig := range r.active {
		sig.missed = true
	}
	c := r.ch
	airtime := Airtime(f.Bytes)
	c.txTime[f.Type] += airtime
	c.txCount[f.Type]++
	c.propagate(r, f, m, airtime)
	c.sched.ScheduleEvent(airtime, &r.txDone)
	return airtime, nil
}

// txDoneEvent signals the end of a radio's own transmission. Each radio
// embeds one — a half-duplex radio has at most one transmission in
// flight, so the event needs no pooling and no allocation.
type txDoneEvent struct {
	r *Radio
}

// Fire completes the transmission and notifies the MAC.
//
//desalint:hotpath
func (e *txDoneEvent) Fire() {
	e.r.transmitting = false
	e.r.handler.OnTxDone()
}

// signalStart registers an arriving signal at this radio.
//
//desalint:hotpath
func (r *Radio) signalStart(sig *signal) {
	if r.transmitting {
		sig.missed = true
	}
	switch {
	case r.ch.params.sinr():
		r.sinrArrival(sig)
	case len(r.active) > 0:
		// Overlap. Without capture, everyone is damaged; with capture the
		// established signal survives and only the newcomer is lost.
		sig.corrupted = true
		if !r.ch.params.Capture {
			for _, other := range r.active {
				other.corrupted = true
			}
		}
	}
	r.active = append(r.active, sig)
	if len(r.active) == 1 && !r.transmitting {
		r.handler.OnCarrierBusy()
	}
}

// sinrArrival applies the physical receiver model when sig starts: every
// signal whose power no longer clears the threshold against noise plus
// all other heard power is (irreversibly) damaged. Power levels are
// constant per signal, so checking at each arrival covers all overlap
// intervals.
//
//desalint:hotpath
func (r *Radio) sinrArrival(sig *signal) {
	p := r.ch.params
	total := p.NoiseFloor + sig.power
	for _, other := range r.active {
		total += other.power
	}
	if interference := total - sig.power; sig.power < p.SINRThreshold*interference {
		sig.corrupted = true
	}
	for _, other := range r.active {
		if interference := total - other.power; other.power < p.SINRThreshold*interference {
			other.corrupted = true
		}
	}
}

// signalEnd completes an arriving signal: deliver, report error, or drop.
//
//desalint:hotpath
func (r *Radio) signalEnd(sig *signal) {
	for i, s := range r.active {
		if s == sig {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	// A signal ending while we transmit was missed in its entirety or tail.
	if r.transmitting {
		sig.missed = true
	}
	switch {
	case sig.missed:
		// The radio never perceived this signal; nothing to report.
	case sig.corrupted:
		r.ch.rxErrors++
		r.handler.OnFrameError()
	default:
		r.ch.rxFrames++
		r.handler.OnFrame(*sig.frame)
	}
	if len(r.active) == 0 && !r.transmitting {
		r.handler.OnCarrierIdle()
	}
}

// Channel connects radios on a shared single-frequency medium. Each
// transmission reaches its receivers through one pooled delivery record
// and two kernel events, whoever and however many hear it.
//
// Delivery reads each sender's in-range list: the radios within range,
// in ID order. A list is built on first use and rebuilt only after
// placement changes, so in a static network every transmission after
// the first skips the neighbor search entirely (DESIGN.md §7.2). The
// search itself uses a uniform spatial grid with cell size equal to the
// transmission range: every radio in range lies in the radio's cell or
// one of its eight neighbors. AddRadio and AddRadios put each radio in
// its cell, and SetPos moves it between cells.
type Channel struct {
	sched  *des.Scheduler
	params Params
	radios []*Radio

	txTime  [numFrameTypes]des.Time
	txCount [numFrameTypes]int64
	// rxFrames and rxErrors count receptions network-wide: frames
	// decoded, and frames a radio perceived but lost to collision damage
	// (one transmission can reach many radios either way).
	rxFrames, rxErrors int64

	// placement counts placement changes (AddRadio, AddRadios, SetPos).
	// A radio's in-range list is current while its rangeGen equals it.
	placement uint64

	// order is the cell order of a batch that AddRadios put into an
	// empty channel, kept for the first-list pass to reuse while
	// placement is still orderAt; that pass drops it.
	order   []cellEntry
	orderAt uint64

	// freeDeliveries holds records whose end edge has fired.
	freeDeliveries []*delivery

	// halfOf is the beamwidth whose half-angle sine and cosine halfSin
	// and halfCos hold, for the filtered beam test.
	halfOf           float64
	halfSin, halfCos float64

	// cells holds the IDs of the radios in each grid cell, unordered:
	// every in-range list is sorted after it is collected.
	cells map[cellKey][]int32
}

// cellKey addresses one grid cell (position divided by range, floored).
type cellKey struct {
	x, y int32
}

// cellOf maps a position to its grid cell.
func (c *Channel) cellOf(p geom.Point) cellKey {
	inv := 1 / c.params.Range
	return cellKey{x: int32(math.Floor(p.X * inv)), y: int32(math.Floor(p.Y * inv))}
}

// collect appends to dst the IDs of the other radios within range of r,
// unordered. They all lie in the 3×3 cell block around r.
//
//desalint:hotpath
func (c *Channel) collect(dst []int32, r *Radio) []int32 {
	r2 := c.params.Range * c.params.Range
	center := c.cellOf(r.pos)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for _, id := range c.cells[cellKey{x: center.x + dx, y: center.y + dy}] {
				if o := c.radios[id]; o != r && o.pos.Dist2(r.pos) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// inRange returns r's in-range list, rebuilding it when placement has
// changed since it was built. The list is sorted ascending, so delivery
// order matches a full ID-order scan bit for bit. A list others may
// share, a first list or one InRange handed out, is never rewritten: the
// rebuild after it writes fresh memory, and later rebuilds reuse the
// radio's own capacity, reallocating when they outgrow it.
//
//desalint:hotpath
func (c *Channel) inRange(r *Radio) []int32 {
	switch r.rangeGen {
	case c.placement:
		return r.inRange
	case 0:
		c.buildFirstLists()
		return r.inRange
	}
	var list []int32
	if r.ownsList {
		list = r.inRange[:0]
	}
	list = c.collect(list, r)
	slices.Sort(list)
	r.inRange, r.rangeGen, r.ownsList = list, c.placement, true
	return list
}

// buildFirstLists builds the in-range list of every radio that has never
// had one. It walks the radios in cell order (cellOrder, or the order a
// batch AddRadios left), which carries their positions alongside. In
// that order the three cells of each row of a radio's 3×3 block are one
// contiguous run, and the runs' bounds only move forward (blockRows), so
// the walk makes no map lookup and reads candidate positions
// sequentially. A first walk counts the lists' total length to size one
// shared backing exactly, a second fills it, and each list is carved from
// it as a capped subslice and sorted, so the first lists of a whole
// network share one allocation (DESIGN.md §15).
func (c *Channel) buildFirstLists() {
	order := c.order
	if order == nil || c.orderAt != c.placement {
		order = c.cellOrder(0)
	}
	c.order = nil
	r2 := c.params.Range * c.params.Range
	total := 0
	var rows blockRows
	for i, e := range order {
		if e.pending {
			rows.advance(order, i)
			for k := range rows.runs {
				total += countWithin(rows.runs[k], e.pos, r2)
			}
		}
	}
	// One slot past the lists takes fillWithin's write after the last one.
	back := make([]int32, total+1)
	end := 0
	rows = blockRows{}
	for i, e := range order {
		if !e.pending {
			continue
		}
		rows.advance(order, i)
		start := end
		for k := range rows.runs {
			end = fillWithin(back, end, rows.runs[k], e.pos, r2)
		}
		list := back[start:end:end]
		slices.Sort(list)
		r := c.radios[e.id]
		r.inRange, r.rangeGen, r.ownsList = list, c.placement, false
	}
}

// cellEntry is one radio's place in the cell order.
type cellEntry struct {
	pos     geom.Point
	cell    cellKey
	id      int32
	pending bool // the radio has never had an in-range list
}

// cellOrder returns the radios with IDs from first on, ordered by cell
// row, then cell column, then ID. A stable least-significant-digit radix
// sort on the column and then the row, a byte per pass, produces it. It
// makes one pass per byte of the column and row spreads (two passes for a
// field under 256 cells across) and takes O(N) time and memory however
// far apart the radios lie.
func (c *Channel) cellOrder(first int) []cellEntry {
	order := make([]cellEntry, len(c.radios)-first)
	if len(order) == 0 {
		return order
	}
	lo := cellKey{x: math.MaxInt32, y: math.MaxInt32}
	hi := cellKey{x: math.MinInt32, y: math.MinInt32}
	for i := range order {
		r := c.radios[first+i]
		k := c.cellOf(r.pos)
		order[i] = cellEntry{pos: r.pos, cell: k, id: int32(r.id), pending: r.rangeGen == 0}
		lo = cellKey{x: min(lo.x, k.x), y: min(lo.y, k.y)}
		hi = cellKey{x: max(hi.x, k.x), y: max(hi.y, k.y)}
	}
	tmp := make([]cellEntry, len(order))
	for _, byRow := range [2]bool{false, true} {
		base, spread := lo.x, uint32(hi.x)-uint32(lo.x)
		if byRow {
			base, spread = lo.y, uint32(hi.y)-uint32(lo.y)
		}
		for shift := 0; shift < 32 && spread>>shift != 0; shift += 8 {
			var next [256]int
			for i := range order {
				next[order[i].digit(byRow, base, shift)]++
			}
			sum := 0
			for d, n := range next {
				next[d] = sum
				sum += n
			}
			for i := range order {
				d := order[i].digit(byRow, base, shift)
				tmp[next[d]] = order[i]
				next[d]++
			}
			order, tmp = tmp, order
		}
	}
	return order
}

// digit returns the byte at shift of the entry's column (or row) offset
// from base.
func (e *cellEntry) digit(byRow bool, base int32, shift int) uint8 {
	v := e.cell.x
	if byRow {
		v = e.cell.y
	}
	return uint8((uint32(v) - uint32(base)) >> shift)
}

// blockRows holds, for a radio visited in cell order, where the rows of
// its 3×3 cell block lie in that order: the cells of row y−1+d, columns
// x−1 to x+1, are entries [lo[d], hi[d]). Visiting radios in cell order
// moves every bound forward only, so a whole pass moves them O(N) steps.
type blockRows struct {
	lo, hi [3]int
	at     cellKey // the block's centre, once placed
	placed bool

	// runs holds the radio's candidates in cell order: the block's top
	// row, its middle row split around the radio itself, and its bottom
	// row.
	runs [4][]cellEntry
}

// advance moves to the radio at cell-order index self: it moves the
// bounds to the block around the radio's cell, unless the previous radio
// shared that cell, and sets runs. Coordinates are widened so that the
// rows and columns next to the int32 extremes do not wrap.
func (b *blockRows) advance(order []cellEntry, self int) {
	if k := order[self].cell; !b.placed || k != b.at {
		b.at, b.placed = k, true
		x := int64(k.x)
		for d := range b.lo {
			y := int64(k.y) + int64(d) - 1
			b.lo[d] = seekCell(order, b.lo[d], y, x-1)
			b.hi[d] = seekCell(order, max(b.hi[d], b.lo[d]), y, x+2)
		}
	}
	b.runs[0] = order[b.lo[0]:b.hi[0]]
	b.runs[1], b.runs[2] = order[b.lo[1]:self], order[self+1:b.hi[1]]
	b.runs[3] = order[b.lo[2]:b.hi[2]]
}

// seekCell returns the first index from i on whose cell is not before
// cell (y, x) in row-major order.
func seekCell(order []cellEntry, i int, y, x int64) int {
	for ; i < len(order); i++ {
		if cy := int64(order[i].cell.y); cy > y || cy == y && int64(order[i].cell.x) >= x {
			break
		}
	}
	return i
}

// countWithin returns how many entries of run lie within squared
// distance r2 of p.
func countWithin(run []cellEntry, p geom.Point, r2 float64) int {
	n := 0
	for i := range run {
		if run[i].pos.Dist2(p) <= r2 {
			n++
		}
	}
	return n
}

// fillWithin writes the IDs of the entries countWithin counts to
// back[k:] and returns the index after the last. It writes every
// candidate's ID and moves past only those in range, which spares the
// loop a branch it would mispredict, so back must have one slot to spare
// after the last ID.
func fillWithin(back []int32, k int, run []cellEntry, p geom.Point, r2 float64) int {
	for i := range run {
		back[k] = run[i].id
		in := 0
		if run[i].pos.Dist2(p) <= r2 {
			in = 1
		}
		k += in
	}
	return k
}

// delivery is one transmission in flight: its frame, stored once, and
// the radios that hear it, in in-range (ID) order. Two kernel events
// drive it, both views of the record itself, so scheduling them
// allocates nothing: startEdge at PropDelay and endEdge at
// PropDelay+airtime. Records are pooled on the channel and reused only
// after their end edge, so the signals Radio.active points into stay
// put while they are on the air.
type delivery struct {
	ch    *Channel
	frame Frame
	rx    []reception
}

// reception is one radio's share of a delivery: a signal, or, for an
// out-of-beam radio under the NAV oracle, a header-only hint.
type reception struct {
	dst  *Radio
	hint bool
	sig  signal
}

// startEdge is a delivery's first kernel event.
type startEdge delivery

// Fire starts the signal at every in-beam radio, in ID order.
//
//desalint:hotpath
func (e *startEdge) Fire() {
	for i := range e.rx {
		if rx := &e.rx[i]; !rx.hint {
			rx.dst.signalStart(&rx.sig)
		}
	}
}

// endEdge is a delivery's last kernel event.
type endEdge delivery

// Fire ends every signal and hands out every NAV hint, in ID order, then
// returns the record to the channel pool.
//
//desalint:hotpath
func (e *endEdge) Fire() {
	d := (*delivery)(e)
	for i := range d.rx {
		rx := &d.rx[i]
		if !rx.hint {
			rx.dst.signalEnd(&rx.sig)
		} else if h, ok := rx.dst.handler.(NAVHinter); ok {
			h.OnNAVHint(d.frame)
		}
	}
	d.rx = d.rx[:0]
	d.ch.freeDeliveries = append(d.ch.freeDeliveries, d)
}

// NewChannel creates a channel driven by the given scheduler.
func NewChannel(sched *des.Scheduler, params Params) (*Channel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Channel{sched: sched, params: params, cells: make(map[cellKey][]int32)}, nil
}

// Params returns the channel configuration.
func (c *Channel) Params() Params { return c.params }

// AddRadio attaches a new radio at pos. IDs are assigned densely in
// attachment order. The handler must be non-nil before the first event
// fires; it may be set later via SetHandler to break construction cycles.
func (c *Channel) AddRadio(pos geom.Point, handler Handler) *Radio {
	r := &Radio{id: NodeID(len(c.radios)), pos: pos, ch: c, handler: handler, axisCos: 1}
	r.txDone.r = r
	c.radios = append(c.radios, r)
	k := c.cellOf(pos)
	c.cells[k] = append(c.cells[k], int32(r.id))
	c.placement++
	return r
}

// AddRadios attaches one handler-less radio per position (IDs assigned
// densely in slice order) from a single batched backing array — the
// large-N assembly path, costing one allocation for all the radios
// instead of one heap object per radio. The batch goes into its cells in
// cell order: every cell the batch opens gets a capped subslice of one
// shared ID backing, sized exactly, and a cell that already holds radios
// appends the batch's IDs to its own slice. Handlers are attached
// afterwards via SetHandler, before the first event fires.
func (c *Channel) AddRadios(positions []geom.Point) {
	first := len(c.radios)
	backing := make([]Radio, len(positions))
	// make and copy, not slices.Grow, which allocates twice under -race
	// and would make Build's allocation count (TestBuildAllocBudget)
	// depend on the race detector.
	radios := make([]*Radio, first, first+len(positions))
	copy(radios, c.radios)
	c.radios = radios
	for i, pos := range positions {
		r := &backing[i]
		r.id = NodeID(len(c.radios))
		r.pos = pos
		r.ch = c
		r.txDone.r = r
		r.axisCos = 1
		c.radios = append(c.radios, r)
	}
	order := c.cellOrder(first)
	ids := make([]int32, len(order))
	for i, e := range order {
		ids[i] = e.id
	}
	if len(c.cells) == 0 {
		c.cells = make(map[cellKey][]int32, len(order))
	}
	for i := 0; i < len(order); {
		k, j := order[i].cell, i+1
		for j < len(order) && order[j].cell == k {
			j++
		}
		if held, ok := c.cells[k]; ok {
			c.cells[k] = append(held, ids[i:j]...)
		} else {
			c.cells[k] = ids[i:j:j]
		}
		i = j
	}
	c.placement++
	if first == 0 {
		c.order, c.orderAt = order, c.placement
	}
}

// SetHandler installs the MAC handler for a radio.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// Radio returns the radio with the given ID, or nil.
func (c *Channel) Radio(id NodeID) *Radio {
	if id < 0 || int(id) >= len(c.radios) {
		return nil
	}
	return c.radios[id]
}

// NumRadios returns the number of attached radios.
func (c *Channel) NumRadios() int { return len(c.radios) }

// TxAirtime returns the cumulative on-air time of all transmissions of
// the given frame type across the whole network. Because transmissions
// overlap in space, the sum over types can exceed elapsed time — the
// ratio Σ TxAirtime / elapsed is the network's spatial-reuse factor.
func (c *Channel) TxAirtime(ft FrameType) des.Time {
	if uint(ft) >= uint(numFrameTypes) {
		return 0
	}
	return c.txTime[ft]
}

// TxCount returns how many frames of the given type went on the air.
func (c *Channel) TxCount(ft FrameType) int64 {
	if uint(ft) >= uint(numFrameTypes) {
		return 0
	}
	return c.txCount[ft]
}

// TotalTxCount sums TxCount over every frame type.
func (c *Channel) TotalTxCount() int64 {
	var total int64
	for _, n := range c.txCount {
		total += n
	}
	return total
}

// RxFrames returns how many receptions were decoded, network-wide.
func (c *Channel) RxFrames() int64 { return c.rxFrames }

// RxErrors returns how many receptions were garbled by collision
// damage, network-wide.
func (c *Channel) RxErrors() int64 { return c.rxErrors }

// TotalTxAirtime sums TxAirtime over every frame type.
func (c *Channel) TotalTxAirtime() des.Time {
	var total des.Time
	for _, t := range c.txTime {
		total += t
	}
	return total
}

// Neighbors returns the IDs of all radios within range of id, in ID order.
func (c *Channel) Neighbors(id NodeID) []NodeID {
	if c.Radio(id) == nil {
		return nil
	}
	return c.NeighborsAppend(id, nil)
}

// InRange returns the IDs of the radios within range of id, ascending,
// or nil for an unknown id. The slice is the radio's own in-range list,
// shared with every caller, so it must not be written. The channel never
// rewrites it either: after a placement change the radio's next list is
// built in fresh memory, so a caller may keep the slice for the life of
// the run as a snapshot of the geometry it was taken from.
func (c *Channel) InRange(id NodeID) []int32 {
	r := c.Radio(id)
	if r == nil {
		return nil
	}
	list := c.inRange(r)
	r.ownsList = false
	return list
}

// InRangePairs returns the total length of every radio's neighbor list:
// the number of ordered pairs of radios within range of each other.
// Bulk assembly sizes its shared neighbor backings with it exactly.
func (c *Channel) InRangePairs() int {
	total := 0
	for _, r := range c.radios {
		total += len(c.inRange(r))
	}
	return total
}

// NeighborsAppend appends the IDs of all radios within range of id to
// dst (in ID order) and returns the extended slice. Passing a reused
// buffer keeps bulk queries — one per node at build time — free of
// per-call allocations. The IDs come from the radio's in-range list,
// which the call builds if placement changed since it was last built.
func (c *Channel) NeighborsAppend(id NodeID, dst []NodeID) []NodeID {
	self := c.Radio(id)
	if self == nil {
		return dst
	}
	for _, o := range c.inRange(self) {
		dst = append(dst, NodeID(o))
	}
	return dst
}

// propagate fills one pooled delivery record with every radio that hears
// the transmission (in range, inside the beam, not the sender itself)
// and schedules its start edge if some radio is in beam and its end edge
// if anyone hears at all. Candidates are the sender's in-range list. An
// omni frame skips the beam test, a directional one runs beamTest, and
// out-of-beam neighbors skip the received-power math.Pow. DESIGN.md §7.2
// shows why walking the record in ID order at each edge fires the same
// callbacks in the same order as one event per receiver would.
//
//desalint:hotpath
func (c *Channel) propagate(src *Radio, f Frame, m Mode, airtime des.Time) {
	var d *delivery
	if n := len(c.freeDeliveries); n > 0 {
		d = c.freeDeliveries[n-1]
		c.freeDeliveries = c.freeDeliveries[:n-1]
	} else {
		d = &delivery{ch: c}
	}
	d.frame = f
	var beam beamTest
	if m.Directional {
		beam = c.beamTest(src, m)
	}
	inBeam := false
	for _, id := range c.inRange(src) {
		dst := c.radios[id]
		if m.Directional && !beam.covers(m, src.pos, dst.pos) {
			if c.params.NAVOracle {
				d.rx = append(d.rx, reception{dst: dst, hint: true})
			}
			continue
		}
		power := 0.0
		if c.params.sinr() {
			dist := src.pos.Dist(dst.pos)
			if dist < 1e-6 {
				dist = 1e-6
			}
			power = m.Gain() / math.Pow(dist, c.params.PathLoss)
		}
		d.rx = append(d.rx, reception{dst: dst, sig: signal{frame: &d.frame, power: power}})
		inBeam = true
	}
	if len(d.rx) == 0 {
		c.freeDeliveries = append(c.freeDeliveries, d)
		return
	}
	if inBeam {
		c.sched.ScheduleEvent(PropDelay, (*startEdge)(d))
	}
	c.sched.ScheduleEvent(PropDelay+airtime, (*endEdge)(d))
}

// beamTest decides beam coverage for one directional frame without a
// bearing per receiver. For a receiver at offset d from the sender, beam
// axis u and half-width h = θ/2 in (0, π),
//
//	e = sin h·(u·d) − cos h·|u×d| = |d|·sin(h − φ),
//
// where φ in [0, π] is the angle between u and d, so e > 0 iff φ < h.
// Rounding moves the computed e by at most about 1e-15·(|dx|+|dy|) and
// the reference m.Covers(p.Bearing(q)) errs by about 1e-15 rad on φ and
// widens the beam by 1e-12 rad. Outside the band |e| <= 1e-9·(|dx|+|dy|)
// the true φ is therefore about 1e-9 rad or more from h, and the sign of
// e is the reference's answer; inside the band, and for a mode outside
// the test's domain, the reference itself decides. Every decision equals
// the reference's (DESIGN.md §7.2).
type beamTest struct {
	reference bool    // decide every receiver with the reference
	ux, uy    float64 // beam axis
	sin, cos  float64 // of half the beamwidth
}

// beamTest returns the test for directional mode m sent by src. The
// half-width's sine and cosine are computed once per distinct beamwidth,
// the axis once per distinct bearing in a row from one sender (a retry
// aims where the last attempt did). Widths outside (0, 2π) and bearings
// outside [−2π, 2π] (where the reference's own rounding grows with the
// bearing) take the reference for every receiver.
//
//desalint:hotpath
func (c *Channel) beamTest(src *Radio, m Mode) beamTest {
	if !(m.Beamwidth > 0 && m.Beamwidth < 2*math.Pi && math.Abs(m.Bearing) <= 2*math.Pi) {
		return beamTest{reference: true}
	}
	if m.Beamwidth != c.halfOf {
		c.halfOf = m.Beamwidth
		c.halfSin, c.halfCos = math.Sincos(m.Beamwidth / 2)
	}
	if math.Float64bits(m.Bearing) != math.Float64bits(src.axisOf) {
		src.axisOf = m.Bearing
		src.axisSin, src.axisCos = math.Sincos(m.Bearing)
	}
	return beamTest{ux: src.axisCos, uy: src.axisSin, sin: c.halfSin, cos: c.halfCos}
}

// covers reports m.Covers(p.Bearing(q)) for the frame b was built for.
// A NaN e fails the band comparison and falls back too.
//
//desalint:hotpath
func (b *beamTest) covers(m Mode, p, q geom.Point) bool {
	if !b.reference {
		dx, dy := q.X-p.X, q.Y-p.Y
		e := b.sin*(b.ux*dx+b.uy*dy) - b.cos*math.Abs(b.ux*dy-b.uy*dx)
		if math.Abs(e) > 1e-9*(math.Abs(dx)+math.Abs(dy)) {
			return e > 0
		}
	}
	return m.Covers(p.Bearing(q))
}
