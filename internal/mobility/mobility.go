// Package mobility animates node positions with the random-waypoint
// model, the standard mobility pattern in ad hoc network studies. The
// paper itself evaluates static networks; this package supports the
// extension study of how sensitive the directional schemes are to stale
// neighbor locations — the axis the paper's future-work discussion
// points at (beams aimed from outdated bearings miss moving receivers).
package mobility

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/geom"
	"repro/internal/phy"
)

// Config parameterizes the random-waypoint model.
type Config struct {
	// Bound keeps nodes inside a disk of this radius centered at the
	// origin (the paper's 3R network disk).
	Bound float64
	// SpeedMin/SpeedMax bound the uniform speed draw, in distance units
	// per second. SpeedMax = 0 disables movement entirely.
	SpeedMin, SpeedMax float64
	// Pause is the dwell time at each waypoint.
	Pause des.Time
	// Tick is the position-update interval (granularity of motion).
	Tick des.Time
}

// DefaultConfig returns a gentle walk inside the paper's 3R disk:
// speeds up to maxSpeed, one-second pauses, 100 ms update granularity.
func DefaultConfig(maxSpeed float64) Config {
	return Config{
		Bound:    3,
		SpeedMin: maxSpeed / 10,
		SpeedMax: maxSpeed,
		Pause:    des.Second,
		Tick:     100 * des.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Bound <= 0 {
		return fmt.Errorf("mobility: bound must be positive, got %v", c.Bound)
	}
	if c.SpeedMin < 0 || c.SpeedMax < c.SpeedMin {
		return fmt.Errorf("mobility: need 0 <= SpeedMin <= SpeedMax, got %v, %v", c.SpeedMin, c.SpeedMax)
	}
	if c.SpeedMax > 0 && c.Tick <= 0 {
		return fmt.Errorf("mobility: tick must be positive, got %v", c.Tick)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: pause must be non-negative, got %v", c.Pause)
	}
	return nil
}

// walker is one node's waypoint state.
type walker struct {
	radio  *phy.Radio
	target geom.Point
	speed  float64 // distance units per second
	pausal des.Time
}

// Model drives the walkers from the scheduler.
type Model struct {
	sched   *des.Scheduler
	cfg     Config
	walkers []*walker
	stopped bool
}

// New attaches a random-waypoint model to every radio of the channel.
func New(sched *des.Scheduler, ch *phy.Channel, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{sched: sched, cfg: cfg}
	for i := 0; i < ch.NumRadios(); i++ {
		m.walkers = append(m.walkers, &walker{radio: ch.Radio(phy.NodeID(i))})
	}
	return m, nil
}

// Start begins the walk. Idempotent per model; Stop ends it.
func (m *Model) Start() {
	if m.cfg.SpeedMax <= 0 {
		return // static network
	}
	for _, w := range m.walkers {
		m.retarget(w)
	}
	m.sched.Schedule(m.cfg.Tick, m.tick)
}

// Stop freezes all nodes at their current positions.
func (m *Model) Stop() { m.stopped = true }

// retarget draws a fresh waypoint and speed for w.
func (m *Model) retarget(w *walker) {
	rng := m.sched.Rand()
	// Uniform by area inside the bounding disk.
	r := m.cfg.Bound * math.Sqrt(rng.Float64())
	theta := rng.Float64() * 2 * math.Pi
	w.target = geom.Polar(geom.Point{}, r, theta)
	w.speed = m.cfg.SpeedMin + rng.Float64()*(m.cfg.SpeedMax-m.cfg.SpeedMin)
	w.pausal = 0
}

// tick advances every walker by one interval.
func (m *Model) tick() {
	if m.stopped {
		return
	}
	dt := m.cfg.Tick.Seconds()
	for _, w := range m.walkers {
		if w.pausal > 0 {
			w.pausal -= m.cfg.Tick
			if w.pausal <= 0 {
				m.retarget(w)
			}
			continue
		}
		pos := w.radio.Pos()
		to := w.target.Sub(pos)
		dist := to.Len()
		step := w.speed * dt
		if dist <= step {
			w.radio.SetPos(w.target)
			w.pausal = m.cfg.Pause
			if w.pausal <= 0 {
				m.retarget(w)
			}
			continue
		}
		w.radio.SetPos(pos.Add(to.Scale(step / dist)))
	}
	m.sched.Schedule(m.cfg.Tick, m.tick)
}
