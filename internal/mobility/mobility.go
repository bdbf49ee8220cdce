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

// The walk: one-second pauses at each waypoint, 100 ms update
// granularity, and speeds drawn uniformly from a tenth of the top speed
// up to the top speed.
const (
	pause      = des.Second
	tick       = 100 * des.Millisecond
	speedRatio = 10 // the top speed over the slowest draw
)

// Config parameterizes the random-waypoint model.
type Config struct {
	// Bound keeps nodes inside a disk of this radius centered at the
	// origin (the network's field disk, 3R in the paper).
	Bound float64
	// MaxSpeed is the top speed, in distance units per second.
	// MaxSpeed = 0 disables movement entirely.
	MaxSpeed float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Bound <= 0 {
		return fmt.Errorf("mobility: bound must be positive, got %v", c.Bound)
	}
	if c.MaxSpeed < 0 {
		return fmt.Errorf("mobility: top speed must be non-negative, got %v", c.MaxSpeed)
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

// Model drives the walkers from the scheduler. It is its own tick
// event.
type Model struct {
	sched   *des.Scheduler
	cfg     Config
	walkers []*walker
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

// Start begins the walk, which goes on for as long as the scheduler
// runs. Call it once.
func (m *Model) Start() {
	if m.cfg.MaxSpeed <= 0 {
		return // static network
	}
	for _, w := range m.walkers {
		m.retarget(w)
	}
	m.sched.ScheduleEvent(tick, m)
}

// retarget draws a fresh waypoint and speed for w.
func (m *Model) retarget(w *walker) {
	rng := m.sched.Rand()
	// Uniform by area inside the bounding disk.
	r := m.cfg.Bound * math.Sqrt(rng.Float64())
	theta := rng.Float64() * 2 * math.Pi
	w.target = geom.Polar(geom.Point{}, r, theta)
	lo := m.cfg.MaxSpeed / speedRatio
	w.speed = lo + rng.Float64()*(m.cfg.MaxSpeed-lo)
	w.pausal = 0
}

// Fire advances every walker by one tick and schedules the next.
func (m *Model) Fire() {
	dt := tick.Seconds()
	for _, w := range m.walkers {
		if w.pausal > 0 {
			w.pausal -= tick
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
			w.pausal = pause
			continue
		}
		w.radio.SetPos(pos.Add(to.Scale(step / dist)))
	}
	m.sched.ScheduleEvent(tick, m)
}
