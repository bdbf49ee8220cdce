package phy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// beamDiff runs the filtered beam test and the atan2 reference on the
// same inputs and counts disagreements. Every case is sent by one radio,
// so the test also runs through the sender's axis memo.
type beamDiff struct {
	t     *testing.T
	ch    Channel // only its half-width cache is used
	src   Radio   // only its axis memo is used
	cases int
	bad   int
}

func (d *beamDiff) check(m Mode, p, q geom.Point) {
	d.cases++
	bt := d.ch.beamTest(&d.src, m)
	got, want := bt.covers(m, p, q), m.Covers(p.Bearing(q))
	if got == want {
		return
	}
	d.bad++
	if d.bad <= 10 {
		d.t.Errorf("bearing %v width %v from %v to %v: filtered %v, reference %v",
			m.Bearing, m.Beamwidth, p, q, got, want)
	}
}

// logUniform draws from [lo, hi] uniformly in log scale.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// ulpsFrom returns a stepped k ulps away from a, toward +Inf for k > 0.
func ulpsFrom(a float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		a = math.Nextafter(a, dir)
	}
	return a
}

// TestBeamTestMatchesReference compares the filtered beam test with
// Mode.Covers(Bearing) on random geometry at coordinate scales 1e-3 to
// 1e4, on points a few ulps and 1e-12 to 1e-8 rad either side of each
// beam edge, on the axis, directly behind, at the sender and at
// non-finite offsets, for bearings at ±π and next to it, and for widths
// from 1e-9 to just under 2π, exactly 2π, 0, negative, beyond 2π and
// NaN. Every decision must be the reference's.
func TestBeamTestMatchesReference(t *testing.T) {
	const rounds = 40_000
	d := &beamDiff{t: t, src: Radio{axisCos: 1}}
	rng := rand.New(rand.NewSource(1))
	twoPi := 2 * math.Pi
	widths := []float64{
		1e-9, 1e-6, 1e-3, math.Pi / 6, math.Pi / 2, math.Pi, 3 * math.Pi / 2,
		twoPi - 1e-6, twoPi - 1e-12, twoPi - 1e-15, math.Nextafter(twoPi, 0),
		twoPi, 0, -1e-12, -1e-9, -1, -math.Pi, -twoPi, 3 * math.Pi, math.NaN(),
	}
	bearings := []float64{
		math.Pi, -math.Pi, math.Nextafter(math.Pi, 0), math.Nextafter(-math.Pi, 0),
		0, math.Pi / 2, -math.Pi / 2, 7, -7, 1e9,
	}
	for i := 0; i < rounds; i++ {
		var m Mode
		switch rng.Intn(3) {
		case 0:
			m = Directed(bearings[rng.Intn(len(bearings))], widths[rng.Intn(len(widths))])
		case 1:
			m = Directed(math.Pi-rng.Float64()*twoPi, logUniform(rng, 1e-9, twoPi))
		default:
			m = Directed(math.Pi-rng.Float64()*twoPi, rng.Float64()*twoPi)
		}
		if rng.Intn(8) == 0 {
			m.Bearing = bearings[rng.Intn(len(bearings))]
		}
		at := logUniform(rng, 1e-3, 1e4) // sender coordinate scale
		p := geom.Point{X: (2*rng.Float64() - 1) * at, Y: (2*rng.Float64() - 1) * at}
		r := logUniform(rng, 1e-3, 1e4) // receiver distance scale
		toward := func(a, dist float64) geom.Point {
			return geom.Point{X: p.X + dist*math.Cos(a), Y: p.Y + dist*math.Sin(a)}
		}

		// Random receivers anywhere around the sender.
		for j := 0; j < 20; j++ {
			d.check(m, p, toward(rng.Float64()*twoPi, r*rng.Float64()))
		}
		// On the axis, directly behind, and at the sender itself.
		d.check(m, p, toward(m.Bearing, r))
		d.check(m, p, toward(m.Bearing+math.Pi, r))
		d.check(m, p, p)
		// Non-finite offsets, where e is NaN or infinite.
		d.check(m, p, geom.Point{X: math.Inf(1), Y: math.Inf(1)})
		d.check(m, p, geom.Point{X: math.Inf(-1), Y: p.Y})
		d.check(m, p, geom.Point{X: math.NaN(), Y: p.Y})
		// Either side of each beam edge: a few ulps of the edge angle,
		// and 1e-12 to 1e-8 rad.
		for _, side := range []float64{-1, 1} {
			edge := m.Bearing + side*m.Beamwidth/2
			for k := -3; k <= 3; k++ {
				d.check(m, p, toward(ulpsFrom(edge, k), r))
			}
			for k := 0; k < 4; k++ {
				delta := logUniform(rng, 1e-12, 1e-8)
				d.check(m, p, toward(edge+delta, r))
				d.check(m, p, toward(edge-delta, r))
			}
		}
	}
	if d.cases < 1_000_000 {
		t.Fatalf("ran %d cases, want at least 1e6", d.cases)
	}
	if d.bad > 0 {
		t.Fatalf("%d of %d cases disagree with the reference", d.bad, d.cases)
	}
	t.Logf("%d cases, 0 mismatches", d.cases)
}

// TestBeamAxisMemo: a radio's beam axis is the sine and cosine of the
// bearing its frame aims at, bit for bit, whether the bearing repeats
// the last one (the memo answers), alternates with another, or differs
// from it only in the sign of zero. A new radio aims at 0 without
// computing anything.
func TestBeamAxisMemo(t *testing.T) {
	ch, err := NewChannel(nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := ch.AddRadio(geom.Point{}, nil)
	a, b := 0.7, -2.9
	negZero := math.Copysign(0, -1)
	for i, bearing := range []float64{0, a, b, a, a, b, b, a, negZero, 0, negZero, math.Pi, -math.Pi, b} {
		bt := ch.beamTest(r, Directed(bearing, math.Pi/3))
		uy, ux := math.Sincos(bearing)
		if bt.reference || math.Float64bits(bt.ux) != math.Float64bits(ux) || math.Float64bits(bt.uy) != math.Float64bits(uy) {
			t.Fatalf("call %d, bearing %v: axis (%v, %v), reference %v; want (%v, %v)", i, bearing, bt.ux, bt.uy, bt.reference, ux, uy)
		}
	}
}
