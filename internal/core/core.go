// Package core implements the paper's primary contribution: the
// approximate throughput analysis of three collision-avoidance MAC schemes
// in multi-hop ad hoc networks with directional antennas (Wang &
// Garcia-Luna-Aceves, ICDCS 2003, Section 2).
//
// Nodes are placed by a two-dimensional Poisson process with an average of
// N nodes per coverage disk of radius R. Time is slotted; every silent
// node starts transmitting in a slot independently with probability p.
// A node is modeled by a three-state Markov chain (wait, succeed, fail);
// the per-scheme physics enter through the transition probability P_ws
// (probability of initiating a successful four-way handshake in a slot),
// the idle-persistence probability P_ww, and the expected failed-handshake
// duration T_fail.
//
// All packet lengths are in slots and all distances are normalized to the
// transmission range (R = 1).
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/geom"
	"repro/internal/numeric"
)

// Scheme identifies one of the three collision-avoidance schemes analyzed
// in the paper.
type Scheme int

const (
	// ORTSOCTS transmits every packet omni-directionally (standard
	// sender-initiated collision avoidance; the scheme of IEEE 802.11).
	ORTSOCTS Scheme = iota + 1
	// DRTSDCTS transmits every packet directionally, maximizing spatial
	// reuse at the price of more collisions.
	DRTSDCTS
	// DRTSOCTS transmits RTS, data and ACK directionally but the CTS
	// omni-directionally, trading some reuse for hidden-terminal silencing.
	DRTSOCTS
	// ORTSDCTS is the fourth combination, not analyzed in the paper but
	// derivable with the same machinery (the paper notes its model "is
	// applicable to many other combinations"): omni-directional RTS with
	// directional CTS/DATA/ACK. It keeps the sender-side silencing cost of
	// omni RTS while losing the receiver-side hidden-terminal protection
	// of an omni CTS — the worst of both worlds, which the model predicts.
	ORTSDCTS
)

var schemeNames = map[Scheme]string{
	ORTSOCTS: "ORTS-OCTS",
	DRTSDCTS: "DRTS-DCTS",
	DRTSOCTS: "DRTS-OCTS",
	ORTSDCTS: "ORTS-DCTS",
}

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Schemes lists all three schemes in the paper's presentation order.
func Schemes() []Scheme {
	return []Scheme{ORTSOCTS, DRTSDCTS, DRTSOCTS}
}

// AllSchemes lists the paper's three schemes plus the ORTSDCTS
// extension.
func AllSchemes() []Scheme {
	return []Scheme{ORTSOCTS, DRTSDCTS, DRTSOCTS, ORTSDCTS}
}

// ParseScheme converts a scheme name ("ORTS-OCTS", "drts-dcts",
// "DRTSOCTS", "drts/octs", " ORTS_OCTS ", ...) to its Scheme value.
// Case is ignored, surrounding whitespace is trimmed, and the
// separators "-", "_", "/" and " " are interchangeable (including
// absent) — every spelling the docs and CLI flags use parses. The
// beam-mode names "omni" and "directional" stand for ORTS-OCTS and
// DRTS-DCTS.
func ParseScheme(s string) (Scheme, error) {
	norm := strings.ToUpper(strings.TrimSpace(s))
	for _, sep := range []string{"-", "_", "/", " "} {
		norm = strings.ReplaceAll(norm, sep, "")
	}
	switch norm {
	case "ORTSOCTS", "OMNI":
		return ORTSOCTS, nil
	case "DRTSDCTS", "DIRECTIONAL":
		return DRTSDCTS, nil
	case "DRTSOCTS":
		return DRTSOCTS, nil
	case "ORTSDCTS":
		return ORTSDCTS, nil
	default:
		return 0, fmt.Errorf("core: unknown scheme %q (want ORTS-OCTS, DRTS-DCTS, DRTS-OCTS or ORTS-DCTS)", s)
	}
}

// Lengths holds the packet transmission times in slots (the paper's
// l_rts, l_cts, l_data, l_ack).
type Lengths struct {
	RTS, CTS, Data, ACK int
}

// PaperLengths is the configuration used for the paper's Section 3
// numerical results: control packets of 5 slots and data packets of 100.
func PaperLengths() Lengths {
	return Lengths{RTS: 5, CTS: 5, Data: 100, ACK: 5}
}

// Succeed returns T_succeed = l_rts + l_cts + l_data + l_ack + 4, the
// duration of a complete four-way handshake including the four one-slot
// turnaround gaps.
func (l Lengths) Succeed() int {
	return l.RTS + l.CTS + l.Data + l.ACK + 4
}

// Validate reports whether every length is positive.
func (l Lengths) Validate() error {
	if l.RTS <= 0 || l.CTS <= 0 || l.Data <= 0 || l.ACK <= 0 {
		return fmt.Errorf("core: all packet lengths must be positive, got %+v", l)
	}
	return nil
}

// Params collects the free parameters of the analytical model.
type Params struct {
	// N is the average number of nodes per coverage disk (λπR²).
	N float64
	// Beamwidth θ is the directional transmission beamwidth in radians,
	// in (0, 2π]. It is ignored by ORTSOCTS.
	Beamwidth float64
	// Lengths are the packet lengths in slots.
	Lengths Lengths
}

// Validate checks the parameter ranges.
func (pr Params) Validate() error {
	if pr.N <= 0 || math.IsNaN(pr.N) || math.IsInf(pr.N, 0) {
		return fmt.Errorf("core: N must be positive and finite, got %v", pr.N)
	}
	if pr.Beamwidth <= 0 || pr.Beamwidth > 2*math.Pi+1e-9 {
		return fmt.Errorf("core: beamwidth must be in (0, 2π], got %v", pr.Beamwidth)
	}
	return pr.Lengths.Validate()
}

// ErrBadP is returned when the attempt probability is outside (0, 1).
var ErrBadP = errors.New("core: attempt probability p must be in (0, 1)")

// integrationSteps is the Simpson subinterval count for the P_ws integrals.
// The integrands are C^∞ except at clamp boundaries; 512 panels give ~1e-10
// accuracy for all parameters in the paper's sweep.
const integrationSteps = 512

// Steady holds the solved Markov chain for one (scheme, p) operating point.
type Steady struct {
	Pws   float64 // wait → succeed transition probability per slot
	Pww   float64 // wait → wait transition probability per slot
	Tfail float64 // expected duration of the fail state, in slots
	Pw    float64 // steady-state probability of wait
	Ps    float64 // steady-state probability of succeed
	Pf    float64 // steady-state probability of fail
}

// Throughput returns the normalized saturation throughput
// Th = π_s·l_data / (π_w·T_w + π_s·T_s + π_f·T_f) for the given scheme at
// attempt probability p.
func Throughput(s Scheme, p float64, pr Params) (float64, error) {
	st, err := Solve(s, p, pr)
	if err != nil {
		return 0, err
	}
	ts := float64(pr.Lengths.Succeed())
	denom := st.Pw*1 + st.Ps*ts + st.Pf*st.Tfail
	if denom <= 0 {
		return 0, nil
	}
	return st.Ps * float64(pr.Lengths.Data) / denom, nil
}

// Solve computes the Markov steady state for the given scheme at attempt
// probability p.
func Solve(s Scheme, p float64, pr Params) (Steady, error) {
	if err := pr.Validate(); err != nil {
		return Steady{}, err
	}
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return Steady{}, ErrBadP
	}
	var (
		pws, pww, tfail float64
		err             error
	)
	switch s {
	case ORTSOCTS:
		pws, pww, tfail, err = solveORTSOCTS(p, pr)
	case DRTSDCTS:
		pws, pww, tfail, err = solveDRTSDCTS(p, pr)
	case DRTSOCTS:
		pws, pww, tfail, err = solveDRTSOCTS(p, pr)
	case ORTSDCTS:
		pws, pww, tfail, err = solveORTSDCTS(p, pr)
	default:
		return Steady{}, fmt.Errorf("core: unknown scheme %d", int(s))
	}
	if err != nil {
		return Steady{}, err
	}
	pw := 1 / (2 - pww)
	ps := pw * pws
	pf := 1 - pw - ps
	if pf < 0 {
		pf = 0 // guard against round-off at extreme parameters
	}
	return Steady{Pws: pws, Pww: pww, Tfail: tfail, Pw: pw, Ps: ps, Pf: pf}, nil
}

// solveORTSOCTS implements Section 2.1. The handshake is vulnerable only
// during 2·l_rts+1 slots to the hidden region B(r); once the CTS starts the
// handshake completes (correct collision avoidance is assumed).
func solveORTSOCTS(p float64, pr Params) (pws, pww, tfail float64, err error) {
	n, l := pr.N, pr.Lengths
	integrand := func(r float64) float64 {
		return 2 * r * math.Exp(-p*n*geom.HiddenArea(r)*float64(2*l.RTS+1))
	}
	integral, err := numeric.Integrate(integrand, 0, 1, integrationSteps)
	if err != nil {
		return 0, 0, 0, err
	}
	pws = p * (1 - p) * math.Exp(-p*n) * integral
	pww = (1 - p) * math.Exp(-p*n)
	tfail = float64(l.RTS + l.CTS + 2)
	return pws, pww, tfail, nil
}

// solveDRTSDCTS implements Section 2.2. All transmissions are inside a
// beam of width θ; interference probabilities come from the five regions of
// Fig. 3, each with its own vulnerable duration.
func solveDRTSDCTS(p float64, pr Params) (pws, pww, tfail float64, err error) {
	var (
		n, l   = pr.N, pr.Lengths
		theta  = pr.Beamwidth
		pDir   = p * theta / (2 * math.Pi) // p′: probability of hitting a given direction
		tsucc  = l.Succeed()
		expIII = float64(2*l.RTS + l.CTS + l.Data + l.ACK + 4)
		expIV  = float64(2*l.RTS + l.CTS + l.ACK + 2)
		expV   = float64(3*l.RTS + l.Data + 2)
	)
	integrand := func(r float64) float64 {
		a := geom.DRTSDCTSAreas(r, theta)
		exponent := p*a.I*n + // p₁: one slot, any direction
			pDir*a.II*n*float64(2*l.RTS) + p*a.II*n + // p₂
			pDir*a.III*n*expIII + // p₃ (θ′ ≈ θ)
			pDir*a.IV*n*expIV + // p₄
			pDir*a.V*n*expV // p₅
		return 2 * r * math.Exp(-exponent)
	}
	integral, err := numeric.Integrate(integrand, 0, 1, integrationSteps)
	if err != nil {
		return 0, 0, 0, err
	}
	pws = p * (1 - p) * integral
	pww = (1 - p) * math.Exp(-pDir*n)
	tfail = numeric.TruncGeomMean(p, l.RTS+1, tsucc)
	return pws, pww, tfail, nil
}

// solveDRTSOCTS implements Section 2.3. The RTS is directional but the CTS
// is omni-directional, so the hidden region is silenced once the CTS is
// heard; the three regions of Fig. 4 apply.
func solveDRTSOCTS(p float64, pr Params) (pws, pww, tfail float64, err error) {
	var (
		n, l   = pr.N, pr.Lengths
		theta  = pr.Beamwidth
		pDir   = p * theta / (2 * math.Pi)
		tsucc  = l.Succeed()
		expIII = float64(2*l.RTS + l.CTS + l.ACK + 2)
	)
	integrand := func(r float64) float64 {
		a := geom.DRTSOCTSAreas(r, theta)
		exponent := p*a.I*n +
			pDir*a.II*n*float64(2*l.RTS) + p*a.II*n +
			pDir*a.III*n*expIII
		return 2 * r * math.Exp(-exponent)
	}
	integral, err := numeric.Integrate(integrand, 0, 1, integrationSteps)
	if err != nil {
		return 0, 0, 0, err
	}
	pws = p * (1 - p) * integral
	// Nearly every handshake includes an omni CTS, which silences the
	// neighborhood, so P_ww matches the omni-directional case.
	pww = (1 - p) * math.Exp(-p*n)
	// The omni CTS can collide with ongoing handshakes, so the failed
	// period's lower bound includes the CTS exchange.
	tfail = numeric.TruncGeomMean(p, l.RTS+l.CTS+2, tsucc)
	return pws, pww, tfail, nil
}

// solveORTSDCTS is the extension analysis for the fourth combination,
// derived with the paper's method. The omni RTS silences the sender's
// whole disk (P_ww and the one-slot disk term match ORTS-OCTS), but the
// directional CTS leaves the hidden region B(r) unaware of the exchange,
// so it threatens the receiver for the RTS window (2·l_rts+1) AND the
// data reception (≈ l_rts + l_data + 1) — a vulnerable period of
// 3·l_rts + l_data + 2 slots, two orders longer than ORTS-OCTS's.
func solveORTSDCTS(p float64, pr Params) (pws, pww, tfail float64, err error) {
	n, l := pr.N, pr.Lengths
	vuln := float64(3*l.RTS + l.Data + 2)
	integrand := func(r float64) float64 {
		return 2 * r * math.Exp(-p*n*geom.HiddenArea(r)*vuln)
	}
	integral, err := numeric.Integrate(integrand, 0, 1, integrationSteps)
	if err != nil {
		return 0, 0, 0, err
	}
	pws = p * (1 - p) * math.Exp(-p*n) * integral
	pww = (1 - p) * math.Exp(-p*n)
	// Failures now include data-phase collisions, like DRTS-DCTS.
	tfail = numeric.TruncGeomMean(p, l.RTS+1, l.Succeed())
	return pws, pww, tfail, nil
}

// MaxThroughput returns the maximum achievable throughput over the attempt
// probability p ∈ (0, pMax] together with the maximizing p. The paper
// argues p stays below ≈0.1 under collision avoidance; pass pMax = 0 to
// use the default search bound of 0.5, which safely brackets every optimum
// in the paper's configurations.
//
// The search probes the throughput ~100 times, so it runs on a memoized
// Eval context: the geometry tables are built once and every probe costs
// one exponential per quadrature node (parity with the direct
// Throughput path is pinned to ≤1e-12 by the tests).
func MaxThroughput(s Scheme, pr Params, pMax float64) (bestP, bestTh float64, err error) {
	e, err := NewEval(s, pr)
	if err != nil {
		return 0, 0, err
	}
	return e.MaxThroughput(pMax)
}

// Curve evaluates MaxThroughput for each beamwidth in thetas, returning
// one throughput per beamwidth. This is the generator for the paper's
// Fig. 5 series. One Eval context is built per beamwidth and reused for
// the whole p-search; ORTS-OCTS, whose model does not depend on θ, is
// solved once and replicated across the sweep.
func Curve(s Scheme, n float64, lengths Lengths, thetas []float64) ([]float64, error) {
	out := make([]float64, len(thetas))
	if s == ORTSOCTS {
		for _, th := range thetas {
			// Preserve per-point validation errors (e.g. a θ ≤ 0 entry).
			if err := (Params{N: n, Beamwidth: th, Lengths: lengths}).Validate(); err != nil {
				return nil, fmt.Errorf("curve point θ=%v: %w", th, err)
			}
		}
		if len(thetas) == 0 {
			return out, nil
		}
		pr := Params{N: n, Beamwidth: thetas[0], Lengths: lengths}
		_, v, err := MaxThroughput(s, pr, 0)
		if err != nil {
			return nil, fmt.Errorf("curve point θ=%v: %w", thetas[0], err)
		}
		for i := range out {
			out[i] = v
		}
		return out, nil
	}
	for i, th := range thetas {
		pr := Params{N: n, Beamwidth: th, Lengths: lengths}
		_, v, err := MaxThroughput(s, pr, 0)
		if err != nil {
			return nil, fmt.Errorf("curve point θ=%v: %w", th, err)
		}
		out[i] = v
	}
	return out, nil
}

// PaperBeamwidths returns the paper's Fig. 5 sweep: 15° to 180° in 15°
// steps, in radians.
func PaperBeamwidths() []float64 {
	out := make([]float64, 0, 12)
	for deg := 15; deg <= 180; deg += 15 {
		out = append(out, float64(deg)*math.Pi/180)
	}
	return out
}
