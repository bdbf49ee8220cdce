package dirca

import (
	"repro/internal/core"
	"repro/internal/experiments"
)

// This file exposes the analytical extensions that go beyond the paper's
// artifacts: the fourth scheme, the readiness fixed point and the Fig. 5
// sensitivity sweep. The simulated extension studies run from
// cmd/experiments.

// ORTSDCTS is the fourth RTS/CTS combination (omni RTS, directional
// CTS/DATA/ACK), not analyzed in the paper but derivable with its
// machinery; both model and simulator support it. It is dominated by
// ORTSOCTS everywhere — see EXPERIMENTS.md.
const ORTSDCTS = core.ORTSDCTS

// AllSchemes lists the paper's three schemes plus ORTSDCTS.
func AllSchemes() []Scheme { return core.AllSchemes() }

// ParseScheme converts a scheme name ("DRTS-DCTS", "orts_octs", ...) to
// its Scheme value.
func ParseScheme(s string) (Scheme, error) { return core.ParseScheme(s) }

// AttemptProbability solves the fixed point p = p₀·(1−p)·e^{−pN} linking
// the paper's free parameter p (per-slot attempt probability) to the
// readiness probability p₀ a protocol actually controls.
func AttemptProbability(p0, n float64) (float64, error) {
	return core.AttemptProbability(p0, n)
}

// ThroughputFromReadiness evaluates scheme throughput at the attempt
// probability induced by readiness p₀.
func ThroughputFromReadiness(s Scheme, p0 float64, mp ModelParams) (float64, error) {
	return core.ThroughputFromReadiness(s, p0, mp)
}

// Fig5Sensitivity computes the analytical beamwidth sweep for alternative
// data-packet lengths, keyed by length.
func Fig5Sensitivity(n float64, dataLens []int) (map[int][]Fig5Row, error) {
	return experiments.Fig5Sensitivity(n, dataLens)
}
