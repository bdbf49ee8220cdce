package experiments

// Pre-sweep pruning. The Kai–Liew analytic estimate (core/kailiew.go)
// costs microseconds per sweep cell, so the harness can rank an entire
// (scheme, N, beamwidth) grid before any simulation runs and skip cells
// whose predicted throughput is dominated within their density class.
// Verdicts are content-addressed like every other result: the cache key
// covers the predictor's parameters and its own fingerprint, so a warm
// sweep stays incremental and a predictor change invalidates verdicts
// without touching cached simulation results (simulated cells keep
// their ordinary ScenarioKey addressing).

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
)

// KaiLiewFingerprint identifies the pruning predictor's behavior for
// cache addressing, exactly like sim.EngineFingerprint does for the
// kernel. Bump the version when the estimate can change for the same
// parameters.
const KaiLiewFingerprint = "kailiew-prune/v1"

// PruneVerdict is the predictor's decision for one sweep cell.
type PruneVerdict struct {
	Scheme       core.Scheme `json:"scheme"`
	N            int         `json:"n"`
	BeamwidthDeg float64     `json:"beamwidthDeg"`
	// Estimate is the Kai–Liew normalized throughput estimate.
	Estimate float64 `json:"estimate"`
	// Tau is the solved per-slot attempt probability.
	Tau float64 `json:"tau"`
	// Skip marks the cell dominated: its estimate falls below margin
	// times the best estimate among cells with the same N.
	Skip bool `json:"skip"`
}

// kaiLiewEstimate memoizes one cell's estimate through the store (nil
// store computes directly).
func kaiLiewEstimate(s core.Scheme, n int, beamDeg float64, store *cache.Store) (est, tau float64, err error) {
	kp := core.DefaultKaiLiewParams(s, float64(n), beamDeg*radPerDeg)
	if s == core.ORTSOCTS {
		kp.Beamwidth = 0 // canonical: the omni scheme ignores beamwidth
	}
	var key cache.Key
	if store != nil {
		pb, err := json.Marshal(kp)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: encode predictor params: %w", err)
		}
		key = cache.NewKeyBuilder().
			Write("kailiew", pb).
			Write("engine", []byte(KaiLiewFingerprint)).
			Key()
		if payload, ok := store.Get(key); ok {
			var got [2]float64
			if json.Unmarshal(payload, &got) == nil {
				return got[0], got[1], nil
			}
		}
	}
	if s == core.ORTSOCTS {
		kp.Beamwidth = 2 * 3.141592653589793
	}
	est, tau, err = core.KaiLiewEstimate(kp)
	if err != nil {
		return 0, 0, err
	}
	if store != nil {
		if payload, err := json.Marshal([2]float64{est, tau}); err == nil {
			_ = store.Put(key, payload) // best effort; the estimate stands
		}
	}
	return est, tau, nil
}

// PruneGrid ranks every grid cell by its Kai–Liew estimate and marks as
// dominated the cells whose estimate falls below margin times the best
// estimate at the same density N (schemes and beamwidths compete within
// a density; densities are never compared against each other, since the
// paper's figures sweep them independently). margin must be in (0, 1]:
// 1 keeps only the predicted-best cell per density, 0.5 keeps every
// cell within a factor two of it. The verdicts are memoized through
// store when non-nil.
func PruneGrid(schemes []core.Scheme, ns []int, beamsDeg []float64, margin float64, store *cache.Store) ([]PruneVerdict, error) {
	if margin <= 0 || margin > 1 {
		return nil, fmt.Errorf("experiments: prune margin must be in (0, 1], got %v", margin)
	}
	var verdicts []PruneVerdict
	for _, n := range ns {
		start := len(verdicts)
		best := 0.0
		for _, beam := range beamsDeg {
			for _, s := range schemes {
				est, tau, err := kaiLiewEstimate(s, n, beam, store)
				if err != nil {
					return nil, fmt.Errorf("experiments: prune cell %v N=%d θ=%v: %w", s, n, beam, err)
				}
				if est > best {
					best = est
				}
				verdicts = append(verdicts, PruneVerdict{
					Scheme: s, N: n, BeamwidthDeg: beam, Estimate: est, Tau: tau,
				})
			}
		}
		for i := start; i < len(verdicts); i++ {
			verdicts[i].Skip = verdicts[i].Estimate < margin*best
		}
	}
	return verdicts, nil
}

// RunGridPruned is Grid with pre-sweep pruning: cells the predictor
// marks dominated are skipped entirely (no simulation, no cache
// traffic), and only the surviving cells are returned. The verdicts —
// including the skipped cells with their estimates — come back
// alongside, so reports can show what was pruned and why.
// r.Options.Cache, when set, memoizes both the predictor verdicts and
// the surviving cells' simulation results.
func RunGridPruned(r sim.Runner, base sim.Scenario, schemes []core.Scheme, ns []int, beamsDeg []float64, topologies int, margin float64) ([]GridCell, []PruneVerdict, error) {
	verdicts, err := PruneGrid(schemes, ns, beamsDeg, margin, r.Options.Cache)
	if err != nil {
		return nil, nil, err
	}
	skip := make(map[gridKey]bool, len(verdicts))
	for _, v := range verdicts {
		if v.Skip {
			skip[gridKey{v.Scheme, v.N, v.BeamwidthDeg}] = true
		}
	}
	cells, err := runGrid(r, base, schemes, ns, beamsDeg, topologies, skip)
	if err != nil {
		return nil, nil, err
	}
	return cells, verdicts, nil
}

const radPerDeg = 3.141592653589793 / 180
