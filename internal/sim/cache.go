package sim

// Result caching. Determinism is the enabler: a Scenario's canonical
// bytes plus the engine fingerprint fully determine the Result (the
// kernel-determinism goldens pin this), so a content-addressed lookup
// can replace a simulation run bit-for-bit. Runs with a tracer or a
// telemetry sink attached are NOT cached: replaying a cached result
// would silently drop their side effects. A scenario's telemetry section
// alone does not change its Result, so it does not keep a run out.

import "repro/internal/cache"

// EngineFingerprint identifies the simulation kernel's behavior for
// cache addressing. Bump the version suffix whenever any change can
// alter a Result for the same scenario bytes (MAC/PHY/DES semantics,
// RNG consumption order, metric definitions) so stale entries become
// unreachable instead of wrong.
//
// v2: the grid-partitioned parallel kernel (DESIGN.md §14) changes the
// event order of large auto-partitioned scenarios relative to v1's
// always-sequential kernel.
//
// v3: the exact one-timer backoff countdown (DESIGN.md §12). Results
// equal v2's with fast-forward off, but v2 caches hold fast-forward
// results that diverged under mobility, stored under keys shared with
// runs that had it off; none of them may be served.
//
// v4: one event kernel (DESIGN.md §14). Every run is sequential, and
// results equal v3's with partition "off". v3 caches hold partitioned
// results under keys that now mean the sequential run.
//
// v5: stats.JainIndex clamps its ratio to 1. Equal shares whose rounded
// sums put the ratio a few ulps above 1 now read exactly 1, and v4
// caches may hold the unclamped Jain bytes.
//
// v6: the sampleDelays reservoir draws from its own stream. It drew from
// the protocol stream, so a run that offered it more than 4 096
// deliveries moved every later backoff; v5 caches hold those results.
//
// v7: waypoint mobility walks the scenario's own field, the Rings·R
// disk. It walked a fixed 3-unit disk, so on any other field every node
// drifted into the 3R disk; v6 caches hold those results. Scenarios on a
// 3-unit field, the paper's, give the bytes they gave.
const EngineFingerprint = "repro-sim/v7"

// optionsFingerprint describes the cacheable Options state. Runs are
// only cached without a tracer or telemetry sink, so today this is a
// single canonical value; it becomes a real encoding if cacheable
// options ever appear.
const optionsFingerprint = "default"

// ScenarioKey computes the content address of a scenario's result:
// SHA-256 over the canonical scenario bytes, the engine fingerprint and
// the options fingerprint. FastForward and Partition are normalized
// away before hashing: both are validated no-ops the kernel never reads,
// so a scenario with either set is the same experiment as one without.
func ScenarioKey(sc Scenario) (cache.Key, error) {
	sc.FastForward = false
	sc.Partition = ""
	b, err := MarshalScenario(sc)
	if err != nil {
		return cache.Key{}, err
	}
	return cache.NewKeyBuilder().
		Write("scenario", b).
		Write("engine", []byte(EngineFingerprint)).
		Write("options", []byte(optionsFingerprint)).
		Key(), nil
}

// cacheable reports whether a run under opts may use opts.Cache: no
// Tracer and no telemetry sink attached.
func cacheable(opts Options) bool {
	return opts.Cache != nil && opts.Tracer == nil && opts.Telemetry == nil
}

// runCached serves sc from the cache when possible, otherwise runs it
// and stores the result. A corrupt or undecodable entry falls through
// to a fresh run; a failed store does not fail the (successful) run.
func runCached(sc Scenario, opts Options) (*Result, error) {
	key, err := ScenarioKey(sc)
	if err != nil {
		return nil, err
	}
	if payload, ok := opts.Cache.Get(key); ok {
		if res, err := DecodeResult(payload); err == nil {
			return res, nil
		}
	}
	s, err := Build(sc, opts)
	if err != nil {
		return nil, err
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	if payload, err := EncodeResult(res); err == nil {
		_ = opts.Cache.Put(key, payload) // best effort; the result stands
	}
	return res, nil
}
