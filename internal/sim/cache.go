package sim

// Result caching. Determinism is the enabler: a Scenario's canonical
// bytes plus the engine fingerprint fully determine the Result (the
// kernel-determinism goldens pin this), so a content-addressed lookup
// can replace a simulation run bit-for-bit. Runs with runtime overrides
// attached (a pre-generated topology or a tracer) are NOT cached — the
// override isn't part of the canonical bytes, and replaying a cached
// result would silently drop tracer side effects.

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
)

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
const EngineFingerprint = "repro-sim/v3"

// optionsFingerprint describes the cacheable Options state. Runs are
// only cached when no runtime overrides are attached, so today this is
// a single canonical value; it becomes a real encoding if cacheable
// options ever appear.
const optionsFingerprint = "default"

// ScenarioKey computes the content address of a scenario's result:
// SHA-256 over the canonical scenario bytes, the engine fingerprint and
// the options fingerprint. FastForward is normalized away before
// hashing: it is a validated no-op the kernel never reads, so a
// scenario with it set is the same experiment as one without. Partition
// "auto" is normalized to its synonym "" (the default); "off" is NOT
// normalized, because forcing the sequential kernel changes results on
// scenarios large enough to auto-partition. Options.Workers never
// enters the key at all — the partition layout, and with it the result,
// is worker-count independent.
func ScenarioKey(sc Scenario) (cache.Key, error) {
	sc.FastForward = false
	if sc.Partition == "auto" {
		sc.Partition = ""
	}
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

// EncodeResult renders the canonical byte form of a Result: compact
// JSON, no trailing newline. These bytes are both the result-cache
// payload and the wire format cmd/simd serves, so they are a stable
// contract: JSON float encoding is shortest-form and round-trips
// bit-exactly, which makes a decoded Result re-encode to the same
// golden bytes as a fresh run — and a daemon-served body byte-identical
// to a local `netsim -scenario ... -json` run of the same spec.
func EncodeResult(r *Result) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("sim: encode result: %w", err)
	}
	return b, nil
}

// DecodeResult parses canonical result bytes back into a Result.
func DecodeResult(b []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("sim: decode cached result: %w", err)
	}
	return &r, nil
}

// cacheable reports whether a run of sc under opts may be served from
// or stored to the cache. Telemetry-enabled scenarios bypass the cache
// entirely: the streaming export is a side effect a cached Result
// cannot replay, exactly like a Tracer override.
func cacheable(sc Scenario, opts Options) bool {
	return opts.Cache != nil && opts.Topology == nil && opts.Tracer == nil &&
		!sc.Telemetry.Enabled()
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
