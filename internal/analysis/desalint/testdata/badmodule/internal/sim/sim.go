// Package sim seeds a cachekey violation: a json:"-" field the build
// path reads, next to an allowlisted fastforward exclusion.
package sim

// Key stands in for the cache key type.
type Key [4]byte

// Scenario is the fixture's run description.
type Scenario struct {
	Name string `json:"name"`
	// Debug is excluded from the canonical bytes but read in Build.
	Debug bool `json:"-"` // cachekey
	// FastForward matches the global result-invariant allowlist.
	FastForward bool `json:"fastforward,omitempty"`
	// Partition matches the allowlist too: like fastforward it is a
	// validated no-op, so the exclusion is result-invariant.
	Partition string `json:"partition,omitempty"`
}

// MarshalScenario produces the canonical bytes.
func MarshalScenario(sc Scenario) []byte { return []byte(sc.Name) }

// ScenarioKey hashes the canonical bytes after normalizing the
// result-invariant fields.
func ScenarioKey(sc Scenario) Key {
	sc.FastForward = false
	sc.Partition = ""
	_ = MarshalScenario(sc)
	return Key{}
}

// Build consumes the scenario.
func Build(sc Scenario) int {
	v := len(sc.Name)
	if sc.Debug {
		v++
	}
	if sc.FastForward {
		v++
	}
	v += len(sc.Partition)
	return v
}
