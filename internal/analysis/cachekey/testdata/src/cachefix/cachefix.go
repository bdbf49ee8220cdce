// Package cachefix exercises the cachekey diagnostics: fields excluded
// from the canonical bytes (json:"-", unexported, normalized away in
// ScenarioKey) that the build path still reads, including one inside a
// nested spec struct, against the allowlisted fastforward exclusion.
package cachefix

// Key stands in for the cache key type.
type Key [4]byte

// Nested is a spec struct reachable from Scenario.
type Nested struct {
	Hidden int `json:"-"` // want `Scenario field Hidden \(json "nested.Hidden"\) is read by the build/run path but excluded from the cache key`
	Ok     int `json:"ok"`
}

// Scenario is the fixture's declarative run description.
type Scenario struct {
	Name  string `json:"name"`
	Debug bool   `json:"-"`              // want `Scenario field Debug \(json "Debug"\) is read by the build/run path but excluded from the cache key \(tagged json:"-"\)`
	Fast  bool   `json:"fast,omitempty"` // want `Scenario field Fast \(json "fast"\) is read by the build/run path but excluded from the cache key \(normalized away in ScenarioKey before hashing\)`
	// FastForward and Partition match the global result-invariant
	// allowlist entries.
	FastForward bool   `json:"fastforward,omitempty"`
	Partition   string `json:"partition,omitempty"`
	Nested      Nested `json:"nested"`
	hidden      int    // want `Scenario field hidden \(json "hidden"\) is read by the build/run path but excluded from the cache key \(unexported, never serialized\)`
}

// MarshalScenario produces the canonical bytes.
func MarshalScenario(sc Scenario) []byte { return []byte(sc.Name) }

// ScenarioKey hashes the canonical bytes after normalizing the
// result-invariant fields away.
func ScenarioKey(sc Scenario) Key {
	sc.Fast = false
	sc.FastForward = false
	sc.Partition = ""
	_ = MarshalScenario(sc)
	return Key{}
}

// Build consumes the scenario; every field read here can change the
// result.
func Build(sc Scenario) int {
	v := len(sc.Name)
	if sc.Debug {
		v++
	}
	if sc.Fast {
		v++
	}
	if sc.FastForward {
		v++ // allowlisted: provably result-invariant in the real tree
	}
	v += len(sc.Partition) // allowlisted: validated, never read by the real kernel
	v += sc.Nested.Hidden + sc.Nested.Ok
	v += sc.hidden
	return v
}
