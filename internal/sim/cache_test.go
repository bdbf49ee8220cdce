package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// canonicalResultJSON mirrors the kernel-determinism golden encoding of
// internal/experiments: an indented json.Encoder over the Result.
func canonicalResultJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestStore(t *testing.T) *cache.Store {
	t.Helper()
	s, err := cache.NewStore(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScenarioKeyStableAcrossFieldOrder(t *testing.T) {
	sc := quickScenario()
	want, err := ScenarioKey(sc)
	if err != nil {
		t.Fatal(err)
	}

	// Re-parse the scenario from JSON whose fields arrive in a different
	// order than the struct declares; the canonical marshal must erase
	// the difference.
	reordered := []byte(`{
  "topology": {"n": 3},
  "duration": "50ms",
  "seed": 1,
  "beamwidthDeg": 60,
  "scheme": "DRTS-DCTS",
  "traffic": {}
}`)
	sc2, err := ParseScenario(reordered)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScenarioKey(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("key changed when the same scenario arrived with reordered JSON fields")
	}

	// And it must be sensitive to an actual change.
	sc3 := sc
	sc3.Seed++
	other, err := ScenarioKey(sc3)
	if err != nil {
		t.Fatal(err)
	}
	if other == want {
		t.Error("key insensitive to a seed change")
	}
}

func TestEngineFingerprintInvalidates(t *testing.T) {
	sc := quickScenario()
	b, err := MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	current, err := ScenarioKey(sc)
	if err != nil {
		t.Fatal(err)
	}
	old := cache.NewKeyBuilder().
		Write("scenario", b).
		Write("engine", []byte("repro-sim/v0-before-the-bump")).
		Write("options", []byte("default")).
		Key()
	if old == current {
		t.Fatal("fingerprint does not participate in the key")
	}
	// An entry stored under the old fingerprint must be unreachable.
	store := newTestStore(t)
	if err := store.Put(old, []byte("stale result")); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(current); ok {
		t.Error("bumped fingerprint still hit the stale entry")
	}
}

func TestRunScenarioCachedGoldenIdentical(t *testing.T) {
	sc := quickScenario()
	store := newTestStore(t)

	fresh, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunScenario(sc, Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunScenario(sc, Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}

	want := canonicalResultJSON(t, fresh)
	for name, r := range map[string]*Result{"cold": cold, "warm": warm} {
		if got := canonicalResultJSON(t, r); !bytes.Equal(got, want) {
			t.Errorf("%s cached result not byte-identical to a fresh run:\n got %s\nwant %s", name, got, want)
		}
	}

	st := store.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d, want exactly 1 (the warm run)", st.Hits)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (the cold run)", st.Misses)
	}
}

func TestRunnerCachedGoldenIdentical(t *testing.T) {
	base := quickScenario()
	const shards = 4
	store := newTestStore(t)

	fresh, err := Runner{Workers: 2}.Run(base, shards)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Runner{Workers: 2, Options: Options{Cache: store}}.Run(base, shards)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Runner{Workers: 2, Options: Options{Cache: store}}.Run(base, shards)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < shards; i++ {
		want := canonicalResultJSON(t, fresh[i])
		if got := canonicalResultJSON(t, cold[i]); !bytes.Equal(got, want) {
			t.Errorf("shard %d: cold cached result differs from fresh run", i)
		}
		if got := canonicalResultJSON(t, warm[i]); !bytes.Equal(got, want) {
			t.Errorf("shard %d: warm cached result differs from fresh run", i)
		}
	}
	st := store.Stats()
	if st.Hits != shards || st.Misses != shards {
		t.Errorf("stats = %+v, want %d hits and %d misses", st, shards, shards)
	}
}

func TestCacheBypassedWithRuntimeOverrides(t *testing.T) {
	sc := quickScenario()
	store := newTestStore(t)

	// Warm the cache for this scenario.
	if _, err := RunScenario(sc, Options{Cache: store}); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(64)
	if _, err := RunScenario(sc, Options{Cache: store, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 0 {
		t.Errorf("a run with a tracer consulted the cache (hits = %d)", st.Hits)
	}
	if len(rec.Events()) == 0 {
		t.Error("the tracer saw no events: the run was not executed")
	}
}

func TestCorruptCacheEntryFallsThroughToRun(t *testing.T) {
	sc := quickScenario()
	dir := t.TempDir()
	store, err := cache.NewStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunScenario(sc, Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the entry on disk, then read through a fresh store so the
	// memory layer cannot mask the damage.
	key, err := ScenarioKey(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.String()+".entry")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	store2, err := cache.NewStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(sc, Options{Cache: store2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, fresh) {
		t.Error("recovered run differs from the original result")
	}
	// The damaged entry must have been repaired by the fresh run's Put.
	if _, ok := store2.Get(key); !ok {
		t.Error("entry not rewritten after corruption fallback")
	}
}
