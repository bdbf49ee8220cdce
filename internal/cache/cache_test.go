package cache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(parts ...string) Key {
	b := NewKeyBuilder()
	for i, p := range parts {
		b.Write(fmt.Sprintf("part%d", i), []byte(p))
	}
	return b.Key()
}

func TestKeyBuilderDeterministicAndSensitive(t *testing.T) {
	if testKey("a", "b") != testKey("a", "b") {
		t.Error("identical inputs must produce identical keys")
	}
	if testKey("a", "b") == testKey("a", "c") {
		t.Error("different inputs must produce different keys")
	}
	// Length prefixing: ("ab","c") must not alias ("a","bc").
	if testKey("ab", "c") == testKey("a", "bc") {
		t.Error("component boundaries must be part of the key")
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("round", "trip")
	payload := []byte("the result bytes")
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store should miss")
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestDiskPersistsAcrossStores(t *testing.T) {
	dir := t.TempDir()
	k := testKey("persist")
	payload := []byte("survives reopen")

	s1, err := NewStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(k, payload); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened store: Get = %q, %v; want payload, true", got, ok)
	}
}

func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("corrupt")
	if err := s.Put(k, []byte("to be damaged")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.String()+".entry")

	damage := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:len(entryMagic)+3] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"flipped-payload-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xFF
			return c
		}},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xFF
			return c
		}},
		{"empty", func([]byte) []byte { return nil }},
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			if err := os.WriteFile(path, d.mut(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewStore(dir, 4) // bypass the memory layer
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := fresh.Get(k); ok {
				t.Error("corrupt entry returned a hit; must be a miss")
			}
		})
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := NewStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := testKey("1"), testKey("2"), testKey("3")
	for i, k := range []Key{k1, k2} {
		if err := s.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Get(k1) // k1 now more recent than k2
	if err := s.Put(k3, []byte{3}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// k2 was evicted from memory but must still be on disk.
	if _, ok := s.Get(k2); !ok {
		t.Error("evicted entry lost from disk")
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	s, err := NewStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const keys = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := testKey("conc", fmt.Sprint(i%keys))
				payload := []byte(fmt.Sprintf("value-%d", i%keys))
				if i%2 == 0 {
					if err := s.Put(k, payload); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				} else if got, ok := s.Get(k); ok && !bytes.Equal(got, payload) {
					t.Errorf("worker %d: key %d: got %q, want %q", w, i%keys, got, payload)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore("", 4); err == nil {
		t.Error("empty dir should fail")
	}
	// A file where the directory should be must fail.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(f, 4); err == nil {
		t.Error("dir path occupied by a file should fail")
	}
}

func TestPutOverwrites(t *testing.T) {
	s, err := NewStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("overwrite")
	if err := s.Put(k, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != "new" {
		t.Fatalf("Get = %q, %v; want \"new\", true", got, ok)
	}
}

func TestGetReturnsCallerOwnedCopy(t *testing.T) {
	s, err := NewStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("own")
	if err := s.Put(k, []byte("immutable")); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Get(k)
	a[0] = 'X'
	b, _ := s.Get(k)
	if string(b) != "immutable" {
		t.Error("mutating a Get result corrupted the cached entry")
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	k := testKey("parse", "round", "trip")
	got, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Errorf("ParseKey(%s) = %s", k, got)
	}
	for name, s := range map[string]string{
		"not hex":   "zz" + k.String()[2:],
		"too short": k.String()[:10],
		"too long":  k.String() + "00",
		"empty":     "",
	} {
		if _, err := ParseKey(s); err == nil {
			t.Errorf("%s: ParseKey(%q) accepted a bad key", name, s)
		}
	}
}

// TestConcurrentSameKeyWaiters hammers ONE key with mixed Get/Put from
// many goroutines — the access pattern cmd/simd's coalescing layer
// produces when a burst of identical requests resolves and every waiter
// turns around and reads the same entry. Under -race this pins the
// store's concurrent-waiter semantics: every Get returns either a miss
// or one of the exact payloads some Put wrote, never a torn mix.
func TestConcurrentSameKeyWaiters(t *testing.T) {
	s, err := NewStore(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("one", "hot", "key")
	valid := map[string]bool{}
	for v := 0; v < 4; v++ {
		valid[fmt.Sprintf("payload-%d", v)] = true
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if (w+i)%4 == 0 {
					if err := s.Put(k, []byte(fmt.Sprintf("payload-%d", i%4))); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				} else if got, ok := s.Get(k); ok && !valid[string(got)] {
					t.Errorf("worker %d: torn read %q", w, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, ok := s.Get(k); !ok || !valid[string(got)] {
		t.Errorf("final Get = %q, %v; want a valid payload", got, ok)
	}
}

// FuzzCacheEntry writes arbitrary bytes as an entry file and reads them
// back through a fresh store. Get must never panic, and it may report a
// hit only for a well-formed frame — the bytes writeEntry would produce
// for some payload — and then with exactly that payload. Plain `go test`
// runs the seeds: a valid entry and its truncated, bad-magic and
// bad-checksum variants. Explore further with
//
//	go test ./internal/cache -run '^$' -fuzz FuzzCacheEntry
func FuzzCacheEntry(f *testing.F) {
	s, err := NewStore(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	k := testKey("seed")
	if err := s.Put(k, []byte(`{"Jain":0.97}`)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(k))
	if err != nil {
		f.Fatal(err)
	}
	flip := func(i int) []byte {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x01
		return c
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(entryMagic)+5])
	f.Add(flip(0))                    // bad magic
	f.Add(flip(len(entryMagic)))      // bad checksum
	f.Add(valid[:len(entryMagic)+32]) // empty payload, stale checksum
	f.Add([]byte{})
	header := len(entryMagic) + sha256.Size
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		s, err := NewStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := testKey("fuzz")
		if err := os.WriteFile(s.path(k), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k)
		var wellFormed bool
		if len(raw) >= header {
			payload := raw[header:]
			sum := sha256.Sum256(payload)
			frame := append(append(append([]byte(nil), entryMagic...), sum[:]...), payload...)
			wellFormed = bytes.Equal(raw, frame)
		}
		if ok != wellFormed {
			t.Fatalf("Get ok=%v for a file that is well-formed=%v", ok, wellFormed)
		}
		if ok && !bytes.Equal(got, raw[header:]) {
			t.Fatalf("Get returned %q, want the framed payload %q", got, raw[header:])
		}
	})
}
