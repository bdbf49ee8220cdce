package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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
	s := openStore(t, t.TempDir(), 4)
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

	s1 := openStore(t, dir, 4)
	if err := s1.Put(k, payload); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 4)
	got, ok := s2.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened store: Get = %q, %v; want payload, true", got, ok)
	}
}

// frame encodes one well-formed frame: magic, key, big-endian payload
// length, SHA-256 of the payload, payload. It is written out here, not
// taken from Put, so the tests also pin the format.
func frame(k Key, payload []byte) []byte {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out := append([]byte(frameMagic), k[:]...)
	out = append(append(out, n[:]...), sum[:]...)
	return append(out, payload...)
}

// openStore opens a store on dir that the test closes when it ends.
func openStore(t testing.TB, dir string, maxMemory int) *Store {
	t.Helper()
	s, err := NewStore(dir, maxMemory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// segFiles lists the segment files in dir.
func segFiles(t testing.TB, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// onlySegment returns the path and bytes of dir's one segment file.
func onlySegment(t testing.TB, dir string) (string, []byte) {
	t.Helper()
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d segment files, want 1: %v", len(segs), segs)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return segs[0], raw
}

// TestCorruptEntryIsMiss damages the last frame of a segment in each way
// a disk or a writer can: the damaged entry must be a miss, and the two
// frames before it must still hit. Each damage is read both by a store
// opened before it, which indexed the intact frame and re-checks it on
// Get, and by one opened after it, which indexes the damaged segment.
func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	kept := []Key{testKey("kept", "0"), testKey("kept", "1")}
	for i, k := range kept {
		if err := s.Put(k, []byte(fmt.Sprintf("kept-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	k := testKey("corrupt")
	payload := []byte("to be damaged")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path, orig := onlySegment(t, dir)
	last := len(orig) - len(frame(k, payload)) // where the damaged frame starts
	if !bytes.Equal(orig[last:], frame(k, payload)) {
		t.Fatal("the last frame is not the one Put wrote")
	}

	mutate := func(f func(c []byte)) func([]byte) []byte {
		return func(b []byte) []byte {
			c := append([]byte(nil), b...)
			f(c)
			return c
		}
	}
	damage := []struct {
		name string
		mut  func([]byte) []byte
		kept bool // the frames before the damaged one survive
	}{
		{"truncated-header", func(b []byte) []byte { return b[:last+len(frameMagic)+3] }, true},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-1] }, true},
		{"flipped-payload-byte", mutate(func(c []byte) { c[len(c)-1] ^= 0xFF }), true},
		{"bad-magic", mutate(func(c []byte) { c[last] ^= 0xFF }), true},
		{"other-key", mutate(func(c []byte) { c[last+len(frameMagic)] ^= 0xFF }), true},
		{"length-past-eof", mutate(func(c []byte) {
			binary.BigEndian.PutUint64(c[last+len(frameMagic)+len(k):], uint64(len(payload)+1))
		}), true},
		{"empty", func([]byte) []byte { return nil }, false},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			before := openStore(t, dir, 4)
			if err := os.WriteFile(path, d.mut(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			after := openStore(t, dir, 4)
			for name, st := range map[string]*Store{"opened before": before, "opened after": after} {
				if _, ok := st.Get(k); ok {
					t.Errorf("store %s the damage: corrupt entry returned a hit; must be a miss", name)
				}
				for i, kk := range kept {
					got, ok := st.Get(kk)
					if d.kept && (!ok || string(got) != fmt.Sprintf("kept-%d", i)) {
						t.Errorf("store %s the damage: frame %d before it: Get = %q, %v; want a hit", name, i, got, ok)
					}
				}
			}
		})
	}
}

func TestLRUEviction(t *testing.T) {
	s := openStore(t, t.TempDir(), 2)
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
	s := openStore(t, t.TempDir(), 8)
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
	dir := t.TempDir()
	s := openStore(t, dir, 4)
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
	// Both frames are on disk; a reopened store takes the later one.
	s.Close()
	got, ok = openStore(t, dir, 4).Get(k)
	if !ok || string(got) != "new" {
		t.Fatalf("after reopen: Get = %q, %v; want \"new\", true", got, ok)
	}
}

func TestGetReturnsCallerOwnedCopy(t *testing.T) {
	s := openStore(t, t.TempDir(), 4)
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
	s := openStore(t, t.TempDir(), 8)
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

// FuzzCacheEntry writes arbitrary bytes as a segment file and reads key
// k back through a fresh store. Get must never panic, and it may report
// a hit only with the payload of a well-formed frame for k somewhere in
// the segment; a segment that is exactly one well-formed frame for k
// must hit. Plain `go test` runs the seeds: a segment of two entries
// that Put wrote and its truncated, bad-magic, bad-checksum, other-key
// and overlong variants. Explore further with
//
//	go test ./internal/cache -run '^$' -fuzz FuzzCacheEntry
func FuzzCacheEntry(f *testing.F) {
	k := testKey("fuzz")
	dir := f.TempDir()
	s, err := NewStore(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(testKey("other"), []byte(`{"Jain":0.5}`)); err != nil {
		f.Fatal(err)
	}
	if err := s.Put(k, []byte(`{"Jain":0.97}`)); err != nil {
		f.Fatal(err)
	}
	s.Close()
	_, valid := onlySegment(f, dir)
	last := len(valid) - len(frame(k, []byte(`{"Jain":0.97}`)))
	flip := func(i int) []byte {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x01
		return c
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:last+len(frameMagic)+5])
	f.Add(flip(last))                                  // bad magic
	f.Add(flip(last + headerSize - 1))                 // bad checksum
	f.Add(flip(last + len(frameMagic)))                // another key
	f.Add(flip(last + len(frameMagic) + len(k)))       // overlong payload length
	f.Add(append(valid[:last:last], frame(k, nil)...)) // empty payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k)
		if ok && !bytes.Contains(raw, frame(k, got)) {
			t.Fatalf("Get returned %q, which no well-formed frame for the key holds", got)
		}
		if single := len(raw) >= headerSize && bytes.Equal(raw, frame(k, raw[headerSize:])); single && !ok {
			t.Fatal("Get missed a segment that is one well-formed frame for the key")
		}
	})
}

// TestStoresOnOneDirectory: two stores on one directory each claim a
// segment of their own, even when their first Puts race; neither sees
// what the other appended, and a store opened afterwards serves both.
func TestStoresOnOneDirectory(t *testing.T) {
	dir := t.TempDir()
	a, b := openStore(t, dir, 4), openStore(t, dir, 4)
	ka, kb := testKey("from", "a"), testKey("from", "b")
	var wg sync.WaitGroup
	for _, w := range []struct {
		s *Store
		k Key
	}{{a, ka}, {b, kb}} {
		wg.Add(1)
		go func(s *Store, k Key) {
			defer wg.Done()
			if err := s.Put(k, k[:]); err != nil {
				t.Error(err)
			}
		}(w.s, w.k)
	}
	wg.Wait()
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Fatalf("%d segment files, want one per store: %v", len(segs), segs)
	}
	if _, ok := a.Get(kb); ok {
		t.Error("a store saw an entry another store appended after it opened")
	}
	c := openStore(t, dir, 4)
	for _, k := range []Key{ka, kb} {
		if got, ok := c.Get(k); !ok || !bytes.Equal(got, k[:]) {
			t.Errorf("third store: Get = %x, %v; want the entry", got, ok)
		}
	}
	if n := c.Stats().Entries; n != 2 {
		t.Errorf("third store indexes %d entries, want 2", n)
	}
}

// TestRepeatPutAppendsNothing: a Put of the bytes the memory layer
// already holds for the key leaves the segment as it was; new bytes for
// the key append a frame.
func TestRepeatPutAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	k := testKey("repeat")
	if err := s.Put(k, []byte("same")); err != nil {
		t.Fatal(err)
	}
	_, first := onlySegment(t, dir)
	if err := s.Put(k, []byte("same")); err != nil {
		t.Fatal(err)
	}
	if _, raw := onlySegment(t, dir); len(raw) != len(first) {
		t.Errorf("identical repeat Put grew the segment from %d to %d bytes", len(first), len(raw))
	}
	if err := s.Put(k, []byte("different")); err != nil {
		t.Fatal(err)
	}
	if _, raw := onlySegment(t, dir); len(raw) != len(first)+len(frame(k, []byte("different"))) {
		t.Errorf("new bytes for the key: segment is %d bytes, want %d", len(raw), len(first)+len(frame(k, []byte("different"))))
	}
}

// TestTornLastFrameLosesOnlyThatEntry: a segment cut inside its last
// frame, as by a crash during a write, costs that entry alone, and a
// later Put of it lands in a new segment that a reopened store reads.
func TestTornLastFrameLosesOnlyThatEntry(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	keys := []Key{testKey("torn", "0"), testKey("torn", "1"), testKey("torn", "2")}
	for _, k := range keys {
		if err := s.Put(k, bytes.Repeat(k[:1], 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path, raw := onlySegment(t, dir)
	if err := os.WriteFile(path, raw[:len(raw)-50], 0o644); err != nil {
		t.Fatal(err)
	}
	r := openStore(t, dir, 4)
	for i, k := range keys {
		if _, ok := r.Get(k); ok != (i < 2) {
			t.Errorf("entry %d: hit = %v, want %v", i, ok, i < 2)
		}
	}
	if err := r.Put(keys[2], bytes.Repeat(keys[2][:1], 100)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	again := openStore(t, dir, 4)
	for i, k := range keys {
		if _, ok := again.Get(k); !ok {
			t.Errorf("after the repair: entry %d missed", i)
		}
	}
}

// TestFailedAppendStartsNewSegment: a write that fails leaves no index
// entry, and the next Put claims a fresh segment rather than appending
// after bytes that may be torn.
func TestFailedAppendStartsNewSegment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	k0, k1, k2 := testKey("fail", "0"), testKey("fail", "1"), testKey("fail", "2")
	if err := s.Put(k0, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.w.Close() // the next write fails
	s.mu.Unlock()
	if err := s.Put(k1, []byte("one")); err == nil {
		t.Fatal("Put to a closed segment file reported success")
	}
	if _, ok := s.Get(k1); ok {
		t.Error("a failed Put left an entry behind")
	}
	if err := s.Put(k2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if segs := segFiles(t, dir); len(segs) != 2 {
		t.Errorf("%d segment files after a failed append, want 2", len(segs))
	}
	s.Close()
	r := openStore(t, dir, 4)
	for _, k := range []Key{k0, k2} {
		if _, ok := r.Get(k); !ok {
			t.Errorf("reopened store missed %s", k)
		}
	}
}

// TestCloseReleasesSegment: Close may be called twice, Put fails after
// it and Get keeps serving; a store that only reads holds no file, so
// 200 rounds of NewStore and Get leave the process's open files as they
// were.
func TestCloseReleasesSegment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	k := testKey("close")
	if err := s.Put(k, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := s.Put(testKey("late"), []byte("x")); err == nil {
		t.Error("Put after Close reported success")
	}
	if got, ok := s.Get(k); !ok || string(got) != "kept" {
		t.Errorf("Get after Close = %q, %v", got, ok)
	}

	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	before := fds()
	for i := 0; i < 200; i++ {
		r, err := NewStore(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Get(k); !ok {
			t.Fatal("fresh store missed the stored entry")
		}
	}
	if after := fds(); after != before {
		t.Errorf("open files went from %d to %d over 200 read-only stores", before, after)
	}
}
