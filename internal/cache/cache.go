// Package cache implements a content-addressed on-disk result store for
// incremental experiment sweeps. Entries are keyed by the SHA-256 of
// their inputs (canonical scenario bytes, engine fingerprint, run
// options), so a cache hit is by construction the result of the exact
// same computation: determinism of the simulation kernel makes the
// stored bytes bit-identical to what a fresh run would produce.
//
// On disk a cache is a directory of append-only segment files. A Store
// creates one segment of its own on its first Put and appends every
// entry to it as one checksum-framed record; NewStore indexes the
// frames of every segment already there, and for a key written more
// than once the later frame wins. Entries that another Store or process
// appends become visible only to a Store opened after they were
// written. The store is corruption-tolerant — a truncated,
// tampered-with or unreadable frame is reported as a miss, never as an
// error. A bounded in-memory LRU layer fronts the disk store; recency
// is tracked with a logical counter, not wall-clock time, keeping the
// package compatible with the repository's determinism lints.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Key is the content address of a cache entry: a SHA-256 digest over the
// entry's full input description.
type Key [sha256.Size]byte

// String returns the hexadecimal form of the key, the form in which
// cmd/simd quotes it (X-Scenario-Key, GET /v1/runs/{key}).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hexadecimal form back into a Key. It is the
// inverse of String, so an externally quoted key (cmd/simd's
// GET /v1/runs/{key} path) resolves to the exact content address it was
// minted from.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("cache: bad key %q: %w", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("cache: bad key %q: got %d hex bytes, want %d", s, len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// KeyBuilder accumulates the input components of a content address.
// Components are length-prefixed before hashing so that concatenation
// ambiguity cannot alias two distinct input sets to one key.
type KeyBuilder struct {
	h hash.Hash
}

// NewKeyBuilder returns an empty builder.
func NewKeyBuilder() *KeyBuilder {
	return &KeyBuilder{h: sha256.New()}
}

// Write adds one labeled component. The label separates the key's
// namespaces (e.g. "scenario", "engine", "options").
func (b *KeyBuilder) Write(label string, data []byte) *KeyBuilder {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(label)))
	b.h.Write(n[:])
	io.WriteString(b.h, label)
	binary.BigEndian.PutUint64(n[:], uint64(len(data)))
	b.h.Write(n[:])
	b.h.Write(data)
	return b
}

// Key finalizes the digest.
func (b *KeyBuilder) Key() Key {
	var k Key
	copy(k[:], b.h.Sum(nil))
	return k
}

// Stats are a snapshot of one Store: monotonic operation counters and
// the number of entries it can serve from disk.
type Stats struct {
	Hits      uint64 // Get found a valid entry (memory or disk)
	Misses    uint64 // Get found nothing, or only a corrupt entry
	Evictions uint64 // memory-layer entries displaced by the LRU bound
	Entries   int    // distinct keys indexed on disk
}

// A frame is one entry in a segment: frameMagic, the key, the payload
// length as a big-endian uint64, the SHA-256 of the payload, then the
// payload. A reader checks all four before returning bytes, so torn or
// tampered frames surface as misses.
const (
	frameMagic = "DACSEG1\n"
	headerSize = 8 + sha256.Size + 8 + sha256.Size // magic, key, length, checksum
	segSuffix  = ".seg"
)

// DefaultMemoryEntries is the LRU bound used when NewStore is given a
// non-positive limit.
const DefaultMemoryEntries = 256

// errClosed is Put's answer after Close.
var errClosed = errors.New("cache: store closed")

// Store is a content-addressed cache: a directory of segment files
// fronted by a bounded in-memory LRU map. The zero value is not usable;
// construct with NewStore and release with Close. All methods are safe
// for concurrent use.
type Store struct {
	dir string

	mu     sync.Mutex
	mem    map[Key]*memEntry
	maxMem int
	tick   uint64 // logical clock for LRU recency (no wall time)
	hits   uint64
	misses uint64
	evicts uint64

	index map[Key]loc // the latest frame of every key on disk
	paths []string    // segment files, by loc.seg
	next  uint64      // first segment number the next claim tries
	w     *os.File    // the segment Put appends to; nil until the first Put
	wSeg  int         // w's index in paths
	wEnd  int64       // w's size: where the next frame goes
	done  bool        // Close was called
}

type memEntry struct {
	data []byte
	last uint64 // tick of most recent touch
}

// loc places a frame: segment paths[seg], starting at byte off, with an n-byte
// payload.
type loc struct {
	seg int
	off int64
	n   int64
}

// NewStore opens (creating if needed) the cache directory dir and
// indexes the segments in it. maxMemory bounds the in-memory entry
// count; non-positive selects DefaultMemoryEntries. A Store that never
// Puts holds no open file.
func NewStore(dir string, maxMemory int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: create dir: %w", err)
	}
	if maxMemory <= 0 {
		maxMemory = DefaultMemoryEntries
	}
	nums, err := segments(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		mem:    make(map[Key]*memEntry, maxMemory),
		maxMem: maxMemory,
		index:  make(map[Key]loc),
		next:   1,
	}
	for _, n := range nums {
		s.scan(n)
	}
	if len(nums) > 0 {
		s.next = nums[len(nums)-1] + 1
	}
	return s, nil
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

// segName is the file name of segment n.
func segName(n uint64) string { return fmt.Sprintf("%08d%s", n, segSuffix) }

// segments returns the numbers of the segment files in dir, ascending.
// Any other file name is ignored.
func segments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: list dir: %w", err)
	}
	var nums []uint64
	for _, e := range ents {
		digits, ok := strings.CutSuffix(e.Name(), segSuffix)
		if !ok || e.IsDir() {
			continue
		}
		if n, err := strconv.ParseUint(digits, 10, 64); err == nil && segName(n) == e.Name() {
			nums = append(nums, n)
		}
	}
	slices.Sort(nums)
	return nums, nil
}

// scan indexes segment n from its frame headers alone, one read per
// frame, in file order so that a later frame for a key replaces an
// earlier one. It stops at the first header that is short, lacks the
// magic or claims a payload past the end of the file, since no frame
// after it can be located; an unreadable segment indexes nothing.
func (s *Store) scan(n uint64) {
	path := filepath.Join(s.dir, segName(n))
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return
	}
	seg := len(s.paths)
	s.paths = append(s.paths, path)
	var h [headerSize]byte
	for off, end := int64(0), info.Size()-headerSize; off <= end; {
		if _, err := f.ReadAt(h[:], off); err != nil {
			return
		}
		k, size, ok := parseHeader(h[:])
		if !ok || size > uint64(end-off) {
			return
		}
		s.index[k] = loc{seg: seg, off: off, n: int64(size)}
		off += headerSize + int64(size)
	}
}

// parseHeader reads a frame header's key and payload length; ok is
// false when the magic is missing.
func parseHeader(h []byte) (k Key, size uint64, ok bool) {
	if string(h[:len(frameMagic)]) != frameMagic {
		return k, 0, false
	}
	rest := h[len(frameMagic):]
	copy(k[:], rest)
	return k, binary.BigEndian.Uint64(rest[len(k):]), true
}

// Get returns the payload stored under k and whether it was found. Any
// form of entry damage — short frame, bad magic, another key, another
// length, checksum mismatch, unreadable segment — is a miss; Get never
// fails. A key the index lacks is a miss without a filesystem call. The
// returned slice is the caller's to keep.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	if e, ok := s.mem[k]; ok {
		s.tick++
		e.last = s.tick
		s.hits++
		out := append([]byte(nil), e.data...)
		s.mu.Unlock()
		return out, true
	}
	l, ok := s.index[k]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	path := s.paths[l.seg]
	s.mu.Unlock()

	data, ok := readFrame(path, k, l)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.insertLocked(k, data)
	return append([]byte(nil), data...), true
}

// readFrame reads the frame l places with one ReadAt and returns its
// payload if the frame still holds: the magic, key k, the indexed
// length and a payload that matches its checksum. Every failure maps
// to ok=false.
func readFrame(path string, k Key, l loc) ([]byte, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	buf := make([]byte, headerSize+l.n)
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return nil, false
	}
	hk, size, ok := parseHeader(buf)
	if !ok || hk != k || size != uint64(l.n) {
		return nil, false
	}
	payload := buf[headerSize:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], buf[headerSize-sha256.Size:headerSize]) {
		return nil, false
	}
	return payload, true
}

// Put stores payload under k: first as one frame appended to the
// store's segment, then in the memory layer. When the memory layer
// already holds these bytes for k, nothing is written. The payload is
// copied. Put fails after Close.
func (s *Store) Put(k Key, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return errClosed
	}
	if e, ok := s.mem[k]; ok && bytes.Equal(e.data, payload) {
		s.tick++
		e.last = s.tick
		return nil
	}
	data, err := s.appendLocked(k, payload)
	if err != nil {
		return err
	}
	s.insertLocked(k, data)
	return nil
}

// appendLocked writes one frame for k at the end of the store's
// segment, claiming the segment on the first call, indexes it and
// returns the frame's copy of the payload. A failed write drops the
// segment, so a torn frame stays its last and the next Put claims a new
// one. Caller holds s.mu.
func (s *Store) appendLocked(k Key, payload []byte) ([]byte, error) {
	if s.w == nil {
		if err := s.claimLocked(); err != nil {
			return nil, err
		}
	}
	frame := make([]byte, headerSize+len(payload))
	n := copy(frame, frameMagic)
	n += copy(frame[n:], k[:])
	binary.BigEndian.PutUint64(frame[n:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(frame[n+8:], sum[:])
	copy(frame[headerSize:], payload)
	if _, err := s.w.WriteAt(frame, s.wEnd); err != nil {
		s.w.Close()
		s.w = nil
		return nil, fmt.Errorf("cache: append: %w", err)
	}
	s.index[k] = loc{seg: s.wSeg, off: s.wEnd, n: int64(len(payload))}
	s.wEnd += int64(len(frame))
	return frame[headerSize:], nil
}

// claimLocked creates the segment Put appends to, numbered above every
// segment NewStore saw. O_EXCL makes the number the store's own: one
// another store claimed in the meantime fails with fs.ErrExist, and the
// next number is tried. Caller holds s.mu.
func (s *Store) claimLocked() error {
	for {
		path := filepath.Join(s.dir, segName(s.next))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		s.next++
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("cache: create segment: %w", err)
		}
		s.w, s.wSeg, s.wEnd = f, len(s.paths), 0
		s.paths = append(s.paths, path)
		return nil
	}
}

// Close releases the segment the store appends to. Get keeps working;
// Put fails. Calling Close again does nothing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = true
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w = nil
	if err != nil {
		return fmt.Errorf("cache: close segment: %w", err)
	}
	return nil
}

// insertLocked adds (or refreshes) a memory-layer entry, evicting the
// least recently used entry when over the bound. Caller holds s.mu.
func (s *Store) insertLocked(k Key, data []byte) {
	s.tick++
	if e, ok := s.mem[k]; ok {
		e.data = data
		e.last = s.tick
		return
	}
	if len(s.mem) >= s.maxMem {
		var victim Key
		oldest := uint64(0)
		first := true
		for key, e := range s.mem { //desalint:commutative — min-scan; result independent of iteration order
			if first || e.last < oldest {
				victim, oldest, first = key, e.last, false
			}
		}
		delete(s.mem, victim)
		s.evicts++
	}
	s.mem[k] = &memEntry{data: data, last: s.tick}
}

// Stats returns a snapshot of the counters and the on-disk entry count.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Hits: s.hits, Misses: s.misses, Evictions: s.evicts, Entries: len(s.index)}
}
