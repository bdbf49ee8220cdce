// Fixture for the hotpath analyzer: allocation sources inside
// //desalint:hotpath functions are flagged; unmarked functions and
// non-allocating constructs are not.
package hotpath

import "fmt"

type node struct {
	buf   []int
	count int
}

type point struct{ x, y int }

//desalint:hotpath
func (n *node) badClosure(x int) func() int {
	return func() int { return x + n.count } // want `closure captures n, x`
}

//desalint:hotpath
func badFmt(err error) {
	_ = fmt.Sprintf("%v", err)      // want `fmt\.Sprintf allocates`
	_ = fmt.Errorf("wrap: %w", err) // want `fmt\.Errorf allocates`
}

//desalint:hotpath
func badLiterals() int {
	m := map[string]int{"a": 1} // want `map literal allocates`
	s := []int{1, 2, 3}         // want `slice literal allocates`
	return m["a"] + s[0]
}

//desalint:hotpath
func badAppend(x int) []int {
	return append([]int{}, x) // want `append onto a fresh slice literal`
}

// goodHot exercises the allowed constructs: appends into reused
// buffers, struct literals (stack-allocated values), and non-capturing
// function literals (static func values).
//
//desalint:hotpath
func goodHot(n *node, x int) point {
	n.buf = append(n.buf, x)
	n.count++
	f := func() int { return 1 }
	return point{x: f(), y: x}
}

// coldPath is unmarked: anything goes.
func coldPath(x int) func() int {
	_ = fmt.Sprintf("%d", x)
	_ = []int{x}
	_ = map[int]int{x: x}
	return func() int { return x }
}

// workspace models the tabulate-once / evaluate-many pattern of the
// memoized analytical engine: coefficient tables filled at construction,
// then a hot evaluation that only indexes into them.
type workspace struct {
	pref []float64
	rate []float64
}

// newWorkspace is cold (construction): allocating the tables here is
// fine and must not be flagged.
func newWorkspace(n int) *workspace {
	w := &workspace{
		pref: make([]float64, n),
		rate: make([]float64, n),
	}
	for i := range w.pref {
		w.pref[i] = float64(i)
	}
	return w
}

// goodEvaluate is the hot half of the workspace pattern: pure reads of
// the prebuilt tables plus scalar arithmetic — allocation-free by
// construction, so nothing may be flagged.
//
//desalint:hotpath
func (w *workspace) goodEvaluate(s float64) float64 {
	var sum float64
	for i, r := range w.rate {
		sum += w.pref[i] * (s + r)
	}
	return sum
}

// badEvaluate rebuilds its table inside the marked hot function —
// exactly the per-call allocation the workspace pattern exists to hoist
// out, so the analyzer must flag it.
//
//desalint:hotpath
func (w *workspace) badEvaluate(s float64) float64 {
	tmp := []float64{s}                          // want `slice literal allocates`
	f := func() float64 { return s + w.rate[0] } // want `closure captures s, w`
	return tmp[0] + f()
}

// goodTabulateInto reuses a caller-owned buffer: append into a slice
// that arrives with capacity is the sanctioned refill idiom.
//
//desalint:hotpath
func (w *workspace) goodTabulateInto(buf []float64) []float64 {
	buf = buf[:0]
	for _, r := range w.rate {
		buf = append(buf, r)
	}
	return buf
}

// countdown models the MAC's one-timer backoff countdown (DESIGN.md
// §12): an interrupted countdown settles its residual in bulk.
type countdown struct {
	backoff int
	start   int
	pending []func()
}

// goodBulkJump is the sanctioned settlement shape: the elapsed slot
// count collapses to integer arithmetic on prerecorded anchors — one
// division, one subtraction, no per-slot work and nothing allocated.
//
//desalint:hotpath
func (c *countdown) goodBulkJump(now, slot int) {
	elapsed := (now - c.start) / slot
	if elapsed > c.backoff {
		elapsed = c.backoff
	}
	c.backoff -= elapsed
}

// badPerSlotLoop replays the skipped stretch slot by slot inside the
// marked jump path, capturing state into a fresh closure per slot —
// exactly the per-event cost the bulk jump exists to eliminate, so the
// analyzer must flag it.
//
//desalint:hotpath
func (c *countdown) badPerSlotLoop(now, slot int) {
	for t := c.start; t < now; t += slot {
		t := t
		c.pending = append(c.pending, func() { // want `closure captures c, t`
			c.backoff--
			_ = t
		})
	}
}

// grid models the incremental spatial index (DESIGN.md §15): radios
// hash into cells, each cell owning a reused bucket of IDs.
type grid struct {
	cells   map[int]int
	buckets [][]int32
}

// goodMigrate is the sanctioned cell-migration shape: swap-remove the
// ID from its source bucket and append it into the destination's
// reused storage — O(moved) work touching two buckets, nothing
// allocated while capacity lasts.
//
//desalint:hotpath
func (g *grid) goodMigrate(id int32, from, to int) {
	b := g.buckets[from]
	for i, v := range b {
		if v == id {
			b[i] = b[len(b)-1]
			g.buckets[from] = b[:len(b)-1]
			break
		}
	}
	g.buckets[to] = append(g.buckets[to], id)
}

// badMigrate rebuilds the whole index for a single move — a fresh cell
// map and fresh bucket storage per call, the O(N) rebuild-per-move the
// incremental path exists to eliminate, so the analyzer must flag it.
//
//desalint:hotpath
func (g *grid) badMigrate(id int32, to int) {
	g.cells = map[int]int{to: 0}         // want `map literal allocates`
	g.buckets[0] = append([]int32{}, id) // want `append onto a fresh slice literal`
}
