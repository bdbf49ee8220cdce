// desaflow: field-sensitive read/write effect extraction over
// typechecked ASTs. Every analyzer question this layer answers reduces
// to "which locations may this code read or write": cachekey asks
// which Scenario fields a build closure reads, sharedstate which
// captured variables a goroutine writes, and reaching-writes propagates
// write sets over the CFG.
//
// Locations are deliberately coarse where precision would require alias
// analysis: a field write is keyed by named type and field name
// ("repro/internal/mac.Node.backoff"), not by instance, so a write to
// any Node's backoff conflicts with a read of any Node's backoff. For
// the determinism properties desalint enforces this is the sound
// direction — all nodes share one scheduler, so cross-instance
// interference is exactly as dangerous as same-instance.
package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LocKind classifies an abstract memory location.
type LocKind int

const (
	// LocLocal is a function-local variable or parameter (never shared
	// across callbacks; tracked so differential tests can see it).
	LocLocal LocKind = iota
	// LocPkgVar is a package-level variable.
	LocPkgVar
	// LocField is a field of a named type, keyed by type identity, not
	// by instance.
	LocField
)

// Loc is one abstract location. It is comparable and usable as a map
// key.
type Loc struct {
	Kind LocKind
	// Obj is the variable for LocLocal/LocPkgVar.
	Obj types.Object
	// Type is the qualified named type ("importpath.Name") and Field the
	// field name, for LocField.
	Type  string
	Field string
}

// Shared reports whether the location can be observed outside the
// function that touches it: package variables and named-type fields
// are shared, locals are not.
func (l Loc) Shared() bool { return l.Kind != LocLocal }

func (l Loc) String() string {
	switch l.Kind {
	case LocField:
		return l.Type + "." + l.Field
	case LocPkgVar:
		if l.Obj.Pkg() != nil {
			return l.Obj.Pkg().Path() + "." + l.Obj.Name()
		}
		return l.Obj.Name()
	default:
		return l.Obj.Name()
	}
}

// Effects is the may-read/may-write summary of a code region. Position
// maps keep the first occurrence so diagnostics can point somewhere
// concrete.
type Effects struct {
	Reads   map[Loc]token.Pos
	Writes  map[Loc]token.Pos
	Callees map[*types.Func]token.Pos // same-package functions called directly
	// Opaque is set when the region calls through a function value or
	// writes through a pointer whose target cannot be named — the
	// summary is then a lower bound.
	Opaque bool
}

// NewEffects returns an empty effect summary.
func NewEffects() *Effects {
	return &Effects{
		Reads:   make(map[Loc]token.Pos),
		Writes:  make(map[Loc]token.Pos),
		Callees: make(map[*types.Func]token.Pos),
	}
}

func addLoc(m map[Loc]token.Pos, l Loc, pos token.Pos) {
	if _, ok := m[l]; !ok {
		m[l] = pos
	}
}

// MergeShared folds other's shared reads and writes (and its opacity)
// into e. Local locations stay local to their own function and are
// dropped; this is the call-summary composition rule.
func (e *Effects) MergeShared(other *Effects) {
	for l, pos := range other.Reads {
		if l.Shared() {
			addLoc(e.Reads, l, pos)
		}
	}
	for l, pos := range other.Writes {
		if l.Shared() {
			addLoc(e.Writes, l, pos)
		}
	}
	e.Opaque = e.Opaque || other.Opaque
}

// SortedLocs returns the keys of a location map in deterministic
// (string) order, for stable diagnostics.
func SortedLocs(m map[Loc]token.Pos) []Loc {
	out := make([]Loc, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// EffectsOf computes the effect summary of the whole subtree rooted at
// n (statement bodies included). Function literals are folded in
// conservatively: their effects may happen whenever the value escapes.
func EffectsOf(pkg *Package, n ast.Node) *Effects {
	w := &effector{pkg: pkg, eff: NewEffects()}
	w.node(n)
	return w.eff
}

// NodeEffects computes the effects of one CFG block node. It matches
// the block granularity of BuildCFG: a *ast.RangeStmt node contributes
// its header only (ranged expression read, key/value written), because
// the loop body lives in successor blocks.
func NodeEffects(pkg *Package, n ast.Node) *Effects {
	if r, ok := n.(*ast.RangeStmt); ok {
		w := &effector{pkg: pkg, eff: NewEffects()}
		w.rangeHeader(r)
		return w.eff
	}
	return EffectsOf(pkg, n)
}

// Summaries computes (and caches on pkg) the direct effect summary of
// every function and method declared in the package.
func Summaries(pkg *Package) map[*types.Func]*Effects {
	if pkg.summaries != nil {
		return pkg.summaries
	}
	out := make(map[*types.Func]*Effects)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out[fn] = EffectsOf(pkg, fd.Body)
		}
	}
	pkg.summaries = out
	return out
}

// SummarizedEffects returns fn's direct effects extended with one level
// of same-package call summaries: the shared reads and writes of every
// function fn calls directly. One level is the documented contract
// (DESIGN.md §13) — deep transitive closure is not attempted.
func SummarizedEffects(pkg *Package, fn *types.Func) *Effects {
	sums := Summaries(pkg)
	direct := sums[fn]
	if direct == nil {
		return NewEffects()
	}
	eff := NewEffects()
	eff.MergeShared(direct)
	for l, pos := range direct.Reads {
		if !l.Shared() {
			addLoc(eff.Reads, l, pos)
		}
	}
	for l, pos := range direct.Writes {
		if !l.Shared() {
			addLoc(eff.Writes, l, pos)
		}
	}
	for callee := range direct.Callees {
		if cs := sums[callee]; cs != nil && callee != fn {
			eff.MergeShared(cs)
		}
	}
	return eff
}

// BlockWrites is the reaching-writes state of one CFG block.
type BlockWrites struct {
	// In holds every location some predecessor path may have written
	// before this block runs; Out adds the block's own writes.
	In, Out map[Loc]token.Pos
}

// ReachingWrites runs a forward may-analysis over the CFG: a write
// reaches a block if any path from the entry passes a write to that
// location. There is no kill set — for determinism checking, "was ever
// written on some path" is the question, not "which write wins".
func ReachingWrites(pkg *Package, cfg *CFG) map[*CFGBlock]*BlockWrites {
	state := make(map[*CFGBlock]*BlockWrites, len(cfg.Blocks))
	gen := make(map[*CFGBlock]map[Loc]token.Pos, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		state[b] = &BlockWrites{In: make(map[Loc]token.Pos), Out: make(map[Loc]token.Pos)}
		g := make(map[Loc]token.Pos)
		for _, n := range b.Nodes {
			for l, pos := range NodeEffects(pkg, n).Writes {
				addLoc(g, l, pos)
			}
		}
		gen[b] = g
	}
	work := make([]*CFGBlock, len(cfg.Blocks))
	copy(work, cfg.Blocks)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		st := state[b]
		out := st.Out
		changed := false
		for l, pos := range st.In {
			if _, ok := out[l]; !ok {
				out[l] = pos
				changed = true
			}
		}
		for l, pos := range gen[b] {
			if _, ok := out[l]; !ok {
				out[l] = pos
				changed = true
			}
		}
		if !changed && len(out) > 0 {
			// No new facts; successors already saw this Out.
			continue
		}
		for _, s := range b.Succs {
			sin := state[s].In
			grew := false
			for l, pos := range out {
				if _, ok := sin[l]; !ok {
					sin[l] = pos
					grew = true
				}
			}
			if grew {
				work = append(work, s)
			}
		}
	}
	return state
}

// effector walks expressions and statements accumulating effects.
type effector struct {
	pkg *Package
	eff *Effects
}

func (w *effector) rangeHeader(r *ast.RangeStmt) {
	w.expr(r.X, false)
	if r.Key != nil {
		w.expr(r.Key, true)
	}
	if r.Value != nil {
		w.expr(r.Value, true)
	}
}

func (w *effector) node(n ast.Node) {
	switch n := n.(type) {
	case nil:

	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			w.expr(r, false)
		}
		for _, l := range n.Lhs {
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				w.expr(l, false) // op= reads the old value
			}
			w.expr(l, true)
		}

	case *ast.IncDecStmt:
		w.expr(n.X, false)
		w.expr(n.X, true)

	case *ast.SendStmt:
		w.expr(n.Chan, false)
		w.expr(n.Value, false)

	case *ast.ExprStmt:
		w.expr(n.X, false)

	case *ast.GoStmt:
		w.expr(n.Call, false)

	case *ast.DeferStmt:
		w.expr(n.Call, false)

	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.expr(r, false)
		}

	case *ast.DeclStmt:
		w.node(n.Decl)

	case *ast.GenDecl:
		for _, spec := range n.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				w.expr(v, false)
			}
			for _, name := range vs.Names {
				w.expr(name, true)
			}
		}

	case *ast.IfStmt:
		w.node(n.Init)
		w.expr(n.Cond, false)
		w.node(n.Body)
		w.node(n.Else)

	case *ast.ForStmt:
		w.node(n.Init)
		if n.Cond != nil {
			w.expr(n.Cond, false)
		}
		w.node(n.Post)
		w.node(n.Body)

	case *ast.RangeStmt:
		w.rangeHeader(n)
		w.node(n.Body)

	case *ast.SwitchStmt:
		w.node(n.Init)
		if n.Tag != nil {
			w.expr(n.Tag, false)
		}
		w.node(n.Body)

	case *ast.TypeSwitchStmt:
		w.node(n.Init)
		w.node(n.Assign)
		w.node(n.Body)

	case *ast.SelectStmt:
		w.node(n.Body)

	case *ast.CaseClause:
		for _, e := range n.List {
			w.expr(e, false)
		}
		for _, s := range n.Body {
			w.node(s)
		}

	case *ast.CommClause:
		w.node(n.Comm)
		for _, s := range n.Body {
			w.node(s)
		}

	case *ast.BlockStmt:
		for _, s := range n.List {
			w.node(s)
		}

	case *ast.LabeledStmt:
		w.node(n.Stmt)

	case *ast.FuncDecl:
		w.node(n.Body)

	case *ast.BranchStmt, *ast.EmptyStmt:

	case ast.Expr:
		w.expr(n, false)
	}
}

// expr records the effects of evaluating e; write additionally records
// a write to the location e denotes (for assignment targets).
func (w *effector) expr(e ast.Expr, write bool) {
	switch e := e.(type) {
	case nil:

	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		obj := w.pkg.Info.Uses[e]
		if obj == nil {
			obj = w.pkg.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		loc := varLoc(v)
		if write {
			addLoc(w.eff.Writes, loc, e.Pos())
		} else {
			addLoc(w.eff.Reads, loc, e.Pos())
		}

	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[e]; ok {
			w.expr(e.X, false)
			if sel.Kind() == types.FieldVal {
				if loc, ok := fieldLoc(sel); ok {
					if write {
						addLoc(w.eff.Writes, loc, e.Sel.Pos())
					} else {
						addLoc(w.eff.Reads, loc, e.Sel.Pos())
					}
				} else if write {
					// Field of an unnamed type: fold the write into the
					// base expression.
					w.expr(e.X, true)
				}
			}
			return
		}
		// Qualified identifier: pkg.Var, pkg.Func, pkg.Type.
		if v, ok := w.pkg.Info.Uses[e.Sel].(*types.Var); ok {
			loc := varLoc(v)
			if write {
				addLoc(w.eff.Writes, loc, e.Sel.Pos())
			} else {
				addLoc(w.eff.Reads, loc, e.Sel.Pos())
			}
		}

	case *ast.StarExpr:
		w.expr(e.X, false)
		if write {
			// *p = v mutates memory we cannot name.
			w.eff.Opaque = true
		}

	case *ast.IndexExpr:
		w.expr(e.X, write)
		w.expr(e.Index, false)

	case *ast.IndexListExpr:
		w.expr(e.X, write)
		for _, ix := range e.Indices {
			w.expr(ix, false)
		}

	case *ast.SliceExpr:
		w.expr(e.X, write)
		w.expr(e.Low, false)
		w.expr(e.High, false)
		w.expr(e.Max, false)

	case *ast.ParenExpr:
		w.expr(e.X, write)

	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking an address lets the callee mutate the target.
			w.expr(e.X, false)
			w.expr(e.X, true)
			return
		}
		w.expr(e.X, false)

	case *ast.BinaryExpr:
		w.expr(e.X, false)
		w.expr(e.Y, false)

	case *ast.CallExpr:
		w.call(e)

	case *ast.CompositeLit:
		structLit := false
		if tv, ok := w.pkg.Info.Types[e]; ok && tv.Type != nil {
			_, structLit = tv.Type.Underlying().(*types.Struct)
		}
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if !structLit {
					w.expr(kv.Key, false)
				}
				w.expr(kv.Value, false)
				continue
			}
			w.expr(elt, false)
		}

	case *ast.KeyValueExpr:
		w.expr(e.Key, false)
		w.expr(e.Value, false)

	case *ast.TypeAssertExpr:
		w.expr(e.X, false)

	case *ast.FuncLit:
		// The literal's effects may run whenever the value escapes;
		// fold them in at the creation site.
		w.node(e.Body)

	case *ast.BasicLit, *ast.ArrayType, *ast.MapType, *ast.ChanType,
		*ast.StructType, *ast.InterfaceType, *ast.FuncType, *ast.Ellipsis:
	}
}

// call classifies a call expression: conversions are argument reads,
// same-package named functions become call-summary edges, builtins get
// their mutation rules, and calls through function values mark the
// summary opaque.
func (w *effector) call(e *ast.CallExpr) {
	if tv, ok := w.pkg.Info.Types[e.Fun]; ok && tv.IsType() {
		for _, a := range e.Args {
			w.expr(a, false)
		}
		return
	}
	for _, a := range e.Args {
		w.expr(a, false)
	}
	switch fun := ast.Unparen(e.Fun).(type) {
	case *ast.Ident:
		switch obj := w.pkg.Info.Uses[fun].(type) {
		case *types.Func:
			w.callee(obj, e)
		case *types.Builtin:
			w.builtin(obj.Name(), e)
		case *types.Var:
			addLoc(w.eff.Reads, varLoc(obj), fun.Pos())
			w.eff.Opaque = true
		case nil:
			w.eff.Opaque = true
		}
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[fun]; ok {
			w.expr(fun.X, false)
			switch sel.Kind() {
			case types.MethodVal:
				if fn, ok := w.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
					w.callee(fn, e)
				}
			case types.FieldVal:
				// Call through a func-typed field.
				w.expr(fun, false)
				w.eff.Opaque = true
			}
			return
		}
		if fn, ok := w.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			w.callee(fn, e)
			return
		}
		if v, ok := w.pkg.Info.Uses[fun.Sel].(*types.Var); ok {
			addLoc(w.eff.Reads, varLoc(v), fun.Sel.Pos())
			w.eff.Opaque = true
		}
	case *ast.FuncLit:
		w.node(fun.Body)
	default:
		w.expr(e.Fun, false)
		w.eff.Opaque = true
	}
}

// callee records a resolved function call: same-package callees enter
// the summary graph; cross-package callees contribute only their
// argument reads (intra-package analysis does not model foreign
// bodies — writes through pointer arguments are already covered by the
// &x rule at the call site).
func (w *effector) callee(fn *types.Func, e *ast.CallExpr) {
	if fn.Pkg() != nil && w.pkg.Types != nil && fn.Pkg() == w.pkg.Types {
		if _, ok := w.eff.Callees[fn]; !ok {
			w.eff.Callees[fn] = e.Pos()
		}
	}
}

// builtin applies the mutation rules of predeclared functions.
func (w *effector) builtin(name string, e *ast.CallExpr) {
	switch name {
	case "delete":
		if len(e.Args) > 0 {
			w.expr(e.Args[0], true)
		}
	case "copy", "clear":
		if len(e.Args) > 0 {
			w.expr(e.Args[0], true)
		}
	}
}

// varLoc classifies a variable: package-scope variables are LocPkgVar,
// everything else (params, results, locals, captures) is LocLocal.
func varLoc(v *types.Var) Loc {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return Loc{Kind: LocPkgVar, Obj: v}
	}
	return Loc{Kind: LocLocal, Obj: v}
}

// fieldLoc builds the type-qualified field location of a selection, or
// ok=false when the receiver type is not a named type.
func fieldLoc(sel *types.Selection) (Loc, bool) {
	t := sel.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return Loc{}, false
	}
	obj := named.Obj()
	qual := obj.Name()
	if obj.Pkg() != nil {
		qual = obj.Pkg().Path() + "." + obj.Name()
	}
	return Loc{Kind: LocField, Type: qual, Field: sel.Obj().Name()}, true
}
