// Package sharedstate keeps the goroutines in sim packages race-free:
// today those are sim.Runner's shard pool and cmd/simd's serve
// goroutine, and every write they make to state visible outside the
// goroutine must be machine-detectable. The analyzer flags writes to
// captured or package-level variables inside `go` launches in sim
// packages unless the write is under a held lock (Lock/RLock earlier in
// the same statement sequence, sync.Once.Do callback) or the line
// carries //desalint:ignore sharedstate <reason> (e.g. index-disjoint
// writes into a shared slice, which are safe but not provably so
// intra-procedurally).
package sharedstate

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the goroutine shared-state write check.
var Analyzer = &framework.Analyzer{
	Name:    "sharedstate",
	Doc:     "goroutines in sim packages must not write captured or package-level state without a sync primitive (//desalint:ignore sharedstate <reason> to override)",
	SimOnly: true,
	Run:     run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkLaunch(pass, g)
			return true
		})
	}
	return nil
}

// checkLaunch analyzes one `go` statement.
func checkLaunch(pass *framework.Pass, g *ast.GoStmt) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		w := &walker{pass: pass, lit: fun}
		w.scan(fun.Body.List, 0)
	default:
		// Named function or method: its locals are its own; only
		// package-level writes in its direct summary are shared.
		fn := calledFunc(pass.Pkg, g.Call)
		if fn == nil {
			return
		}
		eff := framework.SummarizedEffects(pass.Pkg, fn)
		for _, loc := range framework.SortedLocs(eff.Writes) {
			if loc.Kind == framework.LocPkgVar {
				pass.Reportf(g.Pos(),
					"goroutine runs %s, which writes package-level variable %s without synchronization visible here; guard the write or annotate //desalint:ignore sharedstate <reason>",
					fn.Name(), loc)
			}
		}
	}
}

func calledFunc(pkg *framework.Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// walker scans a goroutine body in statement order, tracking how many
// locks are held when each write executes.
type walker struct {
	pass *framework.Pass
	lit  *ast.FuncLit
}

// scan walks one statement list with the lock depth held at its entry.
// Lock state acquired inside a nested branch does not leak past the
// branch (a conditional Lock guards nothing after the if).
func (w *walker) scan(stmts []ast.Stmt, locked int) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				switch lockDelta(call) {
				case +1:
					locked++
					continue
				case -1:
					if locked > 0 {
						locked--
					}
					continue
				}
				if body := onceDoBody(w.pass.Pkg, call); body != nil {
					w.scan(body.List, locked+1)
					continue
				}
				w.scanExpr(s.X, locked)
				continue
			}
			w.scanExpr(s.X, locked)

		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				w.scanExpr(rhs, locked)
			}
			for _, lhs := range s.Lhs {
				if s.Tok == token.DEFINE {
					continue
				}
				w.checkWrite(lhs, locked)
			}

		case *ast.IncDecStmt:
			w.checkWrite(s.X, locked)

		case *ast.IfStmt:
			w.scanStmtAsList(s.Init, locked)
			w.scan(s.Body.List, locked)
			if s.Else != nil {
				w.scanStmtAsList(s.Else, locked)
			}

		case *ast.ForStmt:
			w.scanStmtAsList(s.Init, locked)
			w.scanStmtAsList(s.Post, locked)
			w.scan(s.Body.List, locked)

		case *ast.RangeStmt:
			if s.Tok == token.ASSIGN {
				if s.Key != nil {
					w.checkWrite(s.Key, locked)
				}
				if s.Value != nil {
					w.checkWrite(s.Value, locked)
				}
			}
			w.scan(s.Body.List, locked)

		case *ast.BlockStmt:
			w.scan(s.List, locked)

		case *ast.SwitchStmt:
			w.scanStmtAsList(s.Init, locked)
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					w.scan(c.Body, locked)
				}
			}

		case *ast.TypeSwitchStmt:
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					w.scan(c.Body, locked)
				}
			}

		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CommClause); ok {
					w.scan(c.Body, locked)
				}
			}

		case *ast.LabeledStmt:
			w.scanStmtAsList(s.Stmt, locked)

		case *ast.DeferStmt:
			// Deferred Unlock does not end the guarded region; other
			// deferred calls run at exit — treat their writes with the
			// entry lock state.
			if lockDelta(s.Call) == 0 {
				w.scanExpr(s.Call, locked)
			}

		case *ast.GoStmt:
			// A nested goroutine is its own launch; the outer walker
			// stops here (the inspector visits it separately).

		case *ast.ReturnStmt, *ast.BranchStmt, *ast.DeclStmt, *ast.SendStmt, *ast.EmptyStmt:
		}
	}
}

func (w *walker) scanStmtAsList(s ast.Stmt, locked int) {
	if s == nil {
		return
	}
	w.scan([]ast.Stmt{s}, locked)
}

// scanExpr descends into expressions looking for function-literal
// bodies executed (or escaping) inside the goroutine; their writes
// belong to this launch too.
func (w *walker) scanExpr(e ast.Expr, locked int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.scan(lit.Body.List, locked)
			return false
		}
		return true
	})
}

// checkWrite classifies one assignment target by its base variable.
func (w *walker) checkWrite(lhs ast.Expr, locked int) {
	if locked > 0 {
		return
	}
	base, throughPointer := baseIdent(lhs)
	if base == nil {
		return
	}
	obj, ok := identObject(w.pass.Pkg, base).(*types.Var)
	if !ok {
		return
	}
	switch {
	case obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope():
		w.pass.Reportf(lhs.Pos(),
			"goroutine writes package-level variable %s without holding a lock; guard it or annotate //desalint:ignore sharedstate <reason>", obj.Name())
	case obj.Pos() < w.lit.Pos() || obj.Pos() > w.lit.End():
		kind := "captured variable"
		if throughPointer {
			kind = "state behind captured pointer"
		}
		w.pass.Reportf(lhs.Pos(),
			"goroutine writes %s %s without holding a lock; guard it or annotate //desalint:ignore sharedstate <reason>", kind, obj.Name())
	}
}

// baseIdent peels selectors, indexes, derefs and parens down to the
// base identifier of an lvalue; throughPointer is true when the write
// goes through at least one selector/index/deref hop.
func baseIdent(e ast.Expr) (*ast.Ident, bool) {
	hops := 0
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil, false
			}
			return x, hops > 0
		case *ast.SelectorExpr:
			e = x.X
			hops++
		case *ast.IndexExpr:
			e = x.X
			hops++
		case *ast.StarExpr:
			e = x.X
			hops++
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

func identObject(pkg *framework.Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pkg.Info.Defs[id]
}

// lockDelta classifies a call as acquiring (+1) or releasing (-1) a
// lock, by method name — any Lock/RLock/Unlock/RUnlock method counts,
// covering sync.Mutex, sync.RWMutex and sync.Locker values.
func lockDelta(call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return +1
	case "Unlock", "RUnlock":
		return -1
	}
	return 0
}

// onceDoBody returns the function-literal body of a sync.Once.Do call,
// or nil.
func onceDoBody(pkg *framework.Package, call *ast.CallExpr) *ast.BlockStmt {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return nil
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return nil
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "Once" {
		return nil
	}
	if len(call.Args) == 1 {
		if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
			return lit.Body
		}
	}
	return nil
}
