// desaflow: intra-procedural control-flow graphs over go/ast. The
// analyzers that reason about *when* an effect happens (sharedstate's
// guard detection, reaching-writes)
// need more than a flat AST walk: they need basic blocks and edges. This
// file builds them without golang.org/x/tools/go/cfg, matching the rest
// of the framework's stdlib-only constraint.
//
// Granularity: blocks hold flat statements and the *components* of
// control statements (an if's init and condition, a for's post, a
// range's header), never a control statement with its body — bodies are
// separate blocks reached by edges. Short-circuit conditions (&&, ||,
// !) are split so the right operand lives in its own, conditionally
// reached block. Deferred calls are recorded in the exit block, where
// they actually run.
package framework

import (
	"go/ast"
	"go/token"
)

// CFGBlock is one basic block: a maximal straight-line node sequence.
type CFGBlock struct {
	// Index is the block's position in CFG.Blocks (block 0 is the entry).
	Index int
	// Nodes are the statements and expressions executed in order. A
	// *ast.RangeStmt node stands for the range HEADER only (the ranged
	// expression and the key/value assignment); its body is a successor
	// block. See NodeEffects.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*CFGBlock
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block; Blocks[0] is the entry.
	Blocks []*CFGBlock
	// Exit is the single synthetic exit block. Deferred calls appear in
	// its node list (they run at function exit regardless of path).
	Exit *CFGBlock
}

// Entry returns the function's entry block.
func (c *CFG) Entry() *CFGBlock { return c.Blocks[0] }

// Reachable returns the set of blocks reachable from the entry.
// Statements after an unconditional return/goto land in unreachable
// island blocks, which dataflow clients may skip.
func (c *CFG) Reachable() map[*CFGBlock]bool {
	seen := make(map[*CFGBlock]bool, len(c.Blocks))
	var visit func(b *CFGBlock)
	visit = func(b *CFGBlock) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(c.Entry())
	return seen
}

// BuildCFG constructs the control-flow graph of a function body. It is
// purely syntactic (no type information needed) and never fails: all
// statement forms are handled, with goto/labeled break/continue resolved
// after the walk.
func BuildCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{}
	b := &cfgBuilder{cfg: c, labels: make(map[string]*CFGBlock)}
	entry := b.newBlock()
	c.Exit = b.newBlock()
	b.cur = entry
	if body != nil {
		b.stmts(body.List)
	}
	b.to(c.Exit)
	for _, g := range b.gotos {
		if t := b.labels[g.label]; t != nil {
			g.from.link(t)
		}
	}
	return c
}

type pendingGoto struct {
	label string
	from  *CFGBlock
}

type labeledTarget struct {
	label string // "" matches the innermost construct
	block *CFGBlock
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *CFGBlock // nil after an unconditional transfer
	breaks []labeledTarget
	conts  []labeledTarget
	falls  []*CFGBlock // fallthrough targets, one per enclosing switch
	labels map[string]*CFGBlock
	gotos  []pendingGoto
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (blk *CFGBlock) link(t *CFGBlock) { blk.Succs = append(blk.Succs, t) }

// add appends a node to the current block, opening an unreachable
// island block if control already transferred away.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// to ends the current block with an edge to t.
func (b *cfgBuilder) to(t *CFGBlock) {
	if b.cur != nil {
		b.cur.link(t)
	}
	b.cur = nil
}

// cond evaluates e for control flow: on true control reaches then, on
// false els. Short-circuit operators split the right operand into its
// own block so its effects are recorded as conditional.
func (b *cfgBuilder) cond(e ast.Expr, then, els *CFGBlock) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		b.cond(e.X, then, els)
		return
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			b.cond(e.X, els, then)
			return
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			rhs := b.newBlock()
			b.cond(e.X, rhs, els)
			b.cur = rhs
			b.cond(e.Y, then, els)
			return
		case token.LOR:
			rhs := b.newBlock()
			b.cond(e.X, then, rhs)
			b.cur = rhs
			b.cond(e.Y, then, els)
			return
		}
	}
	b.add(e)
	b.cur.link(then)
	b.cur.link(els)
	b.cur = nil
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		then, els, done := b.newBlock(), b.newBlock(), b.newBlock()
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmt(s.Body, "")
		b.to(done)
		b.cur = els
		if s.Else != nil {
			b.stmt(s.Else, "")
		}
		b.to(done)
		b.cur = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head, body, post, done := b.newBlock(), b.newBlock(), b.newBlock(), b.newBlock()
		b.to(head)
		b.cur = head
		if s.Cond != nil {
			b.cond(s.Cond, body, done)
		} else {
			b.to(body)
		}
		b.pushLoop(label, done, post)
		b.cur = body
		b.stmt(s.Body, "")
		b.to(post)
		b.popLoop()
		b.cur = post
		if s.Post != nil {
			b.add(s.Post)
		}
		b.to(head)
		b.cur = done

	case *ast.RangeStmt:
		head, body, done := b.newBlock(), b.newBlock(), b.newBlock()
		b.to(head)
		b.cur = head
		b.add(s) // header only; see CFGBlock.Nodes
		b.cur.link(body)
		b.cur.link(done)
		b.cur = nil
		b.pushLoop(label, done, head)
		b.cur = body
		b.stmt(s.Body, "")
		b.to(head)
		b.popLoop()
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, true, func(cc *ast.CaseClause) {
			for _, e := range cc.List {
				b.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, false, func(cc *ast.CaseClause) {})

	case *ast.SelectStmt:
		done := b.newBlock()
		b.pushBreak(label, done)
		head := b.cur
		if head == nil {
			head = b.newBlock()
		}
		b.cur = nil
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			head.link(blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmts(cc.Body)
			b.to(done)
		}
		b.popBreak()
		b.cur = done

	case *ast.ReturnStmt:
		b.add(s)
		b.to(b.cfg.Exit)

	case *ast.BranchStmt:
		name := ""
		if s.Label != nil {
			name = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			b.to(b.target(b.breaks, name))
		case token.CONTINUE:
			b.to(b.target(b.conts, name))
		case token.GOTO:
			if b.cur != nil {
				b.gotos = append(b.gotos, pendingGoto{name, b.cur})
				b.cur = nil
			}
		case token.FALLTHROUGH:
			if n := len(b.falls); n > 0 {
				b.to(b.falls[n-1])
			}
		}

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.to(lb)
		b.labels[s.Label.Name] = lb
		b.cur = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.DeferStmt:
		b.add(s) // argument evaluation happens here
		b.cfg.Exit.Nodes = append(b.cfg.Exit.Nodes, s.Call)

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, IncDec, Expr, Go, Send, Decl, ... — straight-line.
		b.add(s)
	}
}

// caseClauses wires a (type) switch: every clause body is a block
// reached from the dispatch block; with fallthrough allowed, clause i's
// body may also flow into clause i+1's.
func (b *cfgBuilder) caseClauses(list []ast.Stmt, label string, fallthroughOK bool, emitTests func(*ast.CaseClause)) {
	done := b.newBlock()
	b.pushBreak(label, done)
	bodies := make([]*CFGBlock, len(list))
	for i := range list {
		bodies[i] = b.newBlock()
	}
	hasDefault := false
	for i, cl := range list {
		cc := cl.(*ast.CaseClause)
		emitTests(cc)
		if cc.List == nil {
			hasDefault = true
		}
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		b.cur.link(bodies[i])
	}
	if b.cur != nil && !hasDefault {
		b.cur.link(done)
	}
	b.cur = nil
	for i, cl := range list {
		cc := cl.(*ast.CaseClause)
		if fallthroughOK {
			next := done
			if i+1 < len(bodies) {
				next = bodies[i+1]
			}
			b.falls = append(b.falls, next)
		}
		b.cur = bodies[i]
		b.stmts(cc.Body)
		b.to(done)
		if fallthroughOK {
			b.falls = b.falls[:len(b.falls)-1]
		}
	}
	b.popBreak()
	b.cur = done
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *CFGBlock) {
	b.breaks = append(b.breaks, labeledTarget{label, brk})
	b.conts = append(b.conts, labeledTarget{label, cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}

func (b *cfgBuilder) pushBreak(label string, t *CFGBlock) {
	b.breaks = append(b.breaks, labeledTarget{label, t})
}

func (b *cfgBuilder) popBreak() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

// target resolves a break/continue to the innermost (label == "") or
// named enclosing construct. Unresolvable branches (malformed source)
// fall back to the exit block rather than panicking mid-analysis.
func (b *cfgBuilder) target(stack []labeledTarget, label string) *CFGBlock {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return b.cfg.Exit
}
