// Package framework is a minimal reimplementation of the core of
// golang.org/x/tools/go/analysis, built entirely on the standard
// library. The repository pins no external modules (and the build
// environment has no network access), so the desalint analyzers cannot
// depend on x/tools; this package supplies the same shape — an Analyzer
// with a Run(*Pass) function reporting Diagnostics over a typechecked
// package — plus the //desalint: annotation grammar shared by the
// analyzers:
//
//	//desalint:hotpath
//	    In a function's doc comment: the function is on the event hot
//	    path and must stay allocation-free (checked by the hotpath
//	    analyzer).
//	//desalint:commutative <reason>
//	    On (or immediately above) a for-range over a map: the loop body
//	    is order-independent for the stated reason (checked by the
//	    maporder analyzer; a reason is mandatory).
//	//desalint:ignore <analyzer> <reason>
//	    On (or immediately above) a line: suppress that analyzer's
//	    diagnostics on the line for the stated reason. Suppressions
//	    that stop matching anything are themselves reported, so stale
//	    ignores rot loudly.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lower-case, no spaces).
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// SimOnly restricts the analyzer to the simulation packages listed in
	// the desalint suite; the driver applies the restriction, fixture
	// tests run the analyzer unconditionally.
	SimOnly bool
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Diagnostic is one reported violation, in resolved file position form.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// SortDiagnostics orders diagnostics by position, then analyzer, then
// message, so driver output is stable regardless of analyzer-internal
// iteration order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Package is one parsed and typechecked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded as.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	annots    map[*ast.File]map[int]Annotation // line -> annotation, built lazily
	suppr     []*Suppression                   // parsed ignore directives, built lazily
	supprDone bool
	summaries map[*types.Func]*Effects // per-function effect cache (see dataflow.go)
}

// Annotation is one parsed //desalint: comment.
type Annotation struct {
	Verb   string // e.g. "commutative", "hotpath"
	Arg    string // rest of the line, trimmed (the stated reason)
	Pos    token.Pos
	Inline bool // true when the comment trails code on the same line
}

// AnnotationPrefix is the comment marker introducing a desalint
// annotation. Like //go: directives it must follow the slashes with no
// space.
const AnnotationPrefix = "desalint:"

// parseAnnotation extracts a desalint annotation from a single comment,
// or ok=false.
func parseAnnotation(c *ast.Comment) (Annotation, bool) {
	text, found := strings.CutPrefix(c.Text, "//"+AnnotationPrefix)
	if !found {
		return Annotation{}, false
	}
	verb, arg, _ := strings.Cut(text, " ")
	return Annotation{Verb: verb, Arg: strings.TrimSpace(arg), Pos: c.Pos()}, true
}

// annotations returns the file's desalint annotations indexed by line.
func (p *Package) annotations(f *ast.File) map[int]Annotation {
	if p.annots == nil {
		p.annots = make(map[*ast.File]map[int]Annotation)
	}
	if m, ok := p.annots[f]; ok {
		return m
	}
	m := make(map[int]Annotation)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if a, ok := parseAnnotation(c); ok {
				pos := p.Fset.Position(c.Pos())
				a.Inline = pos.Column > 1 && !startsLine(cg, c)
				m[pos.Line] = a
			}
		}
	}
	p.annots[f] = m
	return m
}

// startsLine reports whether c is the first comment of its group (a
// rough proxy for "comment-only line"; only used for bookkeeping).
func startsLine(cg *ast.CommentGroup, c *ast.Comment) bool {
	return len(cg.List) > 0 && cg.List[0] == c
}

// fileOf returns the *ast.File containing pos.
func (p *Package) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// AnnotationAt returns the desalint annotation attached to the
// statement at pos: a trailing comment on the same line, or a comment
// on the line immediately above.
func (p *Package) AnnotationAt(pos token.Pos) (Annotation, bool) {
	f := p.fileOf(pos)
	if f == nil {
		return Annotation{}, false
	}
	m := p.annotations(f)
	line := p.Fset.Position(pos).Line
	if a, ok := m[line]; ok {
		return a, true
	}
	if a, ok := m[line-1]; ok {
		return a, true
	}
	return Annotation{}, false
}

// FuncAnnotation returns the annotation with the given verb from the
// function declaration's doc comment, or ok=false.
func (p *Package) FuncAnnotation(fd *ast.FuncDecl, verb string) (Annotation, bool) {
	if fd.Doc == nil {
		return Annotation{}, false
	}
	for _, c := range fd.Doc.List {
		if a, ok := parseAnnotation(c); ok && a.Verb == verb {
			return a, true
		}
	}
	return Annotation{}, false
}

// HotPath reports whether the function declaration carries a
// //desalint:hotpath line in its doc comment.
func (p *Package) HotPath(fd *ast.FuncDecl) bool {
	_, ok := p.FuncAnnotation(fd, "hotpath")
	return ok
}

// Suppression is one parsed //desalint:ignore directive. It suppresses
// the named analyzer's diagnostics on its own line and the line below
// (mirroring AnnotationAt's same-line-or-line-above rule).
type Suppression struct {
	Analyzer string
	Reason   string
	Pos      token.Pos
	file     string
	line     int
	used     bool
}

// suppressions parses every ignore directive in the package, once.
func (p *Package) suppressions() []*Suppression {
	if p.supprDone {
		return p.suppr
	}
	p.supprDone = true
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a, ok := parseAnnotation(c)
				if !ok || a.Verb != "ignore" {
					continue
				}
				name, reason, _ := strings.Cut(a.Arg, " ")
				pos := p.Fset.Position(c.Pos())
				p.suppr = append(p.suppr, &Suppression{
					Analyzer: name,
					Reason:   strings.TrimSpace(reason),
					Pos:      c.Pos(),
					file:     pos.Filename,
					line:     pos.Line,
				})
			}
		}
	}
	return p.suppr
}

// suppressed reports whether a diagnostic from analyzer at pos is
// covered by an ignore directive, marking the directive used.
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	hit := false
	for _, s := range p.suppressions() {
		if s.Analyzer != analyzer || s.file != pos.Filename {
			continue
		}
		if s.line == pos.Line || s.line == pos.Line-1 {
			s.used = true
			hit = true
		}
	}
	return hit
}

// UnusedSuppressions returns the ignore directives that suppressed
// nothing. Call after every analyzer has run over the package; the
// driver turns these into diagnostics so stale ignores fail the build.
func (p *Package) UnusedSuppressions() []*Suppression {
	var out []*Suppression
	for _, s := range p.suppressions() {
		if !s.used {
			out = append(out, s)
		}
	}
	return out
}

// AllAnnotations returns every desalint annotation in the package (for
// verb validation by the driver).
func (p *Package) AllAnnotations() []Annotation {
	var out []Annotation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if a, ok := parseAnnotation(c); ok {
					out = append(out, a)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Fset returns the package's file set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Info returns the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos, unless a //desalint:ignore
// directive for this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzer executes a single analyzer over a package and returns its
// diagnostics.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{Analyzer: a, Pkg: pkg, report: func(d Diagnostic) { diags = append(diags, d) }}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	SortDiagnostics(diags)
	return diags, nil
}
