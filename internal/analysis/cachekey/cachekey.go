// Package cachekey guards the content-addressed result cache against
// silent key incompleteness. The cache key is SHA-256 over
// MarshalScenario's canonical bytes, so any Scenario field that (a) the
// build/run path reads — meaning it can change a Result — but (b) is
// not covered by those bytes — json:"-", unexported, or normalized away
// inside ScenarioKey — would let two behaviorally different scenarios
// collide on one cache entry and serve stale results. FastForward and
// Partition are the deliberate exclusions (validated no-ops the kernel
// never reads); they are named in the ResultInvariant allowlist, and
// the analyzer reports any other excluded-but-read field, as well as
// allowlist entries that no longer correspond to an excluded field.
package cachekey

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the cache-key completeness check.
var Analyzer = &framework.Analyzer{
	Name:    "cachekey",
	Doc:     "every Scenario field the build/run path reads must be covered by the cache key's canonical bytes or named in the result-invariant allowlist",
	SimOnly: true,
	Run:     run,
}

// ResultInvariant allowlists Scenario fields (by JSON path) that are
// excluded from the cache key on purpose because they provably cannot
// change a Result. Deleting an entry whose field is still excluded and
// still read by the build path fails the lint — that is the point.
var ResultInvariant = map[string]string{
	"fastforward": "parsed and validated, never read by the kernel: every backoff countdown is one exact timer (DESIGN.md §12)",
	"partition":   "parsed and validated, never read by the kernel: every run executes on one scheduler (DESIGN.md §14)",
}

// serializationFuncs are the canonical-bytes plumbing itself: their
// reads define the key rather than consume it, so they are not roots.
var serializationFuncs = map[string]bool{
	"ScenarioKey":     true,
	"MarshalScenario": true,
	"WriteScenario":   true,
	"ParseScenario":   true,
	"LoadScenario":    true,
}

// fieldKey identifies a field of a named struct type.
type fieldKey struct {
	typ   string // qualified type, e.g. "repro/internal/sim.Scenario"
	field string
}

// fieldInfo is what the analyzer knows about one spec field.
type fieldInfo struct {
	path     string // JSON path from the Scenario root, e.g. "phy.navOracle"
	pos      token.Pos
	excluded bool
	why      string // why the canonical bytes do not cover it
}

func run(pass *framework.Pass) error {
	pkg := pass.Pkg
	scope := pkg.Types.Scope()
	scenObj, _ := scope.Lookup("Scenario").(*types.TypeName)
	keyObj, _ := scope.Lookup("ScenarioKey").(*types.Func)
	if scenObj == nil || keyObj == nil {
		return nil // not a scenario-owning package
	}
	named, ok := scenObj.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}

	fields := map[fieldKey]*fieldInfo{}
	collectFields(pkg, named, "", fields, map[string]bool{})

	// Fields the key normalizes away before hashing (sc.FastForward =
	// false in ScenarioKey) are not covered by the canonical bytes even
	// though they serialize.
	keyDecl := declOf(pkg, keyObj)
	if keyDecl != nil && keyDecl.Body != nil {
		for loc := range framework.EffectsOf(pkg, keyDecl.Body).Writes {
			if loc.Kind != framework.LocField {
				continue
			}
			if info, ok := fields[fieldKey{loc.Type, loc.Field}]; ok && !info.excluded {
				info.excluded = true
				info.why = "normalized away in ScenarioKey before hashing"
			}
		}
	}

	reads := buildPathReads(pkg)

	var keyPos token.Pos = keyObj.Pos()
	usedAllow := map[string]bool{}
	for _, fk := range sortedFieldKeys(fields) {
		info := fields[fk]
		if !info.excluded {
			continue
		}
		if _, allowed := ResultInvariant[info.path]; allowed {
			usedAllow[info.path] = true
			continue
		}
		if _, read := reads[fk]; !read {
			continue
		}
		pass.Reportf(info.pos,
			"Scenario field %s (json %q) is read by the build/run path but excluded from the cache key (%s); cover it in the canonical bytes or add it to cachekey.ResultInvariant",
			fk.field, info.path, info.why)
	}
	// Stale allowlist entries rot loudly: an entry that matches no
	// excluded field guards nothing.
	var allowNames []string
	for name := range ResultInvariant {
		allowNames = append(allowNames, name)
	}
	sort.Strings(allowNames)
	for _, name := range allowNames {
		if usedAllow[name] {
			continue
		}
		pass.Reportf(keyPos,
			"cachekey.ResultInvariant entry %q matches no Scenario field excluded from the cache key; delete the stale entry", name)
	}
	return nil
}

// collectFields walks the Scenario struct and every same-package named
// struct reachable through its fields, recording each field's JSON path
// and whether the canonical bytes cover it.
func collectFields(pkg *framework.Package, named *types.Named, prefix string, out map[fieldKey]*fieldInfo, visiting map[string]bool) {
	typ := qualify(named)
	if visiting[typ+"|"+prefix] {
		return
	}
	visiting[typ+"|"+prefix] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		jsonName, omitted := jsonFieldName(f, st.Tag(i))
		path := prefix + jsonName
		fk := fieldKey{typ, f.Name()}
		info := out[fk]
		if info == nil {
			info = &fieldInfo{path: path, pos: f.Pos()}
			out[fk] = info
		}
		switch {
		case !f.Exported():
			info.excluded = true
			info.why = "unexported, never serialized"
		case omitted:
			info.excluded = true
			info.why = `tagged json:"-"`
		}
		// Recurse into nested same-package named structs so paths read
		// "phy.navOracle" and nested exclusions are visible.
		ft := f.Type()
		if p, ok := ft.Underlying().(*types.Pointer); ok {
			ft = p.Elem()
		}
		if n, ok := ft.(*types.Named); ok && n.Obj().Pkg() == named.Obj().Pkg() {
			if _, isStruct := n.Underlying().(*types.Struct); isStruct {
				collectFields(pkg, n, path+".", out, visiting)
			}
		}
	}
}

// jsonFieldName resolves the field's encoding/json name; omitted is
// true for json:"-".
func jsonFieldName(f *types.Var, tag string) (name string, omitted bool) {
	jt := reflect.StructTag(tag).Get("json")
	if jt == "-" {
		return f.Name(), true
	}
	base, _, _ := strings.Cut(jt, ",")
	if base == "" {
		return f.Name(), false
	}
	return base, false
}

// buildPathReads computes the union of field reads reachable from the
// build/run roots: every function named Build or Run, plus every
// function taking or receiving a Scenario, minus the serialization
// plumbing. Traversal follows same-package call edges transitively, so
// it reaches the topology generators and traffic sources, which
// GenerateTopology and Build call directly. A call through a function
// value is no edge: a part invoked that way would be read only if it
// took the Scenario itself.
func buildPathReads(pkg *framework.Package) map[fieldKey]token.Pos {
	sums := framework.Summaries(pkg)
	var roots []*types.Func
	for fn := range sums {
		if serializationFuncs[fn.Name()] {
			continue
		}
		if fn.Name() == "Build" || fn.Name() == "Run" || touchesScenario(pkg, fn) {
			roots = append(roots, fn)
		}
	}
	reads := map[fieldKey]token.Pos{}
	seen := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		eff := sums[fn]
		if eff == nil {
			return
		}
		for loc, pos := range eff.Reads {
			if loc.Kind == framework.LocField {
				fk := fieldKey{loc.Type, loc.Field}
				if _, ok := reads[fk]; !ok {
					reads[fk] = pos
				}
			}
		}
		for callee := range eff.Callees {
			if !serializationFuncs[callee.Name()] {
				visit(callee)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return reads
}

// touchesScenario reports whether the function's receiver or any
// parameter mentions the package's Scenario type.
func touchesScenario(pkg *framework.Package, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	check := func(v *types.Var) bool {
		if v == nil {
			return false
		}
		t := v.Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		return ok && n.Obj().Name() == "Scenario" && n.Obj().Pkg() == pkg.Types
	}
	if check(sig.Recv()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if check(sig.Params().At(i)) {
			return true
		}
	}
	return false
}

// declOf finds the AST declaration of a function object.
func declOf(pkg *framework.Package, fn *types.Func) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

func sortedFieldKeys(m map[fieldKey]*fieldInfo) []fieldKey {
	out := make([]fieldKey, 0, len(m))
	for fk := range m {
		out = append(out, fk)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].typ != out[j].typ {
			return out[i].typ < out[j].typ
		}
		return out[i].field < out[j].field
	})
	return out
}

func qualify(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}
