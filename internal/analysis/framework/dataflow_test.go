package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// loadFlowfix loads the hand-computed differential fixture package.
func loadFlowfix(t *testing.T) *Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(LoadConfig{ExtraRoots: []string{root}})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("flowfix")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func funcDecl(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd
			}
		}
	}
	t.Fatalf("function %s not found in fixture", name)
	return nil
}

func funcObj(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Info.Defs[funcDecl(t, pkg, name).Name].(*types.Func)
	if !ok {
		t.Fatalf("no *types.Func for %s", name)
	}
	return fn
}

// sharedLocStrings renders the shared locations of a map in sorted
// order (locals are dropped — the differential cases pin the shared
// footprint, which is what the analyzers consume).
func sharedLocStrings(m map[Loc]token.Pos) []string {
	out := []string{}
	for _, l := range SortedLocs(m) {
		if l.Shared() {
			out = append(out, l.String())
		}
	}
	return out
}

func TestDataflowDifferential(t *testing.T) {
	pkg := loadFlowfix(t)

	// Hand-computed shared read/write sets per fixture function. The
	// "+summary" variants use one-level call summaries.
	cases := []struct {
		fn          string
		summarized  bool
		wantReads   []string
		wantWrites  []string
		wantCallees []string
		wantOpaque  bool
	}{
		{
			fn:         "incr",
			wantReads:  []string{"flowfix.box.n", "flowfix.counter"},
			wantWrites: []string{"flowfix.box.n", "flowfix.counter"},
		},
		{
			fn:         "read",
			wantReads:  []string{"flowfix.box.n", "flowfix.counter"},
			wantWrites: []string{},
		},
		{
			fn:          "wrapper",
			wantReads:   []string{},
			wantWrites:  []string{},
			wantCallees: []string{"incr"},
		},
		{
			fn:         "wrapper",
			summarized: true,
			wantReads:  []string{"flowfix.box.n", "flowfix.counter"},
			wantWrites: []string{"flowfix.box.n", "flowfix.counter"},
		},
		{
			fn:         "loop",
			wantReads:  []string{"flowfix.box.n"},
			wantWrites: []string{"flowfix.box.label"},
		},
		{
			fn:         "nested",
			wantReads:  []string{"flowfix.holder.b"},
			wantWrites: []string{"flowfix.box.n"},
		},
		{
			fn:         "register",
			wantReads:  []string{"flowfix.registry"},
			wantWrites: []string{"flowfix.registry"},
		},
		{
			fn:         "branchy",
			wantReads:  []string{},
			wantWrites: []string{"flowfix.box.label", "flowfix.box.n"},
		},
		{
			fn:          "deferred",
			wantReads:   []string{"flowfix.box.label"},
			wantWrites:  []string{},
			wantCallees: []string{"incr"},
		},
		{
			fn:         "deferred",
			summarized: true,
			wantReads:  []string{"flowfix.box.label", "flowfix.box.n", "flowfix.counter"},
			wantWrites: []string{"flowfix.box.n", "flowfix.counter"},
		},
	}
	for _, tc := range cases {
		name := tc.fn
		if tc.summarized {
			name += "+summary"
		}
		t.Run(name, func(t *testing.T) {
			var eff *Effects
			if tc.summarized {
				eff = SummarizedEffects(pkg, funcObj(t, pkg, tc.fn))
			} else {
				eff = EffectsOf(pkg, funcDecl(t, pkg, tc.fn).Body)
			}
			gotReads := sharedLocStrings(eff.Reads)
			gotWrites := sharedLocStrings(eff.Writes)
			if !reflect.DeepEqual(gotReads, tc.wantReads) {
				t.Errorf("reads: got %v want %v", gotReads, tc.wantReads)
			}
			if !reflect.DeepEqual(gotWrites, tc.wantWrites) {
				t.Errorf("writes: got %v want %v", gotWrites, tc.wantWrites)
			}
			if tc.wantCallees != nil {
				var got []string
				for fn := range eff.Callees {
					got = append(got, fn.Name())
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, tc.wantCallees) {
					t.Errorf("callees: got %v want %v", got, tc.wantCallees)
				}
			}
			if eff.Opaque != tc.wantOpaque {
				t.Errorf("opaque: got %v want %v", eff.Opaque, tc.wantOpaque)
			}
		})
	}
}
