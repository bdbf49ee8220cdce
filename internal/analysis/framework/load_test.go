package framework

import (
	"go/ast"
	"path/filepath"
	"testing"
)

// moduleRoot walks up from this package to the directory with go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if isDir(filepath.Join(dir, ".git")) || fileExists(filepath.Join(dir, "go.mod")) {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	fi, err := filepath.Glob(path)
	return err == nil && len(fi) > 0
}

func TestLoadModulePackageWithStdlibDeps(t *testing.T) {
	l, err := NewLoader(LoadConfig{ModuleRoot: moduleRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("repro/internal/phy")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
		t.Fatalf("incomplete package: %+v", pkg)
	}
	// Type information must be populated: find at least one use of a
	// des.Time value (phy computes airtimes).
	var sawUse bool
	for _, obj := range pkg.Info.Uses {
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/des" {
			sawUse = true
			break
		}
	}
	if !sawUse {
		t.Error("no recorded uses of repro/internal/des objects in phy")
	}
}

func TestExpandPatterns(t *testing.T) {
	root := moduleRoot(t)
	cfg := LoadConfig{ModuleRoot: root, ModulePath: "repro"}
	paths, err := ExpandPatterns(cfg, root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"repro/internal/des":                false,
		"repro/internal/phy":                false,
		"repro/cmd/desalint":                false,
		"repro/internal/analysis/framework": false,
	}
	for _, p := range paths {
		if _, ok := want[p]; ok {
			want[p] = true
		}
		if filepath.Base(p) == "testdata" {
			t.Errorf("testdata directory leaked into patterns: %s", p)
		}
	}
	for p, seen := range want {
		if !seen && p != "repro/cmd/desalint" { // cmd/desalint exists later in this PR
			t.Errorf("pattern expansion missed %s", p)
		}
	}
}

func TestAnnotationParsing(t *testing.T) {
	l, err := NewLoader(LoadConfig{ModuleRoot: moduleRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	// The cache's eviction min-scan carries a commutative annotation.
	cachePkg, err := l.Load("repro/internal/cache")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, a := range cachePkg.AllAnnotations() {
		if a.Verb == "commutative" && a.Arg != "" {
			found = true
		}
	}
	if !found {
		t.Error("expected a commutative annotation with a reason in internal/cache")
	}
	pkg, err := l.Load("repro/internal/phy")
	if err != nil {
		t.Fatal(err)
	}
	var hot int
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pkg.HotPath(fd) {
				hot++
			}
		}
	}
	if hot == 0 {
		t.Error("expected hotpath-annotated functions in internal/phy")
	}
}
