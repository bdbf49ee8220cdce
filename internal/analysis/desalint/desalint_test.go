package desalint

import (
	"os"
	"path/filepath"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestSuiteInventory pins the analyzer roster: seven analyzers, unique
// names, with the reproducibility trio and the dataflow-backed trio
// scoped to sim packages.
func TestSuiteInventory(t *testing.T) {
	if len(Analyzers) != 7 {
		t.Fatalf("expected 7 analyzers, got %d", len(Analyzers))
	}
	simOnly := map[string]bool{
		"wallclock":   true,
		"globalrand":  true,
		"maporder":    true,
		"hotpath":     false,
		"timerhandle": false,
		"cachekey":    true,
		"sharedstate": true,
	}
	seen := map[string]bool{}
	for _, a := range Analyzers {
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		want, ok := simOnly[a.Name]
		if !ok {
			t.Errorf("unexpected analyzer %q", a.Name)
			continue
		}
		if a.SimOnly != want {
			t.Errorf("%s: SimOnly = %v, want %v", a.Name, a.SimOnly, want)
		}
	}
}

func TestIsSimPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/des":         true,
		"repro/internal/phy":         true,
		"repro/internal/mac":         true,
		"repro/internal/experiments": true,
		"repro/internal/des/sub":     true,
		"repro/internal/plot":        false,
		"repro/internal/analysis":    false,
		"repro/cmd":                  true,
		"repro/cmd/netsim":           true,
		"repro":                      false,
	} {
		if got := IsSimPackage(path); got != want {
			t.Errorf("IsSimPackage(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestRepositoryIsClean is the meta-test required by the suite: the
// repository itself must lint clean, so any future PR introducing a
// wall-clock read, global rand draw, unordered map range, hot-path
// allocation or pointer timer handle fails here (and in CI).
func TestRepositoryIsClean(t *testing.T) {
	root := moduleRoot(t)
	diags, err := Run(root, root, []string{"./..."})
	if err != nil {
		t.Fatalf("desalint failed to run over the repository: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repository is not lint-clean: %s", d)
	}
}

// TestBadModuleIsCaught proves end to end that every analyzer (and the
// annotation-verb check) fires on a module seeded with one violation of
// each kind, and that sim-only analyzers skip non-sim packages.
func TestBadModuleIsCaught(t *testing.T) {
	badRoot, err := filepath.Abs(filepath.Join("testdata", "badmodule"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(badRoot, badRoot, []string{"./..."})
	if err != nil {
		t.Fatalf("desalint failed on bad module: %v", err)
	}
	got := map[string]int{}
	fromTool, fromServed, fromServer := 0, 0, 0
	for _, d := range diags {
		got[d.Analyzer]++
		switch filepath.Base(filepath.Dir(d.Pos.Filename)) {
		case "tool":
			fromTool++
		case "served":
			fromServed++
		case "server":
			fromServer++
		}
	}
	// cmd packages are in scope for the reproducibility rules: the
	// tool's wall-clock read and two global-rand draws must be flagged.
	if fromTool != 3 {
		t.Errorf("cmd/tool: %d diagnostic(s), want 3 (wallclock + 2 globalrand)", fromTool)
	}
	// A daemon-shaped cmd is still a cmd: its wall-clock read is caught
	// exactly once, not excused by looking like serving infrastructure.
	if fromServed != 1 {
		t.Errorf("cmd/served: %d diagnostic(s), want exactly 1 (wallclock)", fromServed)
	}
	// internal/server is outside SimPackages by design — its wall-clock
	// use is daemon plumbing, not simulation code — so nothing fires.
	if fromServer != 0 {
		t.Errorf("internal/server: %d diagnostic(s), want 0 (out of scope)", fromServer)
	}
	want := map[string]int{
		"wallclock":   3, // phy time.Now, cmd/tool time.Now, cmd/served time.Now
		"globalrand":  4, // phy rand.Seed + rand.Int63, cmd/tool rand.Seed + rand.Int
		"maporder":    1, // float accumulation
		"hotpath":     1, // fmt.Sprintf in marked function
		"timerhandle": 1, // *des.Timer package variable
		"desalint":    2, // //desalint:comutative typo, unused ignore suppression
		"cachekey":    1, // Debug json:"-" read by Build
		"sharedstate": 1, // goroutine writes captured total
	}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("analyzer %s: %d diagnostic(s), want %d (all: %v)", a, got[a], n, diags)
		}
	}
}
