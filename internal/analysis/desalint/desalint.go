// Package desalint assembles the simulator's determinism and hot-path
// analyzers into one suite and runs them over module packages. It is
// the library behind cmd/desalint and the self-test that keeps the
// repository lint-clean.
//
// Scoping: analyzers marked SimOnly (wallclock, globalrand, maporder,
// and the desaflow-based cachekey and sharedstate) apply
// only to the simulation packages — the packages whose code runs inside
// a simulation and therefore must be bit-reproducible — plus the cmd/
// tree, whose CLIs drive simulations and must not smuggle wall-clock
// time or global randomness into them. That includes daemon-shaped
// commands like cmd/simd: serving loops in cmd/ get no exemption, which
// keeps the pressure on to put wall-clock plumbing where it belongs.
// That place is repro/internal/server, deliberately absent from
// SimPackages: it is serving infrastructure that runs *around*
// simulations (drain deadlines, Retry-After hints, connection
// lifetimes), never inside them, so wall-clock time and goroutines are
// legitimate there and reproducibility of what it serves is enforced in
// the sim packages it calls into. The hotpath and timerhandle
// analyzers run module-wide: hotpath only triggers on annotated
// functions, and a *des.Timer is a contract violation wherever it
// appears.
package desalint

import (
	"fmt"
	"strings"

	"repro/internal/analysis/cachekey"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/globalrand"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/sharedstate"
	"repro/internal/analysis/timerhandle"
	"repro/internal/analysis/wallclock"
)

// Analyzers is the full suite in reporting order.
var Analyzers = []*framework.Analyzer{
	wallclock.Analyzer,
	globalrand.Analyzer,
	maporder.Analyzer,
	hotpath.Analyzer,
	timerhandle.Analyzer,
	cachekey.Analyzer,
	sharedstate.Analyzer,
}

// SimPackages lists the import paths (and their subtrees) whose code
// executes inside simulations and is therefore held to the
// reproducibility rules.
var SimPackages = []string{
	"repro/internal/des",
	"repro/internal/phy",
	"repro/internal/mac",
	"repro/internal/traffic",
	"repro/internal/mobility",
	"repro/internal/neighbor",
	"repro/internal/experiments",
	"repro/internal/sim",
	"repro/internal/cache",
	"repro/internal/stats",
	"repro/internal/telemetry",
	"repro/internal/core",
	"repro/cmd",
}

// IsSimPackage reports whether path falls under the simulation subtree.
func IsSimPackage(path string) bool {
	for _, p := range SimPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// knownVerbs are the accepted //desalint: annotation verbs.
var knownVerbs = map[string]bool{
	"commutative": true,
	"hotpath":     true,
	"ignore":      true,
}

// analyzerNames is used to validate the first argument of
// //desalint:ignore.
func analyzerNames() map[string]bool {
	names := map[string]bool{"desalint": true}
	for _, a := range Analyzers {
		names[a.Name] = true
	}
	return names
}

// Run loads the packages matched by patterns (resolved against base,
// e.g. "./...") inside the module rooted at moduleRoot and applies the
// suite. It returns all diagnostics in positional order; a non-nil
// error means loading or typechecking failed, not that violations were
// found.
func Run(moduleRoot, base string, patterns []string) ([]framework.Diagnostic, error) {
	modPath, err := framework.ModulePath(moduleRoot)
	if err != nil {
		return nil, err
	}
	cfg := framework.LoadConfig{ModuleRoot: moduleRoot, ModulePath: modPath}
	loader, err := framework.NewLoader(cfg)
	if err != nil {
		return nil, err
	}
	paths, err := framework.ExpandPatterns(cfg, base, patterns)
	if err != nil {
		return nil, err
	}
	var diags []framework.Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		diags = append(diags, checkAnnotationVerbs(pkg)...)
		for _, a := range Analyzers {
			if a.SimOnly && !IsSimPackage(path) {
				continue
			}
			ds, err := framework.RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			diags = append(diags, ds...)
		}
		// After the whole suite ran, any ignore directive that
		// suppressed nothing is stale and reported itself.
		for _, s := range pkg.UnusedSuppressions() {
			diags = append(diags, framework.Diagnostic{
				Pos:      pkg.Fset.Position(s.Pos),
				Analyzer: "desalint",
				Message:  fmt.Sprintf("unused //desalint:ignore %s suppression: no diagnostic matches this line", s.Analyzer),
			})
		}
	}
	framework.SortDiagnostics(diags)
	return diags, nil
}

// checkAnnotationVerbs reports //desalint: comments with unknown verbs
// (so a typo like //desalint:comutative fails loudly instead of
// silently disabling a suppression) and malformed ignore directives.
func checkAnnotationVerbs(pkg *framework.Package) []framework.Diagnostic {
	names := analyzerNames()
	var diags []framework.Diagnostic
	for _, a := range pkg.AllAnnotations() {
		if !knownVerbs[a.Verb] {
			diags = append(diags, framework.Diagnostic{
				Pos:      pkg.Fset.Position(a.Pos),
				Analyzer: "desalint",
				Message:  fmt.Sprintf("unknown annotation //desalint:%s (known verbs: commutative, hotpath, ignore)", a.Verb),
			})
			continue
		}
		if a.Verb != "ignore" {
			continue
		}
		name, reason, _ := strings.Cut(a.Arg, " ")
		switch {
		case !names[name]:
			diags = append(diags, framework.Diagnostic{
				Pos:      pkg.Fset.Position(a.Pos),
				Analyzer: "desalint",
				Message:  fmt.Sprintf("//desalint:ignore names unknown analyzer %q", name),
			})
		case strings.TrimSpace(reason) == "":
			diags = append(diags, framework.Diagnostic{
				Pos:      pkg.Fset.Position(a.Pos),
				Analyzer: "desalint",
				Message:  fmt.Sprintf("//desalint:ignore %s needs a reason", name),
			})
		}
	}
	return diags
}
