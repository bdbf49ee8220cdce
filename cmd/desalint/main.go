// Command desalint is the repository's determinism and hot-path
// multichecker: it runs the internal/analysis suite (wallclock,
// globalrand, maporder, hotpath, timerhandle, cachekey,
// sharedstate) over module packages and exits non-zero when any
// invariant is violated.
//
// Usage:
//
//	go run ./cmd/desalint ./...
//	go run ./cmd/desalint -json ./internal/phy ./internal/mac
//
// With -json each diagnostic is emitted as one JSON object per line
// ({"file","line","col","verb","message"}) for editor and CI tooling;
// exit codes are unchanged.
//
// Exit codes: 0 clean, 1 diagnostics reported, 2 usage or load error.
// See DESIGN.md, "Determinism invariants & static analysis", for the
// rules and the //desalint: annotation grammar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis/desalint"
)

// jsonDiagnostic is the machine-readable diagnostic shape; "verb" is
// the analyzer name so editor integrations can map it straight onto
// the //desalint:ignore <verb> grammar.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Verb    string `json:"verb"`
	Message string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON object per diagnostic instead of plain text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: desalint [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range desalint.Analyzers {
			scope := "all module packages"
			if a.SimOnly {
				scope = "simulation packages"
			}
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s (%s)\n      %s\n", a.Name, scope, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	diags, err := desalint.Run(root, cwd, patterns)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			if err := enc.Encode(jsonDiagnostic{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Verb:    d.Analyzer,
				Message: d.Message,
			}); err != nil {
				fatal(err)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "desalint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "desalint:", err)
	os.Exit(2)
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
