package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/desalint"
)

func TestFindModuleRoot(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("reported module root %s has no go.mod: %v", root, err)
	}
	if _, err := findModuleRoot(string(filepath.Separator)); err == nil {
		t.Error("expected an error above the filesystem root")
	}
}

func TestSuiteWired(t *testing.T) {
	if len(desalint.Analyzers) != 7 {
		t.Fatalf("multichecker wires %d analyzers, want 7", len(desalint.Analyzers))
	}
	for _, a := range desalint.Analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("incomplete analyzer registration: %+v", a)
		}
	}
}
