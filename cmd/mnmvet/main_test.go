package main

import (
	"os"
	"testing"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/loader"
	"github.com/mnm-model/mnm/internal/analysis/suite"
)

// TestRepoClean is the acceptance criterion made executable: the whole
// module must pass every mnmvet rule. If this fails, either fix the
// flagged code or, for a deliberate exception, add a //mnmvet:allow
// directive with a reason.
func TestRepoClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := loader.ModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages from module root")
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.ImportPath, terr)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, d := range analysis.CheckAll(pkgs, suite.All()...) {
		t.Errorf("mnmvet finding: %s", d)
	}
}

func TestListFlag(t *testing.T) {
	if code := run([]string{"-list"}, os.Stdout, os.Stderr); code != 0 {
		t.Fatalf("mnmvet -list: exit %d, want 0", code)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	if code := run([]string{"-run", "nonesuch"}, os.Stdout, os.Stderr); code != 2 {
		t.Fatalf("mnmvet -run nonesuch: exit %d, want 2", code)
	}
}
