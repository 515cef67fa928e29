package wiregen_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/loader"
	"github.com/mnm-model/mnm/internal/analysis/wirecodec"
	"github.com/mnm-model/mnm/internal/wiregen"
)

// TestGeneratedUpToDate runs mnmvet's wirecodec rule, which regenerates
// every wire_codec.go in memory and byte-compares it with the checked-in
// file, over the whole module, so `go test ./internal/wiregen` after a
// generator edit names every codec file that needs regenerating. It also
// counts the codec files, so a rule that silently checks nothing fails.
func TestGeneratedUpToDate(t *testing.T) {
	root, err := loader.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.CheckAll(pkgs, wirecodec.Analyzer) {
		t.Error(d)
	}
	generated := 0
	for _, pkg := range pkgs {
		if _, err := os.Stat(filepath.Join(pkg.Dir, wiregen.FileName)); err == nil {
			generated++
		}
	}
	if generated < 7 {
		t.Errorf("found %d generated codec files, want at least 7 (benor hbo leader mutex paxos rsm rt)", generated)
	}
}
