package wirecodec_test

import (
	"os"
	"strings"
	"testing"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/loader"
	"github.com/mnm-model/mnm/internal/analysis/vettest"
	"github.com/mnm-model/mnm/internal/analysis/wirecodec"
)

func TestWirecodec(t *testing.T) {
	vettest.Run(t, "../testdata/wirecodec", wirecodec.Analyzer)
}

func TestWirecodecMissingFile(t *testing.T) {
	vettest.Run(t, "../testdata/wirecodecmissing", wirecodec.Analyzer)
}

// A manifest whose fingerprints are all current but which predates the
// //mnmwiregen:wireversion stamp must still demand regeneration: the
// codecs were never audited against the current frame header.
func TestWirecodecNoVersionStamp(t *testing.T) {
	vettest.Run(t, "../testdata/wirecodecnostamp", wirecodec.Analyzer)
}

// Every package-local type handed to the wire surface must be listed.
func TestWirecodecUnlistedSends(t *testing.T) {
	vettest.Run(t, "../testdata/wirecodecsends", wirecodec.Analyzer)
}

// The rule is scoped to packages that opt into the wire.go convention;
// a package without one is not its business, whatever it sends.
func TestWirecodecNoWireFile(t *testing.T) {
	vettest.Run(t, "../testdata/wirecodecnowire", wirecodec.Analyzer)
}

// Listed names that are not concrete package-local types are reported at
// the directive, one finding per name. The directive is a line comment,
// which leaves no room for a want comment beside it, so this test reads
// the diagnostics directly.
func TestWirecodecBadDirectiveNames(t *testing.T) {
	pkg, err := loader.LoadDir("../testdata/wirecodecbadname")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../testdata/wirecodecbadname/wire.go")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	bad := map[string]bool{"Nope": false, "strings.Builder": false, "Iface": false, "Alias": false, "Fn": false}
	for _, d := range analysis.CheckAll([]*loader.Package{pkg}, wirecodec.Analyzer) {
		if !strings.Contains(d.Message, "not a concrete") {
			continue
		}
		if at := lines[d.Pos.Line-1]; !strings.HasPrefix(at, "//mnmwiregen:types ") {
			t.Errorf("finding at line %d (%q), want it at the directive: %s", d.Pos.Line, at, d.Message)
		}
		for name := range bad {
			if strings.Contains(d.Message, "lists "+name+",") {
				bad[name] = true
			}
		}
	}
	for name, reported := range bad {
		if !reported {
			t.Errorf("directive entry %s was not reported", name)
		}
	}
}
