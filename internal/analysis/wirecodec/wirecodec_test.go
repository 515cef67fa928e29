package wirecodec_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/loader"
	"github.com/mnm-model/mnm/internal/analysis/vettest"
	"github.com/mnm-model/mnm/internal/analysis/wirecodec"
)

// TestWirecodecStale covers the freshness half of the rule: each fixture
// is the generator's output plus one drift, and must draw exactly one
// finding, in the named file. The codec fixtures are byte-exact apart
// from their drift, which leaves no room for want comments in them; a
// wire.FrameVersion bump moves every fixture's //mnmwiregen:wireversion
// stamp but the old-version fixture's.
func TestWirecodecStale(t *testing.T) {
	for _, tc := range []struct {
		fixture, file, want string
	}{
		// Msg gained a field: the codec stops encoding before it.
		{"wirecodecreshaped", "wire_codec.go", `stale at line 23: have "return b, nil", want "b = wire.AppendBool\(b, bool\(x.Added\)\)"`},
		// A hand edit in a codec body that the type list cannot see.
		{"wirecodecedited", "wire_codec.go", `stale at line 23: have "b = wire.AppendBool\(b, !bool\(x.OK\)\)", want "b = wire.AppendBool\(b, bool\(x.OK\)\)"`},
		// Listed types, no generated file.
		{"wirecodecmissing", "wire.go", `lists 1 wire type\(s\) but has no wire_codec.go`},
		// A codec file in a package that lists no types.
		{"wirecodecstray", "wire_codec.go", `wire_codec.go exists but the package lists no wire types`},
		// Generated against an older frame header.
		{"wirecodecoldversion", "wire_codec.go", `stale at line 14: have "//mnmwiregen:wireversion 3", want "//mnmwiregen:wireversion 5"`},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("../testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			for _, terr := range pkg.TypeErrors {
				t.Fatalf("fixture does not type-check: %v", terr)
			}
			diags := analysis.CheckAll([]*loader.Package{pkg}, wirecodec.Analyzer)
			if len(diags) != 1 {
				t.Fatalf("got %d findings, want 1: %v", len(diags), diags)
			}
			d := diags[0]
			if filepath.Base(d.Pos.Filename) != tc.file || !regexp.MustCompile(tc.want).MatchString(d.Message) {
				t.Errorf("finding %s, want one in %s matching %q", d, tc.file, tc.want)
			}
		})
	}
}

// Every package-local type handed to the wire surface must be listed.
// The fixture's wire_codec.go is current, so the freshness half is silent.
func TestWirecodecUnlistedSends(t *testing.T) {
	vettest.Run(t, "../testdata/wirecodecsends", wirecodec.Analyzer)
}

// The rule is scoped to packages that opt into the wire.go convention;
// a package without one is not its business, whatever it sends.
func TestWirecodecNoWireFile(t *testing.T) {
	vettest.Run(t, "../testdata/wirecodecnowire", wirecodec.Analyzer)
}

// Listed names that are not concrete package-local types are reported at
// the directive, one finding per name, and nothing else: the generator
// refuses the same names, so the freshness check stays silent rather than
// report them twice. The directive is a line comment, which leaves no
// room for a want comment beside it, so this test reads the diagnostics
// directly.
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
			t.Errorf("unexpected finding: %s", d)
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
