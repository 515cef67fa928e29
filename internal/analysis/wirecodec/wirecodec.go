// Package wirecodec checks that a package's wire.go type list, the types
// it actually sends, and its generated binary payload codecs agree.
//
// The socket transport (internal/transport/tcp) carries payloads and
// register values as core.Value — a Go interface — through named codecs
// (internal/wire). A value whose concrete type has no codec fails at
// encode time and the frame is dropped (with a counter, but silently for
// the algorithm). That failure mode is invisible under the in-process
// transports, which never serialize — precisely how the leader.State /
// paxos.Block omissions shipped before PR 2 caught them by hand.
//
// The repo's convention is that each algorithm package owns a wire.go
// whose //mnmwiregen:types directive lists every type it sends or stores
// in shared registers; cmd/mnmwiregen generates one codec per listed type
// into wire_codec.go, stamped with the frame-header version
// (wire.FrameVersion) it was generated against. This analyzer holds the
// list, the sends and the generated file together:
//
//   - in a package with a wire.go, every package-local named type passed
//     as an interface-typed argument, in any position, to an interface
//     method named Send, Broadcast, Write or CompareAndSwap (the core.Env
//     and transport.Transport wire surface) is listed. Types from other
//     packages are that package's responsibility (internal/wire has
//     builtin codecs for the basic kinds: int, bool, string, core.ProcID,
//     …);
//   - every listed name is a concrete type declared in the package;
//   - wire_codec.go is exactly what the generator emits for the package
//     today. The rule regenerates it in memory and compares bytes, so a
//     type added, removed or reshaped, a hand-edited codec, a missing or
//     stray file, or a wire.FrameVersion bump without re-running
//     mnmwiregen is a vet failure rather than a dropped frame or a stale
//     layout.
package wirecodec

import (
	"bytes"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strings"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/wiregen"
)

// Analyzer is the wirecodec rule.
var Analyzer = &analysis.Analyzer{
	Name: "wirecodec",
	Doc: "in packages with a wire.go, every package-local type sent via the " +
		"transport/rt message or register plane must be listed in its " +
		"//mnmwiregen:types directive, and wire_codec.go must be exactly what " +
		"mnmwiregen generates from that list (run mnmwiregen to regenerate)",
	Run: run,
}

func run(pass *analysis.Pass) {
	badName := false
	registered := wiregen.RegisteredTypes(pass.Pkg, func(pos token.Pos, format string, args ...any) {
		badName = true
		pass.Reportf(pos, format, args...)
	})
	if wiregen.HasWireFile(pass.Pkg) {
		checkSends(pass, registered)
	}
	// The generator refuses a bad directive name, which is reported
	// above already.
	if !badName {
		checkFresh(pass, registered)
	}
}

// wireUse records the first place a type crossed the wire surface.
type wireUse struct {
	pos token.Pos
	via string // the method carrying it, e.g. "Broadcast"
}

// checkSends reports every package-local type that crosses the wire
// surface without being listed.
func checkSends(pass *analysis.Pass, registered []*types.TypeName) {
	listed := map[*types.TypeName]bool{}
	for _, tn := range registered {
		listed[tn] = true
	}
	needed := map[*types.TypeName]wireUse{}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				collectWireArgs(pass, call, needed)
			}
			return true
		})
	}
	for tn, use := range needed {
		if !listed[tn] {
			pass.Reportf(use.pos, "%s crosses the wire as a core.Value via %s but is not listed in this package's //mnmwiregen:types directive; "+
				"add it to wire.go and run mnmwiregen, or the socket transport will drop it at encode time", tn.Name(), use.via)
		}
	}
}

// wireMethods names the wire-surface methods. Every interface-typed
// parameter of one is a payload position, whatever its place in the
// signature: the payload of transport.Transport.Send is not its last
// parameter, and CompareAndSwap has two.
var wireMethods = map[string]bool{
	"Send":           true,
	"Broadcast":      true,
	"Write":          true,
	"CompareAndSwap": true,
}

// collectWireArgs records package-local named types passed in payload
// position of a wire-surface interface method call.
func collectWireArgs(pass *analysis.Pass, call *ast.CallExpr, needed map[*types.TypeName]wireUse) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !wireMethods[sel.Sel.Name] {
		return
	}
	selection := pass.Pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return
	}
	// Only interface receivers: core.Env and transport.Transport are the
	// wire surface; a concrete Write/Send (hash.Hash.Write, net.Conn) is
	// not a codec boundary.
	if !types.IsInterface(selection.Recv()) {
		return
	}
	sig, ok := selection.Type().(*types.Signature)
	if !ok || sig.Variadic() {
		return
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		// The parameter must be interface-typed: that is where the
		// concrete type has to be looked up in the codec registry.
		if !types.IsInterface(sig.Params().At(i).Type()) {
			continue
		}
		if tn := localNamed(pass, call.Args[i]); tn != nil {
			if _, seen := needed[tn]; !seen {
				needed[tn] = wireUse{pos: call.Args[i].Pos(), via: sel.Sel.Name}
			}
		}
	}
}

// localNamed resolves expr's type to a named, non-interface type defined
// in the package under analysis, or nil.
func localNamed(pass *analysis.Pass, expr ast.Expr) *types.TypeName {
	tv, ok := pass.Pkg.Info.Types[ast.Unparen(expr)]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg() != pass.Pkg.Types {
		return nil
	}
	if types.IsInterface(named) {
		return nil
	}
	return obj
}

// checkFresh regenerates the package's wire_codec.go and compares it
// byte for byte with the file on disk.
func checkFresh(pass *analysis.Pass, registered []*types.TypeName) {
	const regen = "run go run ./cmd/mnmwiregen ./..."
	want, err := wiregen.Generate(pass.Pkg)
	if err != nil {
		pass.Reportf(registered[0].Pos(), "%v", err)
		return
	}
	codec := wiregen.SourceFile(pass.Pkg, wiregen.FileName)
	switch {
	case codec == nil && want != nil:
		pass.Reportf(registered[0].Pos(), "package lists %d wire type(s) but has no %s; %s",
			len(registered), wiregen.FileName, regen)
	case codec != nil && want == nil:
		pass.Reportf(codec.Name.Pos(), "%s exists but the package lists no wire types; delete it", wiregen.FileName)
	case codec != nil:
		file := pass.Pkg.Fset.File(codec.Pos())
		got, err := os.ReadFile(file.Name())
		if err != nil {
			pass.Reportf(codec.Name.Pos(), "%v", err)
			return
		}
		if bytes.Equal(got, want) {
			return
		}
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
			line++
		}
		pass.Reportf(file.LineStart(min(line+1, file.LineCount())), "%s is stale at line %d: have %q, want %q; %s",
			wiregen.FileName, line+1, lineAt(gotLines, line), lineAt(wantLines, line), regen)
	}
}

// lineAt returns lines[i] without its indentation, or "" past the end.
func lineAt(lines []string, i int) string {
	if i >= len(lines) {
		return ""
	}
	return strings.TrimSpace(lines[i])
}
