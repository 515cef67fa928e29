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
// into wire_codec.go and stamps a manifest there — a fingerprint comment
// per type describing the wire shape the codec was derived from, plus the
// frame-header version (wire.FrameVersion) it was generated against. In
// any package that has a wire.go, this analyzer holds the three together:
//
//   - every package-local named type passed as an interface-typed argument,
//     in any position, to an interface method named Send, Broadcast, Write
//     or CompareAndSwap (the core.Env and transport.Transport wire
//     surface) is listed. Types from other packages are that package's
//     responsibility (internal/wire has builtin codecs for the basic
//     kinds: int, bool, string, core.ProcID, …);
//   - every listed name is a concrete type declared in the package;
//   - the listed set and the manifest agree name-for-name and
//     fingerprint-for-fingerprint, so a type added, removed or reshaped
//     without re-running the generator is a vet failure rather than a
//     dropped frame or a stale layout;
//   - the manifest's version stamp is current: a header redesign bumps
//     wire.FrameVersion, and every codec file generated before the bump
//     fails vet until mnmwiregen is re-run, so payload codecs can never
//     outlive the frame format they were audited against.
package wirecodec

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/wire"
	"github.com/mnm-model/mnm/internal/wiregen"
)

// Analyzer is the wirecodec rule.
var Analyzer = &analysis.Analyzer{
	Name: "wirecodec",
	Doc: "in packages with a wire.go, every package-local type sent via the " +
		"transport/rt message or register plane must be listed in its " +
		"//mnmwiregen:types directive, and the generated wire_codec.go manifest " +
		"must match that list and the current frame-header version " +
		"(run mnmwiregen to regenerate)",
	Run: run,
}

func run(pass *analysis.Pass) {
	if !wiregen.HasWireFile(pass.Pkg) {
		return
	}
	registered := wiregen.RegisteredTypes(pass.Pkg, pass.Reportf)
	checkSends(pass, registered)
	checkManifest(pass, registered)
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

// checkManifest holds the generated file's manifest to the listed set and
// the current frame-header version.
func checkManifest(pass *analysis.Pass, registered []*types.TypeName) {
	codecFile := wiregen.SourceFile(pass.Pkg, wiregen.FileName)
	if codecFile == nil {
		if len(registered) > 0 {
			pass.Reportf(registered[0].Pos(), "package lists %d wire type(s) but has no %s; run mnmwiregen to generate the binary payload codecs",
				len(registered), wiregen.FileName)
		}
		return
	}
	if len(registered) == 0 {
		pass.Reportf(codecFile.Pos(), "%s exists but the package lists no wire types; run mnmwiregen to remove it", wiregen.FileName)
		return
	}

	// The manifest: a frame-header version stamp plus one fingerprint
	// comment per generated codec.
	manifest := map[string]string{} // type name -> fingerprint
	version, haveVersion := 0, false
	for _, cg := range codecFile.Comments {
		for _, c := range cg.List {
			if name, fp, ok := wiregen.ParseFingerprint(c.Text); ok {
				manifest[name] = fp
			}
			if v, ok := wiregen.ParseWireVersion(c.Text); ok {
				version, haveVersion = v, true
			}
		}
	}
	switch {
	case !haveVersion:
		pass.Reportf(codecFile.Pos(), "%s has no //mnmwiregen:wireversion stamp (generated before frame-header versioning); re-run mnmwiregen",
			wiregen.FileName)
	case version != wire.FrameVersion:
		pass.Reportf(codecFile.Pos(), "%s was generated against frame-header version %d but the wire plane is now version %d; re-run mnmwiregen",
			wiregen.FileName, version, wire.FrameVersion)
	}

	seen := map[string]bool{}
	for _, tn := range registered {
		seen[tn.Name()] = true
		fp, ok := manifest[tn.Name()]
		if !ok {
			pass.Reportf(tn.Pos(), "%s is listed but missing from the %s manifest; re-run mnmwiregen so it gets its codec",
				tn.Name(), wiregen.FileName)
			continue
		}
		if want := wiregen.Fingerprint(tn.Type()); fp != want {
			pass.Reportf(tn.Pos(), "stale codec for %s: manifest fingerprint %q but the type now encodes as %q; re-run mnmwiregen",
				tn.Name(), fp, want)
		}
	}
	var dead []string
	for name := range manifest {
		if !seen[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		pass.Reportf(codecFile.Pos(), "manifest entry for %s is not in this package's //mnmwiregen:types list; re-run mnmwiregen to drop the dead codec", name)
	}
}
