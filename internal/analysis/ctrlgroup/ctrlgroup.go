// Package ctrlgroup defines an Analyzer pinning the wire v4 control-plane
// header contract: ack and hello frames are transport-level, not
// group-level, so their constructors must leave Group as group 0 and the
// trace triple (TraceID, SpanID, Lamport) zero. The v4 header carries
// those fields for every frame — [34:38] Group, [38:46] TraceID,
// [46:54] SpanID, [54:62] Lamport — and PR 9's sharding dispatch routes
// on Group before looking at Kind: a control frame stamped with a data
// frame's group would be dispatched into one tenant's mailbox plane, and
// a traced ack would fabricate causal edges the flight recorder then
// merges into nonsense timelines.
//
// The rule is syntactic and scoped to the tcp transport (fixtures opt in
// with //mnmvet:scope ctrlgroup): a composite literal of the frame
// struct whose Kind is frameAck or frameHello must not set
// Group, TraceID, SpanID or Lamport to anything but a constant zero.
package ctrlgroup

import (
	"go/ast"
	"go/constant"
	"go/types"

	"github.com/mnm-model/mnm/internal/analysis"
)

// Analyzer is the ctrlgroup rule.
var Analyzer = &analysis.Analyzer{
	Name:  "ctrlgroup",
	Scope: []string{"internal/transport/tcp"},
	Doc: "ack/hello frame literals must pin group 0 and a zero trace triple " +
		"(Group/TraceID/SpanID/Lamport unset or constant 0) — control frames are " +
		"transport-plane, not tenant-plane, in the wire v4 header",
	Run: run,
}

// ctrlKinds are the control-plane frame kinds, by constant name.
var ctrlKinds = map[string]bool{
	"frameAck":   true,
	"frameHello": true,
}

// pinnedFields must stay zero on control frames.
var pinnedFields = map[string]bool{
	"Group":   true,
	"TraceID": true,
	"SpanID":  true,
	"Lamport": true,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if !isFrameLit(pass, lit) {
				return true
			}
			kind := ctrlKindOf(lit)
			if kind == "" {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !pinnedFields[key.Name] {
					continue
				}
				if isConstZero(pass, kv.Value) {
					continue
				}
				pass.Reportf(kv.Pos(),
					"%s frame sets %s: control frames are transport-plane and must pin group 0 and a zero trace triple (wire v4 header contract)",
					kind, key.Name)
			}
			return true
		})
	}
}

// isFrameLit reports whether lit constructs the wire frame struct: a
// named type called "frame" whose struct carries the v4 header fields
// (Group and TraceID), so an unrelated type that happens to be called
// "frame" in some future package is not captured.
func isFrameLit(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	t := pass.Pkg.Info.TypeOf(lit)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "frame" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var hasGroup, hasTrace bool
	for i := 0; i < st.NumFields(); i++ {
		switch st.Field(i).Name() {
		case "Group":
			hasGroup = true
		case "TraceID":
			hasTrace = true
		}
	}
	return hasGroup && hasTrace
}

// ctrlKindOf returns the control-kind constant name lit's Kind field is
// set to, or "" for data-plane or kindless literals.
func ctrlKindOf(lit *ast.CompositeLit) string {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Kind" {
			continue
		}
		if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok && ctrlKinds[id.Name] {
			return id.Name
		}
	}
	return ""
}

// isConstZero reports whether e evaluates to the integer constant 0.
func isConstZero(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return exact && v == 0
}
