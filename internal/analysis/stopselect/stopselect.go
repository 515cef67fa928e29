// Package stopselect enforces the runtime layer's stop-interruptibility
// convention: in internal/rt and internal/transport*, no goroutine may
// park on a channel operation that a Stop/Close cannot interrupt.
//
// The repo's teardown story (rt.Group.Stop, tcp.Transport.Close) depends
// on every parked goroutine having an exit path: Transport.Call selects
// on t.done, peer.sleep selects on the transport's done channel, and the
// drain path uses a condition variable broadcast on close. One bare
// `<-ch` — or a select whose every case waits on application data — is a
// goroutine leak at shutdown and a hang in `go test`.
//
// The analyzer flags, inside the scoped packages:
//
//   - receive expressions outside a select;
//   - send statements outside a select (a full mailbox blocks forever —
//     sends that are structurally non-blocking belong in a
//     select/default, which also documents the claim);
//   - selects with neither a default case nor an interruption case — a
//     channel whose name says stop/done/quit/closed, a context Done(),
//     or a timer/ticker channel (time-bounded waits count as
//     interruptible).
//
// Intentional exceptions carry //mnmvet:allow stopselect with the reason
// the wait cannot wedge shutdown.
package stopselect

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/mnm-model/mnm/internal/analysis"
)

// Analyzer is the stopselect rule.
var Analyzer = &analysis.Analyzer{
	Name: "stopselect",
	Doc: "in internal/rt and internal/transport*, channel waits must be " +
		"select-based with a stop/done (or timer) case, so Stop/Close can always interrupt them",
	Scope: []string{
		"internal/rt",
		"internal/transport",
		"internal/transport/tcp",
	},
	Run: run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		inSelect := commPositions(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectStmt:
				checkSelect(pass, n)
			case *ast.SendStmt:
				if !inSelect[n.Pos()] {
					pass.Reportf(n.Pos(), "channel send outside select in a stop-interruptible package; "+
						"a full channel parks this goroutine beyond Stop/Close — use select with a done (or default) case")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !inSelect[n.Pos()] {
					pass.Reportf(n.Pos(), "blocking receive outside select in a stop-interruptible package; "+
						"select on the channel and the stop/done channel so Stop/Close can interrupt it")
				}
			}
			return true
		})
	}
}

// commPositions collects the positions of channel operations that appear
// as a select communication clause (those are interruptible by the
// select's other cases and are judged at the select level).
func commPositions(file *ast.File) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				out[comm.Pos()] = true
			case *ast.ExprStmt:
				if recv := recvExpr(comm.X); recv != nil {
					out[recv.Pos()] = true
				}
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					if recv := recvExpr(rhs); recv != nil {
						out[recv.Pos()] = true
					}
				}
			}
		}
		return true
	})
	return out
}

func recvExpr(e ast.Expr) *ast.UnaryExpr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u
	}
	return nil
}

// checkSelect verifies a select has an escape hatch: a default case or
// at least one interruption case.
func checkSelect(pass *analysis.Pass, sel *ast.SelectStmt) {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return // default case: never parks
		}
		if interruptibleComm(pass, cc.Comm) {
			return
		}
	}
	pass.Reportf(sel.Pos(), "select with no stop/done, timer or default case in a stop-interruptible package; "+
		"every parked wait needs an exit path for Stop/Close")
}

// interruptibleComm reports whether one communication clause waits on a
// stop-ish channel: named stop/done/quit/closed, a context Done(), or a
// timer/ticker channel.
func interruptibleComm(pass *analysis.Pass, comm ast.Stmt) bool {
	var ch ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		if recv := recvExpr(c.X); recv != nil {
			ch = recv.X
		}
	case *ast.AssignStmt:
		for _, rhs := range c.Rhs {
			if recv := recvExpr(rhs); recv != nil {
				ch = recv.X
			}
		}
	}
	// Send clauses never count as interruption cases: sending to a
	// "done" channel is signalling, not being signalled.
	if ch == nil {
		return false
	}
	return stopishExpr(pass, ch)
}

var stopNames = []string{"stop", "done", "quit", "closed", "cancel"}

func stopishExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return stopishName(x.Name)
	case *ast.SelectorExpr:
		// timer.C / ticker.C: time-bounded waits are interruptible.
		if x.Sel.Name == "C" && isTimerField(pass, x) {
			return true
		}
		return stopishName(x.Sel.Name) || stopishExpr(pass, x.X)
	case *ast.CallExpr:
		// ctx.Done(), h.stopCh(), time.After(d): judge by the callee name
		// or a timer-typed result.
		if id := analysis.CalleeFunc(pass.Pkg, x); id != nil {
			if stopishName(id.Name) || id.Name == "After" {
				return true
			}
		}
	}
	return false
}

func stopishName(name string) bool {
	lower := strings.ToLower(name)
	for _, s := range stopNames {
		if strings.Contains(lower, s) {
			return true
		}
	}
	return false
}

// isTimerField reports whether sel is the C field of a time.Timer or
// time.Ticker.
func isTimerField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	tv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" &&
		(obj.Name() == "Timer" || obj.Name() == "Ticker")
}
