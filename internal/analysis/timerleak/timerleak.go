// Package timerleak flags time.After inside loops (and time.Tick
// anywhere), the Transport.Call bug class fixed by hand in PR 4.
//
// Each time.After call allocates a timer that stays live until it fires,
// even after the select that consumed it has moved on. In a loop — a
// retry loop, a polling select — that is one leaked timer per iteration
// for the full timeout; at RPC rates that was tens of thousands of
// outstanding timers in Transport.Call. The fix idiom is a single
// time.NewTimer (or Ticker) with a deferred/explicit Stop, as
// internal/transport/tcp's peer.sleep does.
package timerleak

import (
	"go/ast"
	"go/types"

	"github.com/mnm-model/mnm/internal/analysis"
)

// Analyzer is the timerleak rule.
var Analyzer = &analysis.Analyzer{
	Name: "timerleak",
	Doc: "flag time.After in for/select loops and time.Tick anywhere " +
		"(one leaked timer per iteration; use time.NewTimer/NewTicker with Stop)",
	Run: run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				checkLoopBody(pass, n.Body)
			case *ast.RangeStmt:
				checkLoopBody(pass, n.Body)
			case *ast.CallExpr:
				if isTimeFunc(pass, n, "Tick") {
					pass.Reportf(n.Pos(), "time.Tick's ticker can never be stopped and leaks; use time.NewTicker with defer Stop")
				}
			}
			return true
		})
	}
}

// checkLoopBody flags time.After anywhere in the loop body except inside
// nested function literals (those may escape the iteration) and nested
// loops (reported at their own level, once).
func checkLoopBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.CallExpr:
			if isTimeFunc(pass, n, "After") {
				pass.Reportf(n.Pos(), "time.After in a loop leaks one live timer per iteration until each fires "+
					"(the Transport.Call bug class); hoist a time.NewTimer with Stop out of the loop")
			}
		}
		return true
	})
}

func isTimeFunc(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id := analysis.CalleeFunc(pass.Pkg, call)
	if id == nil {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == name
}
