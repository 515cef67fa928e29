// Package simdeterminism forbids wall-clock and global-randomness
// sources in the deterministic-sim packages.
//
// The simulator's contract (DESIGN.md §4.4) is that a run is a pure
// function of its seed: `mnmbench -experiment all` must emit
// byte-identical output for a fixed seed, and every algorithm package
// must behave identically under the simulator and the real-time host.
// One stray time.Now or global rand.Intn silently voids that — the run
// still passes tests, but reproducibility (and with it the paper's
// per-seed figures) is gone. Randomness must come from the seeded
// per-process source (core.Env.Rand or an explicit rand.New), and time
// from the scheduler's step/tick counters.
package simdeterminism

import (
	"go/ast"
	"go/types"

	"github.com/mnm-model/mnm/internal/analysis"
)

// Analyzer is the simdeterminism rule.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid time.Now/time.After/global math/rand in deterministic-sim packages " +
		"(the per-seed byte-identical invariant behind -experiment all)",
	Scope: []string{
		"internal/sim",
		"internal/sched",
		"internal/benor",
		"internal/hbo",
		"internal/leader",
		"internal/paxos",
		"internal/mutex",
		"internal/rsm",
		"internal/regcons",
		"internal/expt",
	},
	Run: run,
}

// forbiddenTime is the wall-clock/timer surface of package time. Types
// and constants (time.Duration, time.Millisecond) stay allowed: they are
// configuration, not clock reads.
var forbiddenTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Sleep":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// allowedRand is the seedable surface of math/rand: constructing an
// explicit source is exactly what deterministic code should do.
var allowedRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
			if ok {
				check(pass, id, fn)
			}
			return true
		})
	}
}

func check(pass *analysis.Pass, id *ast.Ident, fn *types.Func) {
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		// Methods are fine: rand.Rand methods draw from an explicit
		// seeded source, and time.Duration methods are arithmetic.
		return
	}
	switch pkg.Path() {
	case "time":
		if forbiddenTime[fn.Name()] {
			pass.Reportf(id.Pos(), "time.%s reads the wall clock in a deterministic-sim package; "+
				"derive timing from scheduler steps/ticks", fn.Name())
		}
	case "math/rand":
		if !allowedRand[fn.Name()] {
			pass.Reportf(id.Pos(), "global math/rand.%s draws from process-wide state in a deterministic-sim package; "+
				"use env.Rand() or rand.New(rand.NewSource(seed))", fn.Name())
		}
	}
}
