// Package lockorder defines an Analyzer that builds the cross-package
// lock-acquisition graph and flags cycles. Every place a function
// acquires one shared mutex while holding another — directly, or through
// any synchronous call chain (effect summaries see through calls) —
// contributes a held→acquired edge keyed by canonical
// "pkgpath.Type.field" lock names. A cycle in that graph is a deadlock
// waiting for the right interleaving: two goroutines entering the cycle
// from different edges wedge forever, which in this codebase means a
// peer lock and a transport lock freezing the whole mesh rather than one
// connection.
//
// The graph is whole-load but each finding is reported in the package
// whose source contains the offending acquisition, so //mnmvet:allow
// directives land next to the code they justify.
package lockorder

import (
	"fmt"
	"sort"
	"strings"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/callgraph"
	"github.com/mnm-model/mnm/internal/analysis/summary"
)

// Analyzer is the lockorder rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "cross-package lock-acquisition graph must be acyclic: flag every " +
		"acquisition (direct or through calls) that closes a held-while-acquiring cycle",
	Run: run,
}

// cycleSet maps each lock key on a cycle to a printable description of
// the strongly connected component it belongs to.
type cycleSet map[string]string

func run(pass *analysis.Pass) {
	set := summary.Of(pass.Prog)
	cycles := pass.Prog.Fact("lockorder.cycles", func() any {
		return findCycles(set.LockEdges())
	}).(cycleSet)
	if len(cycles) == 0 {
		return
	}
	type site struct {
		pos            int
		held, acquired string
	}
	reported := map[site]bool{}
	for _, e := range set.LockEdges() {
		if e.Pkg != pass.Pkg {
			continue
		}
		// An edge participates in a cycle iff both ends sit in the same
		// cyclic SCC.
		ch, ok1 := cycles[e.Held]
		ca, ok2 := cycles[e.Acquired]
		if !ok1 || !ok2 || ch != ca {
			continue
		}
		s := site{pos: int(e.Pos), held: e.Held, acquired: e.Acquired}
		if reported[s] {
			continue
		}
		reported[s] = true
		if e.Via != nil {
			pass.Reportf(e.Pos, "call to %s acquires %s while %s is held, closing a lock-order cycle (%s)",
				e.Via.Name(), short(e.Acquired), short(e.Held), ch)
		} else {
			pass.Reportf(e.Pos, "acquiring %s while %s is held closes a lock-order cycle (%s)",
				short(e.Acquired), short(e.Held), ch)
		}
	}
}

// findCycles runs SCC over the lock graph and returns the keys of every
// cyclic component (size > 1, or a self-loop).
func findCycles(edges []summary.LockEdge) cycleSet {
	adj := map[string][]string{}
	selfLoop := map[string]bool{}
	for _, e := range edges {
		adj[e.Held] = append(adj[e.Held], e.Acquired)
		selfLoop[e.Held] = selfLoop[e.Held] || e.Held == e.Acquired
	}
	roots := make([]string, 0, len(adj))
	for k, succ := range adj {
		roots = append(roots, k)
		sort.Strings(succ)
	}
	sort.Strings(roots)
	out := cycleSet{}
	for _, comp := range callgraph.Components(roots, func(k string) []string { return adj[k] }) {
		if len(comp) == 1 && !selfLoop[comp[0]] {
			continue
		}
		sort.Strings(comp)
		var shorts []string
		for _, k := range comp {
			shorts = append(shorts, short(k))
		}
		desc := fmt.Sprintf("cycle: %s", strings.Join(shorts, " -> "))
		for _, k := range comp {
			out[k] = desc
		}
	}
	return out
}

// short trims a canonical lock key's package path to its last segment
// for readable messages: ".../transport/tcp.Transport.mu" → "tcp.Transport.mu".
func short(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
