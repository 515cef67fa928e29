// Package callgraph builds a conservative static call graph over the
// loader's typed ASTs, the foundation of mnmvet's interprocedural
// analyzers (see internal/analysis/summary for what rides on it).
//
// The graph is package-level and whole-load: one node per function or
// method declared with a body anywhere in the analyzed package set, one
// edge per syntactic reference to a *types.Func. Edges are classified:
//
//   - Call: an ordinary call expression — the callee runs synchronously
//     on the caller's goroutine.
//   - Defer: the call of a defer statement — still the caller's
//     goroutine, but at function exit rather than at the site.
//   - Go: the call of a go statement, any reference made inside a
//     function literal that a go statement launches, or a function value
//     handed to a go'd call — runs on another goroutine, so the caller
//     does not synchronously perform the callee's effects. The go'd
//     call's receiver and other arguments are evaluated on the caller's
//     goroutine and classified as usual.
//   - Ref: a function or method referenced as a value (method values,
//     functions passed as callbacks). The graph cannot see where the
//     value is invoked, so consumers treat Ref like Call — conservative
//     for may-effect analyses.
//
// Function literals have no nodes of their own: their bodies belong to
// the enclosing declared function (a literal is an execution fragment of
// its closure), with the Go classification marking the fragments that
// escape onto other goroutines.
//
// Calls through function-typed variables, interface values with no
// static callee, and reflection are invisible, as in any static graph;
// analyses built on it are "may" analyses over the visible edges.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/loader"
)

// EdgeKind classifies how a function references another.
type EdgeKind int

const (
	// Call is a plain synchronous call.
	Call EdgeKind = iota
	// Defer is a deferred call (synchronous, at function exit).
	Defer
	// Go is a call or reference that runs on a spawned goroutine.
	Go
	// Ref is a function value reference with no visible call site.
	Ref
)

// Edge is one reference from a function body to a resolved function.
type Edge struct {
	// Callee is the referenced function. It may have no Node in the graph
	// (stdlib or any function without analyzed syntax).
	Callee *types.Func
	// Pos locates the reference in the caller.
	Pos token.Pos
	// Kind classifies the reference.
	Kind EdgeKind
}

// Node is one declared function with its outgoing references.
type Node struct {
	// Fn is the function object (methods included).
	Fn *types.Func
	// Decl is the declaration carrying the analyzed body.
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *loader.Package
	// Out lists every resolved outgoing reference, in source order.
	Out []Edge
}

// Graph is the whole-load call graph.
type Graph struct {
	// Nodes maps each declared function to its node.
	Nodes map[*types.Func]*Node
	// byName maps each declared function's full name to its key in Nodes.
	byName map[string]*types.Func
}

// Build constructs the call graph of pkgs.
func Build(pkgs []*loader.Package) *Graph {
	g := &Graph{Nodes: map[*types.Func]*Node{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &Node{Fn: fn, Decl: fd, Pkg: pkg}
				collectEdges(pkg, fd.Body, false, node)
				g.Nodes[fn] = node
			}
		}
	}
	g.byName = make(map[string]*types.Func, len(g.Nodes))
	for fn := range g.Nodes {
		g.byName[fn.FullName()] = fn
	}
	for _, node := range g.Nodes {
		for i := range node.Out {
			node.Out[i].Callee = g.Canonical(node.Out[i].Callee)
		}
	}
	return g
}

// Canonical returns the declaration in Nodes that fn refers to, or fn
// when the load declares none. Each package is type-checked on its own,
// so a callee from another package, or a method of an instantiated
// generic type, is another object with the declaration's full name.
func (g *Graph) Canonical(fn *types.Func) *types.Func {
	if _, ok := g.Nodes[fn]; ok {
		return fn
	}
	if decl, ok := g.byName[fn.Origin().FullName()]; ok {
		return decl
	}
	return fn
}

// collectEdges walks one body fragment, appending resolved references to
// node.Out. inGo marks fragments already known to run on a spawned
// goroutine (everything referenced there is Kind Go).
func collectEdges(pkg *loader.Package, body ast.Node, inGo bool, node *Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The call itself (and, for a go'd literal, its whole body)
			// runs on the new goroutine, as do function values handed to
			// it; the receiver and the other arguments are evaluated here.
			switch fun := ast.Unparen(n.Call.Fun).(type) {
			case *ast.FuncLit:
				collectEdges(pkg, fun.Body, true, node)
			case *ast.SelectorExpr:
				collectEdges(pkg, fun.X, inGo, node)
			}
			if fn := calleeOf(pkg, n.Call); fn != nil {
				node.Out = append(node.Out, Edge{Callee: fn, Pos: n.Call.Pos(), Kind: Go})
			}
			for _, arg := range n.Call.Args {
				collectEdges(pkg, arg, inGo || SpawnedArg(pkg, arg), node)
			}
			return false
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				for _, arg := range n.Call.Args {
					collectEdges(pkg, arg, inGo, node)
				}
				// A deferred literal still runs on this goroutine.
				collectEdges(pkg, lit.Body, inGo, node)
				return false
			}
			if fn := calleeOf(pkg, n.Call); fn != nil {
				kind := Defer
				if inGo {
					kind = Go
				}
				node.Out = append(node.Out, Edge{Callee: fn, Pos: n.Call.Pos(), Kind: kind})
			}
			for _, arg := range n.Call.Args {
				collectEdges(pkg, arg, inGo, node)
			}
			return false
		case *ast.CallExpr:
			if fn := calleeOf(pkg, n); fn != nil {
				kind := Call
				if inGo {
					kind = Go
				}
				node.Out = append(node.Out, Edge{Callee: fn, Pos: n.Pos(), Kind: kind})
				// Arguments may themselves reference functions (callbacks).
				for _, arg := range n.Args {
					collectEdges(pkg, arg, inGo, node)
				}
				return false
			}
			return true
		case *ast.Ident:
			if fn := refFunc(pkg, n); fn != nil {
				node.Out = append(node.Out, Edge{Callee: fn, Pos: n.Pos(), Kind: refKind(inGo)})
			}
			return false
		case *ast.SelectorExpr:
			// A method value or qualified function reference outside call
			// position. Call positions were consumed above, so any selector
			// resolving to a *types.Func here is a value reference.
			if fn := refFunc(pkg, n.Sel); fn != nil {
				node.Out = append(node.Out, Edge{Callee: fn, Pos: n.Pos(), Kind: refKind(inGo)})
				collectEdges(pkg, n.X, inGo, node)
				return false
			}
			return true
		}
		return true
	})
}

// SpawnedArg reports whether arg, an argument of a go'd call, runs on
// the new goroutine rather than on the caller's: a function value does,
// since the spawned call is where it is invoked.
func SpawnedArg(pkg *loader.Package, arg ast.Expr) bool {
	t := pkg.Info.TypeOf(arg)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

func refKind(inGo bool) EdgeKind {
	if inGo {
		return Go
	}
	return Ref
}

// calleeOf resolves the static *types.Func a call invokes, or nil for
// calls of function values, conversions and builtins.
func calleeOf(pkg *loader.Package, call *ast.CallExpr) *types.Func {
	return refFunc(pkg, analysis.CalleeFunc(pkg, call))
}

// refFunc resolves an identifier used as a value to a *types.Func.
func refFunc(pkg *loader.Package, id *ast.Ident) *types.Func {
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// SCCs returns the graph's strongly connected components in reverse
// topological order: every component appears after all components it can
// reach, so a bottom-up propagation (callee facts into callers) visits
// components in slice order. Roots are taken in declaration order, so
// runs are reproducible.
func (g *Graph) SCCs() [][]*Node {
	nodes := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Pkg.ImportPath != nodes[j].Pkg.ImportPath {
			return nodes[i].Pkg.ImportPath < nodes[j].Pkg.ImportPath
		}
		return nodes[i].Decl.Pos() < nodes[j].Decl.Pos()
	})
	return Components(nodes, func(n *Node) []*Node {
		var s []*Node
		for _, e := range n.Out {
			if t, ok := g.Nodes[e.Callee]; ok {
				s = append(s, t)
			}
		}
		return s
	})
}

// Components returns the strongly connected components of the graph
// reachable from roots along succ, in reverse topological order. It is
// Tarjan's algorithm, iterative to survive deep call chains, visiting
// roots and successors in the order given, so equal inputs give equal
// outputs.
func Components[N comparable](roots []N, succ func(N) []N) [][]N {
	index := map[N]int{}
	lowlink := map[N]int{}
	onStack := map[N]bool{}
	var stack []N
	var out [][]N

	type frame struct {
		n    N
		succ []N
		i    int
	}
	var work []frame
	visit := func(n N) {
		index[n], lowlink[n] = len(index), len(index)
		stack = append(stack, n)
		onStack[n] = true
		work = append(work, frame{n: n, succ: succ(n)})
	}
	for _, root := range roots {
		if _, seen := index[root]; seen {
			continue
		}
		visit(root)
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if _, seen := index[w]; !seen {
					visit(w)
				} else if onStack[w] && index[w] < lowlink[f.n] {
					lowlink[f.n] = index[w]
				}
				continue
			}
			// f.n is finished: pop its component if it is a root.
			n := f.n
			if lowlink[n] == index[n] {
				var comp []N
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == n {
						break
					}
				}
				out = append(out, comp)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].n
				if lowlink[n] < lowlink[parent] {
					lowlink[parent] = lowlink[n]
				}
			}
		}
	}
	return out
}
