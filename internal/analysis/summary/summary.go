// Package summary computes per-function effect summaries over the
// callgraph and propagates them bottom-up through SCCs, so analyzers can
// reason across call boundaries: "does calling this function block?",
// "which locks can it acquire?".
//
// # Effects
//
// An Effect is a bitmask of things a function may do on the caller's
// goroutine. Generic effects (Blocks, Observes, Logs, NetIO) are
// recognized from types: channel operations, time.Sleep, WaitGroup.Wait,
// net.* calls, fmt/log printing, metrics Observe calls. File IO is
// deliberately NOT an effect: the durability contract fsyncs the WAL while
// holding peer locks, and that is the invariant, not a bug. (The WAL's
// orderings themselves are not effects either: tcp's journaled/hwSynced
// values and shm's storeLocked make them data dependences.)
//
// # Propagation
//
// Transitive effects are the union of a function's direct effects and
// the transitive effects of everything it calls, defers or references —
// except Go edges: a spawned goroutine's effects are not synchronous
// with the caller, so they do not propagate. Within an SCC every member
// gets the component-wide union, which is the fixpoint.
//
// Lock-order edges are collected the same way: replaying each body's
// lock operations in source order, an acquisition (direct, or anything a
// synchronously-called function may transitively acquire) performed
// while another key is held yields a held→acquired edge for lockorder's
// cycle detection. Keys are canonical "pkgpath.Type.field" strings, so
// edges compare across packages.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/callgraph"
	"github.com/mnm-model/mnm/internal/analysis/loader"
)

// Effect is a bitmask of observable things a function may do.
type Effect uint32

const (
	// Blocks: channel send/receive, select without default, range over a
	// channel, time.Sleep, WaitGroup.Wait. Cond.Wait is excluded — waiting
	// on a condition under its own mutex is the intended use.
	Blocks Effect = 1 << iota
	// Observes: a metrics Observe/ObserveValue call.
	Observes
	// Logs: fmt printing or the log package.
	Logs
	// NetIO: any call into package net (conn reads/writes, dial, listen).
	NetIO
)

// Has reports whether e includes every bit of f.
func (e Effect) Has(f Effect) bool { return e&f == f }

var effectNames = []struct {
	bit  Effect
	name string
}{
	{Blocks, "blocks"},
	{Observes, "observes-metrics"},
	{Logs, "logs"},
	{NetIO, "net-io"},
}

func (e Effect) String() string {
	var parts []string
	for _, en := range effectNames {
		if e&en.bit != 0 {
			parts = append(parts, en.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// LockEdge records that a function may acquire one lock while holding
// another. Via, when non-nil, is the callee the acquisition happens
// through.
type LockEdge struct {
	Held     string
	Acquired string
	Pos      token.Pos
	Pkg      *loader.Package
	Fn       *types.Func
	Via      *types.Func
}

// Set is the whole-load summary: callgraph plus per-function effects,
// lock-acquisition sets and lock-order edges.
type Set struct {
	Graph *callgraph.Graph

	ops       map[*types.Func][]op
	direct    map[*types.Func]Effect
	trans     map[*types.Func]Effect
	acquires  map[*types.Func]map[string]bool
	lockEdges []LockEdge
}

// Of returns the summary set of prog, computed once per Program and
// shared by every pass.
func Of(prog *analysis.Program) *Set {
	return prog.Fact("summary.Set", func() any {
		return Build(prog.Pkgs)
	}).(*Set)
}

// Effects returns fn's transitive synchronous effects (zero for
// functions without analyzed bodies).
func (s *Set) Effects(fn *types.Func) Effect { return s.trans[fn] }

// DirectEffects returns the effects fn's own body performs.
func (s *Set) DirectEffects(fn *types.Func) Effect { return s.direct[fn] }

// LockEdges returns every held→acquired edge in the load.
func (s *Set) LockEdges() []LockEdge { return s.lockEdges }

// --- construction ---

type opKind int

const (
	opLock opKind = iota
	opUnlock
	opDeferUnlock
	opEvent
	opCall
	// opPush/opPop bracket a conditional branch: the lock-region replay
	// saves the held set at opPush and restores it at opPop, so an unlock
	// on an early-return path ("if stopped { mu.Unlock(); return }") does
	// not end the region for the fall-through, and a lock taken inside
	// one branch does not leak into the continuation.
	opPush
	opPop
)

// op is one entry of a function body's linearized operation list.
type op struct {
	pos      token.Pos
	kind     opKind
	key      string // lock ops
	eff      Effect // event ops
	callee   *types.Func
	edgeKind callgraph.EdgeKind
}

// Build computes the summary set of pkgs. Prefer Of, which caches per
// Program; Build is exported for direct unit testing.
func Build(pkgs []*loader.Package) *Set {
	s := &Set{
		Graph:    callgraph.Build(pkgs),
		ops:      map[*types.Func][]op{},
		direct:   map[*types.Func]Effect{},
		trans:    map[*types.Func]Effect{},
		acquires: map[*types.Func]map[string]bool{},
	}

	// Pass 1: linearize every body into ops; record direct effects and
	// direct lock acquisitions.
	for _, node := range s.Graph.Nodes {
		ops := walk(node)
		s.ops[node.Fn] = ops
		var eff Effect
		acq := map[string]bool{}
		for _, o := range ops {
			switch o.kind {
			case opEvent:
				eff |= o.eff
			case opLock:
				acq[o.key] = true
			}
		}
		s.direct[node.Fn] = eff
		s.acquires[node.Fn] = acq
	}

	// Pass 2: propagate bottom-up. SCCs arrive callees-first, so callee
	// fixpoints are final when a component is processed; within a
	// component the union over members is the fixpoint.
	for _, comp := range s.Graph.SCCs() {
		inComp := map[*types.Func]bool{}
		for _, n := range comp {
			inComp[n.Fn] = true
		}
		var eff Effect
		acq := map[string]bool{}
		for _, n := range comp {
			eff |= s.direct[n.Fn]
			for k := range s.acquires[n.Fn] {
				acq[k] = true
			}
			for _, e := range n.Out {
				if e.Kind == callgraph.Go || inComp[e.Callee] {
					continue
				}
				eff |= s.trans[e.Callee]
				for k := range s.acquires[e.Callee] {
					acq[k] = true
				}
			}
		}
		for _, n := range comp {
			s.trans[n.Fn] = eff
			s.acquires[n.Fn] = acq
		}
	}

	// Pass 3: replay each body's lock regions against the final
	// transitive acquisition sets to collect held→acquired edges.
	for _, node := range s.Graph.Nodes {
		s.collectLockEdges(node)
	}
	sort.Slice(s.lockEdges, func(i, j int) bool {
		a, c := s.lockEdges[i], s.lockEdges[j]
		if a.Pkg.ImportPath != c.Pkg.ImportPath {
			return a.Pkg.ImportPath < c.Pkg.ImportPath
		}
		if a.Pos != c.Pos {
			return a.Pos < c.Pos
		}
		return a.Acquired < c.Acquired
	})
	return s
}

func (s *Set) collectLockEdges(node *callgraph.Node) {
	var held []string
	var saved [][]string
	holds := func(k string) bool {
		for _, h := range held {
			if h == k {
				return true
			}
		}
		return false
	}
	for _, o := range s.ops[node.Fn] {
		switch o.kind {
		case opLock:
			for _, h := range held {
				if h != o.key {
					s.lockEdges = append(s.lockEdges, LockEdge{
						Held: h, Acquired: o.key, Pos: o.pos, Pkg: node.Pkg, Fn: node.Fn,
					})
				}
			}
			held = append(held, o.key)
		case opUnlock:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == o.key {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case opDeferUnlock:
			// The region runs to function end; nothing to do.
		case opPush:
			saved = append(saved, append([]string(nil), held...))
		case opPop:
			held = saved[len(saved)-1]
			saved = saved[:len(saved)-1]
		case opCall:
			if o.edgeKind == callgraph.Go || len(held) == 0 {
				continue
			}
			for k := range s.acquires[o.callee] {
				if holds(k) {
					continue
				}
				for _, h := range held {
					s.lockEdges = append(s.lockEdges, LockEdge{
						Held: h, Acquired: k, Pos: o.pos, Pkg: node.Pkg, Fn: node.Fn, Via: o.callee,
					})
				}
			}
		}
	}
}

// walk linearizes node's body into an op list in source order, with
// conditional branches bracketed by opPush/opPop markers. Go statement
// subtrees are skipped entirely: nothing in them is synchronous with the
// caller (their call edges live in the callgraph with Kind Go and are
// equally excluded from propagation).
func walk(node *callgraph.Node) []op {
	var ops []op
	w := &walker{pkg: node.Pkg}
	w.stmt(node.Decl.Body, &ops)
	return ops
}

type walker struct {
	pkg *loader.Package
	// inDefer marks a deferred function literal's body: its unlocks are
	// exit-time unlocks and its calls are Defer edges.
	inDefer bool
}

// branch walks one conditional arm inside push/pop brackets.
func (w *walker) branch(s ast.Stmt, ops *[]op) {
	if s == nil {
		return
	}
	*ops = append(*ops, op{pos: s.Pos(), kind: opPush})
	w.stmt(s, ops)
	*ops = append(*ops, op{pos: s.End(), kind: opPop})
}

func (w *walker) stmtList(list []ast.Stmt, ops *[]op) {
	for _, s := range list {
		w.stmt(s, ops)
	}
}

// stmt walks one statement structurally: straight-line statements emit
// ops into the main stream, conditional bodies are bracketed so the lock
// replay sees them with the entry-time held set.
func (w *walker) stmt(s ast.Stmt, ops *[]op) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmtList(s.List, ops)
	case *ast.IfStmt:
		w.stmt(s.Init, ops)
		w.expr(s.Cond, ops)
		w.branch(s.Body, ops)
		w.branch(s.Else, ops)
	case *ast.ForStmt:
		w.stmt(s.Init, ops)
		w.expr(s.Cond, ops)
		*ops = append(*ops, op{pos: s.Pos(), kind: opPush})
		w.stmt(s.Body, ops)
		w.stmt(s.Post, ops)
		*ops = append(*ops, op{pos: s.End(), kind: opPop})
	case *ast.RangeStmt:
		w.expr(s.X, ops)
		if t := w.pkg.Info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				*ops = append(*ops, op{pos: s.Pos(), kind: opEvent, eff: Blocks})
			}
		}
		w.branch(s.Body, ops)
	case *ast.SwitchStmt:
		w.stmt(s.Init, ops)
		w.expr(s.Tag, ops)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e, ops)
				}
				*ops = append(*ops, op{pos: cc.Pos(), kind: opPush})
				w.stmtList(cc.Body, ops)
				*ops = append(*ops, op{pos: cc.End(), kind: opPop})
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, ops)
		w.stmt(s.Assign, ops)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				*ops = append(*ops, op{pos: cc.Pos(), kind: opPush})
				w.stmtList(cc.Body, ops)
				*ops = append(*ops, op{pos: cc.End(), kind: opPop})
			}
		}
	case *ast.SelectStmt:
		// The select is the one blocking op, and only without a default:
		// its clauses contribute their operands, not free-standing sends
		// and receives, or every non-blocking notifier would block.
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			*ops = append(*ops, op{pos: s.Pos(), kind: opEvent, eff: Blocks})
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				*ops = append(*ops, op{pos: cc.Pos(), kind: opPush})
				w.commOperands(cc.Comm, ops)
				w.stmtList(cc.Body, ops)
				*ops = append(*ops, op{pos: cc.End(), kind: opPop})
			}
		}
	case *ast.GoStmt:
		// Nothing inside is synchronous with this goroutine.
	case *ast.DeferStmt:
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			inner := &walker{pkg: w.pkg, inDefer: true}
			*ops = append(*ops, op{pos: lit.Pos(), kind: opPush})
			inner.stmt(lit.Body, ops)
			*ops = append(*ops, op{pos: lit.End(), kind: opPop})
			return
		}
		addCall(w.pkg, s.Call, callgraph.Defer, ops)
		for _, arg := range s.Call.Args {
			w.expr(arg, ops)
		}
	case *ast.SendStmt:
		*ops = append(*ops, op{pos: s.Pos(), kind: opEvent, eff: Blocks})
		w.expr(s.Chan, ops)
		w.expr(s.Value, ops)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.expr(lhs, ops)
		}
		for _, rhs := range s.Rhs {
			w.expr(rhs, ops)
		}
	case *ast.ExprStmt:
		w.expr(s.X, ops)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, ops)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, ops)
	case *ast.DeclStmt, *ast.IncDecStmt:
		w.expr(s, ops)
	}
}

// commOperands walks a select clause's communication for what it
// evaluates — the channel, the sent value, the receive's targets — but not
// the send or receive itself, whose blocking belongs to the select.
func (w *walker) commOperands(s ast.Stmt, ops *[]op) {
	switch s := s.(type) {
	case *ast.SendStmt:
		w.expr(s.Chan, ops)
		w.expr(s.Value, ops)
	case *ast.ExprStmt:
		w.expr(recvOperand(s.X), ops)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.expr(lhs, ops)
		}
		w.expr(recvOperand(s.Rhs[0]), ops)
	}
}

// recvOperand strips the receive operator off a clause's <-ch.
func recvOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return e
}

// expr walks an expression (or expression-bearing node) for calls, lock
// operations, channel receives and nested function literals.
func (w *walker) expr(e ast.Node, ops *[]op) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal that isn't go'd (those never reach here) runs — if
			// it runs — on this goroutine: include its ops conservatively,
			// bracketed like a branch.
			*ops = append(*ops, op{pos: n.Pos(), kind: opPush})
			w.stmt(n.Body, ops)
			*ops = append(*ops, op{pos: n.End(), kind: opPop})
			return false
		case *ast.CallExpr:
			kind := callgraph.Call
			if w.inDefer {
				kind = callgraph.Defer
			}
			if addCall(w.pkg, n, kind, ops) {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					w.expr(sel.X, ops)
				}
				for _, arg := range n.Args {
					w.expr(arg, ops)
				}
				return false
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				*ops = append(*ops, op{pos: n.Pos(), kind: opEvent, eff: Blocks})
			}
		}
		return true
	})
}

// addCall classifies one call expression: lock ops, effect events and
// callgraph ops as appropriate. It reports whether the call was resolved
// (in which case the caller stops recursing into Fun but still walks the
// arguments).
func addCall(pkg *loader.Package, call *ast.CallExpr, kind callgraph.EdgeKind, ops *[]op) bool {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	callee, _ := pkg.Info.Uses[id].(*types.Func)
	if callee == nil {
		return false
	}
	pos := call.Pos()

	// Lock operations on sync mutexes become region ops, not calls.
	if sel != nil && isSyncLockMethod(callee) {
		key := lockKey(pkg, sel.X)
		if key == "" {
			return true
		}
		switch callee.Name() {
		case "Lock", "RLock":
			*ops = append(*ops, op{pos: pos, kind: opLock, key: key})
		case "Unlock", "RUnlock":
			k := opUnlock
			if kind == callgraph.Defer {
				k = opDeferUnlock
			}
			*ops = append(*ops, op{pos: pos, kind: k, key: key})
		}
		return true
	}

	if eff := callEffect(callee); eff != 0 {
		*ops = append(*ops, op{pos: pos, kind: opEvent, eff: eff})
	}
	*ops = append(*ops, op{pos: pos, kind: opCall, callee: callee, edgeKind: kind})
	return true
}

// callEffect returns the direct effect a call to callee carries, per the
// package-doc recognition table.
func callEffect(callee *types.Func) Effect {
	name := callee.Name()
	if cp := callee.Pkg(); cp != nil {
		switch cp.Path() {
		case "time":
			if name == "Sleep" {
				return Blocks
			}
		case "sync":
			if name == "Wait" && recvTypeName(callee) == "WaitGroup" {
				return Blocks
			}
		case "net":
			return NetIO
		case "fmt":
			if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
				return Logs
			}
		case "log", "log/slog":
			return Logs
		}
	}

	if name == "Observe" || name == "ObserveValue" {
		return Observes
	}

	return 0
}

// lockKey canonicalizes the mutex expression x of x.Lock() into a
// cross-package comparable key. Field mutexes key as
// "pkgpath.Type.field", package-level mutexes as "pkgpath.var",
// receivers embedding a mutex as "pkgpath.Type.Mutex". Local mutexes
// return "" and are not tracked: lock-order cycles need shared locks.
func lockKey(pkg *loader.Package, x ast.Expr) string {
	x = ast.Unparen(x)
	switch x := x.(type) {
	case *ast.SelectorExpr:
		// Qualified package-level mutex: pkgname.Mu.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
				return ""
			}
		}
		// Field mutex: recv.mu — key by the field owner's named type.
		if base := namedOf(pkg.Info.TypeOf(x.X)); base != nil {
			return typeKey(base) + "." + x.Sel.Name
		}
	case *ast.Ident:
		obj, ok := pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		// p.Lock() with an embedded mutex reaches here with x bound to a
		// local of the embedding type.
		if base := namedOf(obj.Type()); base != nil && !isSyncPkgType(base) {
			return typeKey(base) + ".Mutex"
		}
	}
	return ""
}

func typeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func isSyncPkgType(n *types.Named) bool {
	return n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}

func isSyncLockMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		rt := recvTypeName(fn)
		return rt == "Mutex" || rt == "RWMutex"
	}
	return false
}

// recvTypeName returns the bare name of fn's receiver type ("" for plain
// functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := namedOf(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}
