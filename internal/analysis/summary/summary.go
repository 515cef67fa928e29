// Package summary computes per-function effect summaries over the
// callgraph and propagates them bottom-up through SCCs, so analyzers can
// reason across call boundaries: "does calling this function block?",
// "which locks can it acquire?". It is also mnmvet's one lock-region
// engine: Replay walks a body with the set of locks held at each step,
// for lockorder's edges and lockedblocking's findings alike.
//
// # Effects
//
// An Effect is a bitmask of things a function may do on the caller's
// goroutine, entered through Events recognized from types: channel
// operations, selects without default, ranges over channels, time.Sleep,
// WaitGroup.Wait, log/slog/fmt.Print* printing, dynamic log callbacks,
// metrics Observe calls and calls that can wait on the network. File IO
// is deliberately NOT an effect: the durability contract fsyncs the WAL
// while holding peer locks, and that is the invariant, not a bug. (The
// WAL's orderings themselves are not effects either: tcp's
// journaled/hwSynced values and shm's storeLocked make them data
// dependences.)
//
// # Propagation
//
// Transitive effects are the union of a function's direct effects and
// the transitive effects of everything it calls, defers or references —
// except Go edges: a spawned goroutine's effects are not synchronous
// with the caller, so they do not propagate. Within an SCC every member
// gets the component-wide union, which is the fixpoint.
//
// Lock-order edges are collected by replaying each body's lock
// operations in source order: an acquisition (direct, or anything a
// synchronously-called function may transitively acquire) performed
// while another key is held yields a held→acquired edge for lockorder's
// cycle detection. Keys are canonical "pkgpath.Type.field" strings, so
// edges compare across packages; local mutexes have no key and are not
// tracked.
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
	// Logs: log, log/slog or fmt.Print* printing, or a dynamic log
	// callback.
	Logs
	// NetIO: a call that can wait on the network — a method on a value
	// implementing net.Conn, net.Listener or net.PacketConn (other than
	// the Set* option setters and *Addr accessors), or a package net
	// Dial*/Listen* function or method.
	NetIO
)

// Has reports whether e includes every bit of f.
func (e Effect) Has(f Effect) bool { return e&f == f }

func (e Effect) String() string {
	var parts []string
	for i, name := range []string{"blocks", "observes-metrics", "logs", "net-io"} {
		if e&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Event names what an event op is.
type Event int

const (
	NoEvent       Event = iota // a plain call or a lock op
	Send                       // a channel send outside a select
	Recv                       // a channel receive outside a select
	Select                     // a select without a default clause
	RangeChan                  // a range over a channel
	Sleep                      // time.Sleep
	WaitGroupWait              // sync.WaitGroup.Wait
	Print                      // log, log/slog or fmt.Print*
	// LogFunc is a dynamic log callback: a call through a func-valued
	// log/logf/Logf field or variable, or an interface method so named.
	LogFunc
	Observe // Observe or ObserveValue
	Net     // a call that can wait on the network (see NetIO)
)

// Effect returns the effect bit e carries.
func (e Event) Effect() Effect {
	switch e {
	case NoEvent:
		return 0
	case Print, LogFunc:
		return Logs
	case Observe:
		return Observes
	case Net:
		return NetIO
	}
	return Blocks
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

	ops       map[*types.Func][]Op
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

// OpKind classifies one entry of a function body's linearized op list.
// Replay hands its visitor the three exported kinds; the others steer
// the held set.
type OpKind int

const (
	// OpLock acquires the mutex keyed Op.Key (Lock or RLock).
	OpLock OpKind = iota
	// OpEvent is an event with no resolved callee: a channel op, a
	// select, a range over a channel, a call through a log callback.
	OpEvent
	// OpCall is a synchronous call of Op.Callee; Op.Event is set when the
	// call is itself an event (time.Sleep, log.Printf, c.Write, ...).
	OpCall
	// opUnlock releases Op.Key; a deferred unlock is no op at all, since
	// its region runs to the end of the function.
	opUnlock
	// opPush/opPop bracket a conditional branch or an inlined function
	// literal, and opSpawn/opPop what a go statement runs on the new
	// goroutine (see Replay).
	opPush
	opPop
	opSpawn
)

// Op is one entry of a function body's linearized operation list.
type Op struct {
	Pos  token.Pos
	Kind OpKind
	// Key is a lock op's canonical mutex key.
	Key string
	// Text is a lock op's mutex as written ("s.mu"), or an event call's
	// callee as written ("log.Printf", "c.Close").
	Text   string
	Event  Event
	Callee *types.Func
	// async marks ops that run on a goroutine the body spawns: they are
	// not effects or acquisitions of the function itself.
	async bool
}

// Build computes the summary set of pkgs. Prefer Of, which caches per
// Program; Build is exported for direct unit testing.
func Build(pkgs []*loader.Package) *Set {
	s := &Set{
		Graph:    callgraph.Build(pkgs),
		ops:      map[*types.Func][]Op{},
		direct:   map[*types.Func]Effect{},
		trans:    map[*types.Func]Effect{},
		acquires: map[*types.Func]map[string]bool{},
	}

	// Pass 1: linearize every body into ops; record direct effects and
	// direct lock acquisitions.
	nets := netInterfaces(pkgs)
	for _, node := range s.Graph.Nodes {
		var ops []Op
		w := &walker{pkg: node.Pkg, graph: s.Graph, nets: nets, ops: &ops}
		w.stmt(node.Decl.Body)
		s.ops[node.Fn] = ops
		var eff Effect
		acq := map[string]bool{}
		for _, o := range ops {
			if o.async {
				continue
			}
			eff |= o.Event.Effect()
			if o.Kind == OpLock {
				acq[o.Key] = true
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

// Replay walks fn's ops in source order and calls visit on each lock,
// event and call op with the lock ops held just before it, innermost
// last. seed is held from entry; its ops carry no Key, so no unlock
// releases them. Each conditional branch and inlined literal starts from
// the held set its bracket was entered with, which is restored at the
// bracket's end — so an unlock on an early-return path ("if stopped {
// mu.Unlock(); return }") leaves the fall-through held, and a lock taken
// in one branch does not leak into the continuation. What a go statement
// runs on the new goroutine starts from nothing held. visit must not
// retain held.
func (s *Set) Replay(fn *types.Func, seed []Op, visit func(o Op, held []Op)) {
	held := append([]Op(nil), seed...)
	var saved [][]Op
	for _, o := range s.ops[fn] {
		switch o.Kind {
		case opPush:
			saved = append(saved, append([]Op(nil), held...))
		case opSpawn:
			saved = append(saved, held)
			held = nil
		case opPop:
			held, saved = saved[len(saved)-1], saved[:len(saved)-1]
		case opUnlock:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].Key == o.Key {
					held = append(held[:i:i], held[i+1:]...)
					break
				}
			}
		case OpLock:
			visit(o, held)
			held = append(held, o)
		default:
			visit(o, held)
		}
	}
}

func (s *Set) collectLockEdges(node *callgraph.Node) {
	s.Replay(node.Fn, nil, func(o Op, held []Op) {
		switch o.Kind {
		case OpLock:
			for _, h := range held {
				if h.Key != o.Key {
					s.lockEdges = append(s.lockEdges, LockEdge{
						Held: h.Key, Acquired: o.Key, Pos: o.Pos, Pkg: node.Pkg, Fn: node.Fn,
					})
				}
			}
		case OpCall:
			if len(held) == 0 {
				return
			}
		acquired:
			for k := range s.acquires[o.Callee] {
				for _, h := range held {
					if h.Key == k {
						continue acquired
					}
				}
				for _, h := range held {
					s.lockEdges = append(s.lockEdges, LockEdge{
						Held: h.Key, Acquired: k, Pos: o.Pos, Pkg: node.Pkg, Fn: node.Fn, Via: o.Callee,
					})
				}
			}
		}
	})
}

// walker linearizes one declared body into an op list in source order,
// with conditional branches and inlined literals bracketed by
// opPush/opPop and go'd code by opSpawn/opPop. Copies of a walker share
// the op list and differ only in flags.
type walker struct {
	pkg   *loader.Package
	graph *callgraph.Graph
	nets  []*types.Interface
	ops   *[]Op
	// inDefer marks a deferred function literal's body: its unlocks are
	// exit-time unlocks.
	inDefer bool
	// async marks code a go statement runs on the new goroutine.
	async bool
}

func (w *walker) emit(o Op) {
	o.async = w.async
	*w.ops = append(*w.ops, o)
}

// bracketed emits body between open (opPush or opSpawn) and opPop.
func (w *walker) bracketed(open OpKind, body func()) {
	w.emit(Op{Kind: open})
	body()
	w.emit(Op{Kind: opPop})
}

func (w *walker) stmtList(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// stmt walks one statement structurally: straight-line statements emit
// ops into the main stream, conditional bodies are bracketed so the lock
// replay sees them with the entry-time held set.
func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmtList(s.List)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.bracketed(opPush, func() { w.stmt(s.Body) })
		w.bracketed(opPush, func() { w.stmt(s.Else) })
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.bracketed(opPush, func() {
			w.stmt(s.Body)
			w.stmt(s.Post)
		})
	case *ast.RangeStmt:
		w.expr(s.X)
		if t := w.pkg.Info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				w.emit(Op{Pos: s.Pos(), Kind: OpEvent, Event: RangeChan})
			}
		}
		w.bracketed(opPush, func() { w.stmt(s.Body) })
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			w.bracketed(opPush, func() { w.stmtList(cc.Body) })
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.bracketed(opPush, func() { w.stmtList(cc.Body) })
		}
	case *ast.SelectStmt:
		// The select is the one blocking op, and only without a default:
		// its clauses contribute their operands, not free-standing sends
		// and receives, or every non-blocking notifier would block.
		hasDefault := false
		for _, c := range s.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.emit(Op{Pos: s.Pos(), Kind: OpEvent, Event: Select})
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.bracketed(opPush, func() {
				w.commOperands(cc.Comm)
				w.stmtList(cc.Body)
			})
		}
	case *ast.GoStmt:
		// The go'd call — a literal's body included — runs on the new
		// goroutine, and so do function values handed to it; the
		// receiver and the other arguments are evaluated here.
		fun := ast.Unparen(s.Call.Fun)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			w.expr(sel.X)
		}
		for _, arg := range s.Call.Args {
			if callgraph.SpawnedArg(w.pkg, arg) {
				w.spawn(arg)
			} else {
				w.expr(arg)
			}
		}
		if lit, ok := fun.(*ast.FuncLit); ok {
			w.spawn(lit.Body)
		}
	case *ast.DeferStmt:
		w.operands(s.Call)
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			inner := *w
			inner.inDefer = true
			w.bracketed(opPush, func() { inner.stmt(lit.Body) })
			return
		}
		w.addCall(s.Call, true)
	case *ast.SendStmt:
		w.emit(Op{Pos: s.Pos(), Kind: OpEvent, Event: Send})
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.expr(lhs)
		}
		for _, rhs := range s.Rhs {
			w.expr(rhs)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.DeclStmt, *ast.IncDecStmt:
		w.expr(s)
	}
}

// spawn walks n as code running on a goroutine a go statement starts.
func (w *walker) spawn(n ast.Node) {
	inner := *w
	inner.async, inner.inDefer = true, false
	w.bracketed(opSpawn, func() {
		if body, ok := n.(*ast.BlockStmt); ok {
			inner.stmt(body)
		} else {
			inner.expr(n)
		}
	})
}

// commOperands walks a select clause's communication for what it
// evaluates — the channel, the sent value, the receive's targets — but not
// the send or receive itself, whose blocking belongs to the select.
func (w *walker) commOperands(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.ExprStmt:
		w.expr(recvOperand(s.X))
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.expr(lhs)
		}
		w.expr(recvOperand(s.Rhs[0]))
	}
}

// recvOperand strips the receive operator off a clause's <-ch.
func recvOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return e
}

// operands walks what a call evaluates before control transfers: a
// method value's receiver and the arguments.
func (w *walker) operands(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	}
	for _, arg := range call.Args {
		w.expr(arg)
	}
}

// expr walks an expression (or expression-bearing node) for calls, lock
// operations, channel receives and nested function literals.
func (w *walker) expr(e ast.Node) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal that isn't go'd (those never reach here) runs — if
			// it runs — on this goroutine: include its ops conservatively,
			// bracketed like a branch.
			w.bracketed(opPush, func() { w.stmt(n.Body) })
			return false
		case *ast.CallExpr:
			if w.addCall(n, w.inDefer) {
				w.operands(n)
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.emit(Op{Pos: n.Pos(), Kind: OpEvent, Event: Recv})
			}
		}
		return true
	})
}

// logNames are the names the repo gives logging callbacks
// (rt.Group.logf, tcp.Config.Logf) and the core.Env logging surface.
var logNames = map[string]bool{"log": true, "logf": true, "Logf": true}

// addCall classifies one call expression as a lock op, an event or a
// plain call. It reports whether the callee is a declared function (in
// which case the caller stops recursing into Fun but still walks the
// operands).
func (w *walker) addCall(call *ast.CallExpr, deferred bool) bool {
	id := analysis.CalleeFunc(w.pkg, call)
	if id == nil {
		return false
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	pos := call.Pos()
	callee, _ := w.pkg.Info.Uses[id].(*types.Func)
	if callee == nil {
		if v, ok := w.pkg.Info.Uses[id].(*types.Var); ok && logNames[v.Name()] {
			w.emit(Op{Pos: pos, Kind: OpEvent, Event: LogFunc, Text: types.ExprString(call.Fun)})
		}
		return false
	}
	callee = w.graph.Canonical(callee)

	// Lock operations on sync mutexes become region ops, not calls.
	if sel != nil && isSyncLockMethod(callee) {
		key := lockKey(w.pkg, sel.X)
		if key == "" {
			return true
		}
		o := Op{Pos: pos, Kind: OpLock, Key: key, Text: types.ExprString(sel.X)}
		if name := callee.Name(); name == "Unlock" || name == "RUnlock" {
			if deferred {
				return true
			}
			o.Kind = opUnlock
		}
		w.emit(o)
		return true
	}

	o := Op{Pos: pos, Kind: OpCall, Callee: callee, Event: w.callEvent(callee)}
	if o.Event != NoEvent {
		o.Text = types.ExprString(call.Fun)
	}
	w.emit(o)
	return true
}

// callEvent returns the event a call to callee is, per the package-doc
// recognition table.
func (w *walker) callEvent(callee *types.Func) Event {
	name := callee.Name()
	if cp := callee.Pkg(); cp != nil {
		switch cp.Path() {
		case "time":
			if name == "Sleep" {
				return Sleep
			}
		case "sync":
			if name == "Wait" && recvTypeName(callee) == "WaitGroup" {
				return WaitGroupWait
			}
		case "net":
			if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") {
				return Net
			}
		case "fmt":
			if strings.HasPrefix(name, "Print") {
				return Print
			}
		case "log", "log/slog":
			return Print
		}
	}
	recv := callee.Type().(*types.Signature).Recv()
	switch {
	case name == "Observe" || name == "ObserveValue":
		return Observe
	case recv == nil:
		return NoEvent
	case logNames[name] && types.IsInterface(recv.Type()):
		return LogFunc
	case strings.HasPrefix(name, "Set") || strings.HasSuffix(name, "Addr"):
		return NoEvent
	}
	for _, iface := range w.nets {
		if types.Implements(recv.Type(), iface) {
			return Net
		}
	}
	return NoEvent
}

// netInterfaces returns those of net.Conn, net.Listener and
// net.PacketConn the load's importer has seen: export data holds only
// the objects the load references.
func netInterfaces(pkgs []*loader.Package) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range []string{"Conn", "Listener", "PacketConn"} {
			if obj := p.Scope().Lookup(name); p.Path() == "net" && obj != nil {
				out = append(out, obj.Type().Underlying().(*types.Interface))
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return out
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
