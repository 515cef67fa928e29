// Package lockedblocking flags blocking or slow work performed while a
// sync.Mutex/RWMutex is held — the peer.ack bug class from PR 4, where
// a histogram Observe under p.mu serialized the TCP send loop behind the
// receive path.
//
// Inside a region where a mutex is provably held, the analyzer reports:
//
//   - channel sends, receives and selects (a blocked channel op turns a
//     mutex into a system-wide convoy);
//   - histogram observations (Observe/ObserveValue — instrumentation
//     must never serialize the measured system, see internal/metrics);
//   - logging (stdlib log, fmt.Print*, and the repo's logf/Logf/log
//     callbacks — log sinks can block on a pipe);
//   - network I/O (net.Dial*/Listen and net.Conn method calls);
//   - time.Sleep and sync.WaitGroup.Wait (sync.Cond.Wait is fine: it
//     releases the mutex while parked).
//
// "Provably held" is deliberately conservative: a lock is tracked from a
// same-block x.Lock() (or a defer x.Unlock() anywhere after it) and
// dropped the moment control flow gets complicated — any statement whose
// subtree unlocks x ends the tracked region. That keeps the analyzer
// sound against the repo's hand-over-hand and early-unlock patterns
// (false positives would train people to sprinkle //mnmvet:allow), at
// the cost of missing exotic flows. Functions whose name ends in
// "Locked" — the repo's convention for "caller holds the lock", e.g.
// deliverLocked — are checked with a synthetic held lock.
//
// Since mnmvet v2 the rule also sees through calls: a call made under a
// lock to any function whose effect summary (internal/analysis/summary)
// says it may block, observe metrics, log or do network I/O — however
// deep in the call chain — is reported at the call site. File I/O is
// deliberately not such an effect: PR 7's durability contract fsyncs the
// WAL under the peer lock by design.
package lockedblocking

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/summary"
)

// Analyzer is the lockedblocking rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockedblocking",
	Doc: "no channel ops, histogram observations, logging, network I/O or sleeps " +
		"while a sync.Mutex/RWMutex is held (the peer.ack bug class)",
	Run: run,
}

// callerHeld is the synthetic lock key used inside *Locked functions.
const callerHeld = "the caller's lock"

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				held := map[string]bool{}
				if strings.HasSuffix(fn.Name.Name, "Locked") {
					held[callerHeld] = true
				}
				walkList(pass, fn.Body.List, held)
			case *ast.FuncLit:
				// Function literals are separate execution contexts (often
				// separate goroutines): analyzed with no inherited locks.
				walkList(pass, fn.Body.List, map[string]bool{})
				return false
			}
			return true
		})
	}
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
	opDeferUnlock
)

// classify recognizes x.Lock()/x.RLock(), x.Unlock()/x.RUnlock() and
// defer x.Unlock() statements on sync mutexes, keyed by the syntactic
// path of x.
func classify(pass *analysis.Pass, stmt ast.Stmt) (key string, op lockOp) {
	var call *ast.CallExpr
	deferred := false
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
		deferred = true
	}
	if call == nil {
		return "", opNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	var isLock, isUnlock bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		isLock = true
	case "Unlock", "RUnlock":
		isUnlock = true
	default:
		return "", opNone
	}
	if !isMutex(pass, sel.X) {
		return "", opNone
	}
	key = analysis.ExprString(sel.X)
	if key == "" {
		return "", opNone
	}
	switch {
	case deferred && isUnlock:
		return key, opDeferUnlock
	case deferred:
		return "", opNone // defer x.Lock() — nonsense, ignore
	case isLock:
		return key, opLock
	default:
		return key, opUnlock
	}
}

// isMutex reports whether expr's type is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isMutex(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	return isNamedSync(tv.Type, "Mutex") || isNamedSync(tv.Type, "RWMutex")
}

func isNamedSync(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// walkList tracks lock state through one statement list. Statements
// reached with locks held are scanned for blocking work; a statement
// whose subtree unlocks a key ends that key's tracked region before the
// scan (conservative: complicated unlock flows are never reported on).
func walkList(pass *analysis.Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		if key, op := classify(pass, stmt); op != opNone {
			switch op {
			case opLock:
				held[key] = true
			case opUnlock:
				delete(held, key)
			case opDeferUnlock:
				// Held until the function returns: keep tracking.
			}
			continue
		}
		released := unlocksIn(pass, stmt)
		for key := range released {
			delete(held, key)
		}
		if len(held) > 0 {
			reportBlocking(pass, stmt, held)
		}
		// Recurse with a fresh lock context to catch regions that begin
		// inside this statement's nested blocks.
		for _, list := range nestedLists(stmt) {
			walkList(pass, list, map[string]bool{})
		}
		for _, lit := range funcLitsIn(stmt) {
			walkList(pass, lit.Body.List, map[string]bool{})
		}
	}
}

// unlocksIn collects lock keys explicitly unlocked (non-deferred) inside
// stmt's subtree, excluding nested function literals.
func unlocksIn(pass *analysis.Pass, stmt ast.Stmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if key, op := classify(pass, s); op == opUnlock {
			out[key] = true
		}
		return true
	})
	return out
}

// nestedLists returns the statement lists directly nested in stmt.
func nestedLists(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, nestedLists(s.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, nestedLists(s.Stmt)...)
	}
	return out
}

// funcLitsIn collects function literals directly inside stmt (not inside
// deeper literals; those are found when their parent is walked).
func funcLitsIn(stmt ast.Stmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(stmt, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

// reportBlocking scans one statement reached with locks held and reports
// every blocking construct, skipping nested function literals.
func reportBlocking(pass *analysis.Pass, stmt ast.Stmt, held map[string]bool) {
	lock := heldName(held)
	reportBlockingIn(pass, stmt, lock)
}

func reportBlockingIn(pass *analysis.Pass, root ast.Node, lock string) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// The spawned call runs on its own goroutine without the lock;
			// only its arguments are evaluated here.
			for _, arg := range n.Call.Args {
				reportBlockingIn(pass, arg, lock)
			}
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while holding %s; a full channel turns the lock into a convoy — move the send after Unlock", lock)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive while holding %s; move the receive after Unlock", lock)
			}
		case *ast.SelectStmt:
			// A select with a default clause never parks; without one it
			// parks holding the lock. Either way its comm clauses are part
			// of the select, not free-standing channel ops: don't descend.
			if !hasDefault(n) {
				pass.Reportf(n.Pos(), "select while holding %s; selects park the goroutine with the lock held — restructure to select after Unlock", lock)
			}
			return false
		case *ast.CallExpr:
			checkCall(pass, n, lock)
		}
		return true
	})
}

// hasDefault reports whether a select statement has a default clause.
func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func heldName(held map[string]bool) string {
	for key := range held {
		if key != callerHeld {
			return key
		}
	}
	return callerHeld
}

// logNames are method/field names the repo uses for logging callbacks
// (rt.Group.logf, tcp.Transport.log) plus the core.Env logging surface.
var logNames = map[string]bool{"log": true, "logf": true, "Logf": true}

// checkCall flags blocking or slow calls made under a lock.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, lock string) {
	id := analysis.CalleeFunc(pass.Pkg, call)
	if id == nil {
		return
	}
	// Histogram observations and logging callbacks by name: the metrics
	// discipline is repo-wide ("instrumentation never serializes the
	// measured system"), whatever the receiver type.
	switch {
	case id.Name == "Observe" || id.Name == "ObserveValue":
		if isMethodCall(pass, call) {
			pass.Reportf(call.Pos(), "histogram %s while holding %s (the peer.ack bug class); snapshot under the lock, observe after Unlock", id.Name, lock)
			return
		}
	case logNames[id.Name]:
		pass.Reportf(call.Pos(), "logging while holding %s; log sinks can block on a pipe — log after Unlock", lock)
		return
	}
	fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "log":
		pass.Reportf(call.Pos(), "log.%s while holding %s; log after Unlock", fn.Name(), lock)
	case "fmt":
		switch fn.Name() {
		case "Print", "Printf", "Println":
			pass.Reportf(call.Pos(), "fmt.%s (stdout I/O) while holding %s; print after Unlock", fn.Name(), lock)
		}
	case "time":
		if fn.Name() == "Sleep" {
			pass.Reportf(call.Pos(), "time.Sleep while holding %s; sleep after Unlock", lock)
		}
	case "net":
		switch fn.Name() {
		case "Dial", "DialTimeout", "Listen":
			pass.Reportf(call.Pos(), "net.%s while holding %s; establish connections outside the lock", fn.Name(), lock)
		}
	case "sync":
		// WaitGroup.Wait parks holding the lock; Cond.Wait releases it.
		if fn.Name() == "Wait" && recvIsSync(fn, "WaitGroup") {
			pass.Reportf(call.Pos(), "sync.WaitGroup.Wait while holding %s deadlocks if any waiter needs the lock; wait after Unlock", lock)
		}
	default:
		// net.Conn method calls: Read/Write/Close on a connection are
		// syscalls that can block for the full write timeout.
		checkConnCall(pass, call, fn, lock)
		// Everything else: see through the call via its effect summary.
		checkSummaryCall(pass, call, fn, lock)
	}
}

// checkSummaryCall is the interprocedural arm: a call to a function
// whose transitive synchronous effects include blocking, metrics
// observation, logging or network I/O performs that work while the
// caller's lock is held, no matter how many frames down it happens.
// Only functions with analyzed bodies have summaries, so this never
// second-guesses the stdlib. Note the deliberate asymmetry with PR 7's
// durability contract: file I/O (WAL append+fsync under the peer lock)
// is not an effect — fsync-under-mutex is the invariant there, not a bug.
func checkSummaryCall(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func, lock string) {
	set := summary.Of(pass.Prog)
	if set.Graph.Nodes[fn] == nil {
		return
	}
	eff := set.Effects(fn) & (summary.Blocks | summary.Observes | summary.Logs | summary.NetIO)
	if eff == 0 {
		return
	}
	pass.Reportf(call.Pos(), "call to %s (%s) while holding %s; hoist the call out of the locked region", fn.Name(), eff, lock)
}

func isMethodCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection := pass.Pkg.Info.Selections[sel]
	return selection != nil && selection.Kind() == types.MethodVal
}

func recvIsSync(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedSync(sig.Recv().Type(), name)
}

// checkConnCall flags I/O method calls on values implementing net.Conn.
func checkConnCall(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func, lock string) {
	switch fn.Name() {
	case "Read", "Write", "Close":
	default:
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := pass.Pkg.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return
	}
	conn := netConnType(pass)
	if conn == nil {
		return
	}
	if types.Implements(selection.Recv(), conn) {
		pass.Reportf(call.Pos(), "net.Conn.%s while holding %s; socket I/O can block for the full timeout — do I/O outside the lock", fn.Name(), lock)
	}
}

// netConnType finds the net.Conn interface among the package's imports,
// or nil when the package does not import net.
func netConnType(pass *analysis.Pass) *types.Interface {
	for _, imp := range pass.Pkg.Types.Imports() {
		if imp.Path() != "net" {
			continue
		}
		obj, ok := imp.Scope().Lookup("Conn").(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}
