// Package lockedblocking flags blocking or slow work performed while a
// sync.Mutex/RWMutex is held — the peer.ack bug class from PR 4, where
// a histogram Observe under p.mu serialized the TCP send loop behind the
// receive path.
//
// The rule owns no lock tracking: it replays each function through the
// effect summary's lock regions (internal/analysis/summary, the engine
// lockorder's edges come from too) and, wherever a lock is held, reports
//
//   - channel sends and receives, selects without a default and ranges
//     over channels (a blocked channel op turns a mutex into a
//     system-wide convoy);
//   - histogram observations (Observe/ObserveValue — instrumentation
//     must never serialize the measured system, see internal/metrics);
//   - logging (log, log/slog, fmt.Print*, and the repo's log/logf/Logf
//     callbacks — log sinks can block on a pipe);
//   - network calls (net.Dial*/Listen* and the methods of net.Conn,
//     net.Listener and net.PacketConn values);
//   - time.Sleep and sync.WaitGroup.Wait (sync.Cond.Wait is fine: it
//     releases the mutex while parked);
//   - any synchronous call whose summary says it may transitively do one
//     of the above, however deep in the call chain.
//
// The replay's semantics are the summary's: a branch that unlocks and
// returns leaves the fall-through held; function literals that are not
// go'd run inline under the held set; what a go statement spawns starts
// with nothing held, though the go'd call's receiver and arguments are
// evaluated under the lock; local mutexes are not tracked. Functions
// whose name ends in "Locked" — the repo's convention for "caller holds
// the lock", e.g. deliverLocked — start with a synthetic held lock.
//
// File I/O is deliberately not an effect: the durability contract
// fsyncs the WAL under the peer lock by design.
package lockedblocking

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/summary"
)

// Analyzer is the lockedblocking rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockedblocking",
	Doc: "no channel ops, histogram observations, logging, network I/O or sleeps " +
		"while a sync.Mutex/RWMutex is held, directly or through calls, in the " +
		"lock regions the effect summary replays (the peer.ack bug class)",
	Run: run,
}

// callerHeld seeds functions named *Locked.
var callerHeld = []summary.Op{{Kind: summary.OpLock, Text: "the caller's lock"}}

// messages words each event's finding: %[1]s is the callee as written,
// %[2]s the innermost held lock.
var messages = map[summary.Event]string{
	summary.Send:          "channel send while holding %[2]s; a full channel turns the lock into a convoy — move the send after Unlock",
	summary.Recv:          "channel receive while holding %[2]s; move the receive after Unlock",
	summary.Select:        "select while holding %[2]s; selects park the goroutine with the lock held — restructure to select after Unlock",
	summary.RangeChan:     "range over a channel while holding %[2]s; every receive parks with the lock held — range after Unlock",
	summary.Sleep:         "time.Sleep while holding %[2]s; sleep after Unlock",
	summary.WaitGroupWait: "sync.WaitGroup.Wait while holding %[2]s deadlocks if any waiter needs the lock; wait after Unlock",
	summary.Print:         "%[1]s while holding %[2]s; log sinks and stdout can block on a pipe — log after Unlock",
	summary.LogFunc:       "logging through %[1]s while holding %[2]s; log sinks can block on a pipe — log after Unlock",
	summary.Observe:       "histogram %[1]s while holding %[2]s (the peer.ack bug class); snapshot under the lock, observe after Unlock",
	summary.Net:           "%[1]s while holding %[2]s; network calls can block for the full timeout — call outside the lock",
}

func run(pass *analysis.Pass) {
	set := summary.Of(pass.Prog)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			var seed []summary.Op
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				seed = callerHeld
			}
			set.Replay(fn, seed, func(o summary.Op, held []summary.Op) {
				if len(held) == 0 || o.Kind == summary.OpLock {
					return
				}
				lock := held[len(held)-1].Text
				switch {
				case o.Event == summary.Observe:
					pass.Reportf(o.Pos, messages[o.Event], o.Callee.Name(), lock)
				case o.Event != summary.NoEvent:
					pass.Reportf(o.Pos, messages[o.Event], o.Text, lock)
				case set.Effects(o.Callee) != 0:
					pass.Reportf(o.Pos, "call to %s (%s) while holding %s; hoist the call out of the locked region",
						o.Callee.Name(), set.Effects(o.Callee), lock)
				}
			})
		}
	}
}
