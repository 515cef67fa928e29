package sim

import (
	"fmt"
	"math/rand"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/trace"
)

// simEnv implements core.Env for one coroutine process. All of its methods
// run on the process's goroutine while it holds the execution token, so no
// additional synchronization is needed: the token handoff channels carry
// the happens-before edges.
type simEnv struct {
	r  *Runner
	ps *procState
}

var _ core.Env = (*simEnv)(nil)

// endStep completes the current atomic step: it hands the token back to
// the runner and blocks until the next grant. A kill grant (crash or run
// shutdown) unwinds the coroutine through the killPanic sentinel.
func (e *simEnv) endStep() {
	e.ps.steps++
	e.r.counters.Record(e.ps.id, metrics.Steps, 1)
	e.ps.signal <- signalMsg{kind: sigYield}
	if g := <-e.ps.grant; g == grantKill {
		panic(killPanic{})
	}
}

// ID implements core.Env.
func (e *simEnv) ID() core.ProcID { return e.ps.id }

// N implements core.Env.
func (e *simEnv) N() int { return e.r.n }

// Procs implements core.Env.
func (e *simEnv) Procs() []core.ProcID { return e.r.allProcs }

// Neighbors implements core.Env.
func (e *simEnv) Neighbors() []core.ProcID { return e.r.neighbor[e.ps.id] }

// trace records a structured event when tracing is on.
func (e *simEnv) trace(kind trace.Kind, ref core.Ref, to core.ProcID, note func() string) {
	if e.r.cfg.Trace == nil {
		return
	}
	ev := trace.Event{Step: e.r.step, Proc: e.ps.id, Kind: kind, Ref: ref, To: to}
	if note != nil {
		ev.Note = note()
	}
	e.r.cfg.Trace.Record(ev)
}

// Send implements core.Env. One step.
func (e *simEnv) Send(to core.ProcID, payload core.Value) error {
	e.trace(trace.Send, core.Ref{}, to, func() string { return fmt.Sprintf("%v", payload) })
	err := e.r.net.Send(e.ps.id, to, payload, core.SpanContext{}, e.r.step)
	e.endStep()
	return err
}

// Broadcast implements core.Env. One step ("send to all").
func (e *simEnv) Broadcast(payload core.Value) error {
	e.trace(trace.Broadcast, core.Ref{}, core.NoProc, func() string { return fmt.Sprintf("%v", payload) })
	err := e.r.net.Broadcast(e.ps.id, payload, core.SpanContext{}, e.r.step)
	e.endStep()
	return err
}

// TryRecv implements core.Env. Local, no step.
func (e *simEnv) TryRecv() (core.Message, bool) {
	return e.r.net.Recv(e.ps.id)
}

// Read implements core.Env. One step.
func (e *simEnv) Read(ref core.Ref) (core.Value, error) {
	v, err := e.r.mem.Read(e.ps.id, ref)
	e.trace(trace.RegRead, ref, core.NoProc, func() string { return fmt.Sprintf("= %v", v) })
	e.endStep()
	return v, err
}

// Write implements core.Env. One step.
func (e *simEnv) Write(ref core.Ref, v core.Value) error {
	e.trace(trace.RegWrite, ref, core.NoProc, func() string { return fmt.Sprintf("← %v", v) })
	err := e.r.mem.Write(e.ps.id, ref, v)
	e.endStep()
	return err
}

// CompareAndSwap implements core.Env. One step.
func (e *simEnv) CompareAndSwap(ref core.Ref, expected, desired core.Value) (bool, core.Value, error) {
	swapped, cur, err := e.r.mem.CompareAndSwap(e.ps.id, ref, expected, desired)
	e.trace(trace.CAS, ref, core.NoProc, func() string {
		return fmt.Sprintf("%v→%v swapped=%v", expected, desired, swapped)
	})
	e.endStep()
	return swapped, cur, err
}

// Yield implements core.Env. One step.
func (e *simEnv) Yield() {
	e.trace(trace.Yield, core.Ref{}, core.NoProc, nil)
	e.endStep()
}

// LocalSteps implements core.Env.
func (e *simEnv) LocalSteps() uint64 { return e.ps.steps }

// Expose implements core.Env. The runner reads exposed values only between
// steps, so the token handoff orders this write before any observation.
func (e *simEnv) Expose(name string, v core.Value) {
	e.trace(trace.Expose, core.Ref{}, core.NoProc, func() string { return fmt.Sprintf("%s=%v", name, v) })
	e.ps.exposed[name] = v
}

// Rand implements core.Env.
func (e *simEnv) Rand() *rand.Rand { return e.ps.rng }

// Logf implements core.Env.
func (e *simEnv) Logf(format string, args ...any) {
	e.trace(trace.Log, core.Ref{}, core.NoProc, func() string { return fmt.Sprintf(format, args...) })
	if e.r.cfg.Logf == nil {
		return
	}
	prefix := []any{e.r.step, e.ps.id}
	e.r.cfg.Logf("[step %d] %v: "+format, append(prefix, args...)...)
}
