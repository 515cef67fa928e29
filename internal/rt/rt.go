// Package rt is the real-time host for m&m algorithms: one goroutine per
// process, true parallelism, pluggable message transports.
//
// The same algorithm code that runs under the deterministic simulator
// (internal/sim) runs here unmodified — the core.Env contract is
// identical; only the notion of a "step" changes from a scheduler grant to
// an actual operation. The real-time host exists for two reasons: to show
// that the algorithms are real programs rather than simulator artifacts,
// and to measure wall-clock performance shapes (register ops vs. message
// ops, scaling with n and the G_SM degree) on real hardware.
//
// Every group is opened with Node.OpenGroup. Its messages travel over a
// transport.Transport: on a transport-less node, a private in-process
// channel backend (transport.Chan); on a node over a
// transport/tcp.Transport, the group's view of the node's sockets, which
// runs the same algorithms across OS processes. The directory decides
// which of the group's processes this node hosts; shared registers owned
// by remote processes are reached through the view's RPC plane, served by
// the owner's node out of its local register store (so shared-memory
// domain checks always happen at the owner).
//
// A group has one meter and one recorder: every counter and latency
// histogram goes into GroupConfig.Registry (by default a "group-<id>"
// sub-registry of the node's), and every traced operation is a span in
// NodeConfig.Flight. The simulator's step-indexed event log
// (trace.Recorder) has no real-time counterpart.
//
// A step is one operation, and Yield — the step an idle process takes —
// is one step followed by a park: the process sleeps until a message lands
// in its mailbox, a register of its group is written on its node, a
// register at a remote owner that its read found empty is first written
// (the owner's node sends it a wake-up, see remote.go), the group stops or
// the process is crashed, or yieldTick passes. An idle process therefore
// costs about one step per millisecond instead of a spinning core, while
// still accruing steps at a bounded rate for the step-counted timers of
// the §5 algorithms (DESIGN.md §4.2).
//
// Runs are not deterministic: asynchrony comes from the Go scheduler (and,
// over TCP, from the network). Every safety property must therefore hold
// for *any* interleaving, which is exactly what the paper's algorithms
// promise (and -race verifies the substrate side).
package rt

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/runcfg"
	"github.com/mnm-model/mnm/internal/shm"
	"github.com/mnm-model/mnm/internal/trace"
	"github.com/mnm-model/mnm/internal/transport"
)

// RunConfig is the host-independent part of a run description, shared with
// the simulator (see internal/runcfg).
type RunConfig = runcfg.RunConfig

// Result is the structured outcome of a real-time run, mirroring
// sim.Result for the fields that make sense without a global step counter.
type Result struct {
	// Errors maps processes to the error their body returned, if any.
	Errors map[core.ProcID]error
	// Elapsed is the wall-clock time from Start until every hosted
	// process goroutine exited.
	Elapsed time.Duration
	// Steps is the total number of steps taken by hosted processes.
	Steps uint64
	// Hosted lists the processes this host ran.
	Hosted []core.ProcID
	// Counters holds the final metric values. Note that with a
	// distributed transport, remote register operations are metered at
	// the owner's node (under the calling process's index), so each
	// node's counters cover the registers it serves.
	Counters *metrics.Counters
}

// Err flattens the run's process errors into one error: nil when every
// process succeeded, the error itself when exactly one failed, and a
// joined multi-error — one branch per failed process, in ascending
// ProcID order, each wrapped so errors.Is/As see through it — when
// several did. The order is sorted once per call (not the map's random
// iteration order), so the result is stable and no failure is silently
// dropped in favor of the lowest ProcID.
func (r *Result) Err() error {
	if r == nil || len(r.Errors) == 0 {
		return nil
	}
	procs := make([]core.ProcID, 0, len(r.Errors))
	for p := range r.Errors {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	if len(procs) == 1 {
		return r.Errors[procs[0]]
	}
	errs := make([]error, len(procs))
	for i, p := range procs {
		errs[i] = fmt.Errorf("proc %v: %w", p, r.Errors[p])
	}
	return errors.Join(errs...)
}

// Group runs one m&m system (one shard) with real concurrency: its own
// GSM, hosted set, shard-scoped register namespace (a private shm.Memory)
// and process goroutines. A Group owns the transport.Transport it was
// built over; when that transport is a group view of a sharded backend
// (see Node.OpenGroup), many Groups multiplex over one node's shared
// connections and Stop releases only this group's slice.
type Group struct {
	n         int
	hosted    []core.ProcID
	hostedSet map[core.ProcID]bool
	mem       *shm.Memory
	tr        transport.Transport
	rpc       transport.SpanRPC // nil when every register owner is hosted
	counters  *metrics.Counters
	registry  *metrics.Registry
	durable   *durable.Registers // nil unless GroupConfig.Durable was set
	spans     *trace.Scope       // nil when span tracing is off
	logf      func(format string, args ...any)
	procs     []*rtProc // nil entries for processes hosted elsewhere
	wg        sync.WaitGroup
	stopped   atomic.Bool
	started   atomic.Bool
	stopCh    chan struct{}
	stopOnce  sync.Once
	parked    atomic.Int32 // processes inside park; register writes wake them
	watch     watchTable   // remote readers of empty registers (remote.go)

	mu        sync.Mutex
	errs      map[core.ProcID]error
	startGate chan struct{}
	startedAt time.Time
	elapsed   time.Duration

	finishOnce sync.Once
	closeOnce  sync.Once

	// onStop, when set (by Node.OpenGroup), runs once after Stop has
	// closed the group's transport — the node's deregistration hook.
	onStop func()
}

type rtProc struct {
	id      core.ProcID
	steps   atomic.Uint64
	crashed atomic.Bool
	seed    int64      // rng's seed
	rng     *rand.Rand // built on first Rand; used only by the owning goroutine

	// wake holds at most one pending wake-up token; park sleeps on it.
	// timer is park's reused yieldTick timer, owned by the process
	// goroutine (nil until the first park).
	wake  chan struct{}
	timer *time.Timer

	mu      sync.Mutex
	exposed map[string]core.Value

	neighbors []core.ProcID
}

// newGroup builds the group Node.OpenGroup resolved, before its view is
// open: hosted are the processes it runs here (nil means all), spans its
// trace scope (nil when tracing is off). cfg.Registry is set. It restores
// the recovered registers, so no handler sees the memory before recovery.
func newGroup(cfg GroupConfig, hosted []core.ProcID, spans *trace.Scope) *Group {
	n := cfg.GSM.N()
	counters := cfg.Registry.Counters()
	if hosted == nil {
		hosted = make([]core.ProcID, n)
		for p := range hosted {
			hosted[p] = core.ProcID(p)
		}
	}
	hostedSet := make(map[core.ProcID]bool, len(hosted))
	for _, p := range hosted {
		hostedSet[p] = true
	}
	memOpts := []shm.Option{shm.WithCounters(counters)}
	if cfg.Durable != nil {
		memOpts = append(memOpts, shm.WithJournal(cfg.Durable))
	}
	h := &Group{
		n:         n,
		hosted:    hosted,
		hostedSet: hostedSet,
		mem:       shm.NewMemory(shm.NewUniformDomain(cfg.GSM), memOpts...),
		counters:  counters,
		registry:  cfg.Registry,
		durable:   cfg.Durable,
		spans:     spans,
		logf:      cfg.Logf,
		procs:     make([]*rtProc, n),
		errs:      make(map[core.ProcID]error),
		stopCh:    make(chan struct{}),
	}
	// Recovery must look like the state simply survived.
	if cfg.Durable != nil {
		for ref, v := range cfg.Durable.Recovered() {
			h.mem.Restore(ref, v)
			counters.Record(ref.Owner, metrics.RecoveredRegisters, 1)
		}
	}
	for _, p := range hosted {
		ns := cfg.GSM.Neighbors(int(p))
		neighbors := make([]core.ProcID, len(ns))
		for i, q := range ns {
			neighbors[i] = core.ProcID(q)
		}
		h.procs[p] = &rtProc{
			id:        p,
			seed:      cfg.Seed ^ (0x9e3779b9 * int64(p+1)),
			wake:      make(chan struct{}, 1),
			exposed:   make(map[string]core.Value),
			neighbors: neighbors,
		}
	}
	return h
}

// attach connects the group to view — a group view of the node transport,
// already serving h.serveMemSpan, or a private Chan — dials it and builds
// the process goroutines, which wait for Start.
func (h *Group) attach(view transport.Transport, cfg GroupConfig, alg core.Algorithm) error {
	// Registers owned by processes hosted elsewhere are reached over the
	// view's RPC plane; with every owner local it is never used.
	if len(h.hosted) < h.n {
		rpc, ok := view.(transport.SpanRPC)
		if !ok {
			return fmt.Errorf("rt: transport %T has no span RPC plane", view)
		}
		h.rpc = rpc
	}
	if cfg.Links == msgnet.FairLossy && cfg.Drop != nil {
		// The drop decision happens above the wire, so the fair-loss
		// adversary composes with any backend. The RPC plane is not
		// wrapped: remote register access models RDMA, not links.
		view = transport.NewLossy(view, cfg.Drop, h.counters)
	}
	h.tr = view
	if err := view.Dial(); err != nil {
		return fmt.Errorf("rt: transport dial: %w", err)
	}
	for _, p := range h.hosted {
		view.SetWake(p, h.procs[p].wake)
	}
	h.allProcsInit(alg)
	return nil
}

func (h *Group) allProcsInit(alg core.Algorithm) {
	all := make([]core.ProcID, h.n)
	for p := 0; p < h.n; p++ {
		all[p] = core.ProcID(p)
	}
	for _, p := range h.hosted {
		ps := h.procs[p]
		body := alg.ProcessFor(ps.id)
		env := &rtEnv{h: h, ps: ps, all: all}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(stopPanic); ok {
						return
					}
					h.recordErr(ps.id, fmt.Errorf("rt: process %v panicked: %v\n%s", ps.id, rec, debug.Stack()))
				}
			}()
			// Park on the start gate, but let Stop interrupt the wait
			// directly: a host stopped before Start should unwind its
			// processes without depending on Stop's own Start call.
			select {
			case <-h.startCh():
			case <-h.stopCh:
				return
			}
			if err := body(env); err != nil {
				h.recordErr(ps.id, err)
			}
		}()
	}
}

// startCh lazily builds the start gate.
func (h *Group) startCh() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.startGate == nil {
		h.startGate = make(chan struct{})
	}
	return h.startGate
}

func (h *Group) recordErr(p core.ProcID, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.errs[p] = err
}

// Start releases all process goroutines. It may be called once.
func (h *Group) Start() {
	if h.started.Swap(true) {
		return
	}
	h.mu.Lock()
	if h.startGate == nil {
		h.startGate = make(chan struct{})
	}
	gate := h.startGate
	h.startedAt = time.Now()
	h.mu.Unlock()
	close(gate)
}

// finish stamps the elapsed time once, when the last goroutine has exited.
func (h *Group) finish() {
	h.finishOnce.Do(func() {
		h.mu.Lock()
		h.elapsed = time.Since(h.startedAt)
		h.mu.Unlock()
	})
}

// Stop asks every still-running process to unwind at its next operation
// and closes the transport at once, which ends a register call a process
// is blocked in: the call fails with transport.ErrClosed and the stopped
// process unwinds instead of reporting it. Stop then waits for all
// goroutines to exit and closes the durable store. A tcp group view's
// Close only detaches the group; the node's drain of unacknowledged
// frames happens at Node.Close. Safe to call multiple times.
func (h *Group) Stop() *Result {
	h.stopped.Store(true)
	h.stopOnce.Do(func() {
		close(h.stopCh)
		if err := h.tr.Close(); err != nil && h.logf != nil {
			h.logf("rt: transport close: %v", err)
		}
	})
	if !h.started.Load() {
		h.Start()
	}
	h.wg.Wait()
	h.finish()
	h.closeOnce.Do(func() {
		// The durable store outlives the processes: a write in flight
		// when Stop began still journals.
		if h.durable != nil {
			if err := h.durable.Close(); err != nil && h.logf != nil {
				h.logf("rt: durable close: %v", err)
			}
		}
		if h.onStop != nil {
			h.onStop()
		}
	})
	return h.result()
}

// Wait blocks until every hosted process goroutine has exited on its own
// (returned from its body) and reports the structured run result. Most
// long-running algorithms never halt; use Stop for those.
//
// Wait does not close the transport: with a distributed transport this
// host may still be serving remote register reads for nodes that have not
// finished. Call Stop to release it.
//
// If the host was never started, Wait releases the start gate first, the
// same way Stop does: otherwise every process goroutine would still be
// parked on the gate and Wait would block forever with nothing running.
func (h *Group) Wait() *Result {
	if !h.started.Load() {
		h.Start()
	}
	h.wg.Wait()
	h.finish()
	return h.result()
}

// result snapshots the run outcome.
func (h *Group) result() *Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	errs := make(map[core.ProcID]error, len(h.errs))
	for p, e := range h.errs {
		errs[p] = e
	}
	var steps uint64
	for _, ps := range h.procs {
		if ps != nil {
			steps += ps.steps.Load()
		}
	}
	return &Result{
		Errors:   errs,
		Elapsed:  h.elapsed,
		Steps:    steps,
		Hosted:   append([]core.ProcID(nil), h.hosted...),
		Counters: h.counters,
	}
}

// Errors returns the process errors recorded so far.
func (h *Group) Errors() map[core.ProcID]error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[core.ProcID]error, len(h.errs))
	for p, e := range h.errs {
		out[p] = e
	}
	return out
}

// Crash crash-stops process p: it unwinds at its next operation, its
// registers survive. Crashing a process hosted elsewhere is a no-op.
func (h *Group) Crash(p core.ProcID) {
	if int(p) < 0 || int(p) >= h.n || h.procs[p] == nil {
		return
	}
	h.procs[p].crashed.Store(true)
	h.procs[p].signal() // a parked process unwinds now, not at its next tick
}

// yieldTick bounds how long Yield parks without a wake-up: the slowest
// step rate of a live idle process, and so the resolution of the §5
// algorithms' step-counted timers when nothing else happens. It no
// longer bounds a wait for a remote register's first write, which the
// owner's wake-up ends.
const yieldTick = time.Millisecond

// signal hands ps a wake-up token without blocking; a token already
// pending absorbs it.
func (ps *rtProc) signal() {
	select {
	case ps.wake <- struct{}{}:
	default:
	}
}

// park sleeps until ps holds a wake-up token, yieldTick passes, or the
// group stops. A token that arrived since the last park ends it at once,
// so a wake-up racing the park is never lost; a stale one costs one step.
func (h *Group) park(ps *rtProc) {
	if ps.timer == nil {
		ps.timer = time.NewTimer(yieldTick)
	} else {
		ps.timer.Reset(yieldTick)
	}
	h.parked.Add(1)
	select {
	case <-ps.wake:
	case <-ps.timer.C:
	case <-h.stopCh:
	}
	h.parked.Add(-1)
	// Leave the timer stopped and its channel empty for the next Reset.
	if !ps.timer.Stop() {
		select {
		case <-ps.timer.C:
		default:
		}
	}
}

// wakeParked signals every hosted process after a register of the group
// was written, so a process parked on a register condition re-checks it
// now instead of at its next tick. With nobody parked it costs one load.
func (h *Group) wakeParked() {
	if h.parked.Load() == 0 {
		return
	}
	for _, ps := range h.procs {
		if ps != nil {
			ps.signal()
		}
	}
}

// Exposed returns the value process p last published under name, or nil.
// Processes hosted elsewhere expose nothing here.
func (h *Group) Exposed(p core.ProcID, name string) core.Value {
	if int(p) < 0 || int(p) >= h.n || h.procs[p] == nil {
		return nil
	}
	ps := h.procs[p]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.exposed[name]
}

// Memory returns the local shared register store for observer-level
// inspection. With a distributed transport it holds only the registers
// owned by processes hosted here.
func (h *Group) Memory() *shm.Memory { return h.mem }

// Transport returns the message transport the host runs over (after any
// adversary wrapping).
func (h *Group) Transport() transport.Transport { return h.tr }

// Counters returns the live metrics counters.
func (h *Group) Counters() *metrics.Counters { return h.counters }

// Registry returns the run's observability registry: the same counters as
// Counters plus the latency histograms fed by the transport and the
// remote-register RPC path. Never nil.
func (h *Group) Registry() *metrics.Registry { return h.registry }

// Flight returns the span flight recorder this group records into, or nil
// when span tracing is off.
func (h *Group) Flight() *trace.Flight { return h.spans.Flight() }

// N returns the system size.
func (h *Group) N() int { return h.n }

// Hosted returns the processes this host runs.
func (h *Group) Hosted() []core.ProcID { return append([]core.ProcID(nil), h.hosted...) }

// stopPanic unwinds a process goroutine on stop/crash.
type stopPanic struct{}

// rtEnv implements core.Env on the real-time host.
type rtEnv struct {
	h   *Group
	ps  *rtProc
	all []core.ProcID
}

var _ core.Env = (*rtEnv)(nil)

// alive unwinds the process if the host stopped or the process crashed.
func (e *rtEnv) alive() {
	if e.h.stopped.Load() || e.ps.crashed.Load() {
		panic(stopPanic{})
	}
}

// failed returns err, first unwinding the process if the host stopped or
// the process crashed: Stop closes the transport under running processes,
// and an ErrClosed that causes is the stop, not a process error.
func (e *rtEnv) failed(err error) error {
	if err != nil {
		e.alive()
	}
	return err
}

// step accounts one operation and unwinds if the host stopped or the
// process crashed.
func (e *rtEnv) step() {
	e.alive()
	e.ps.steps.Add(1)
	e.h.counters.Record(e.ps.id, metrics.Steps, 1)
}

// ID implements core.Env.
func (e *rtEnv) ID() core.ProcID { return e.ps.id }

// N implements core.Env.
func (e *rtEnv) N() int { return e.h.n }

// Procs implements core.Env.
func (e *rtEnv) Procs() []core.ProcID { return e.all }

// Neighbors implements core.Env.
func (e *rtEnv) Neighbors() []core.ProcID { return e.ps.neighbors }

// Send implements core.Env. With span tracing on, the send starts a span
// (head-sampled) whose context rides the wire frame to the receiver; the
// Lamport clock ticks on every send either way, so the clock condition
// holds for unsampled traffic too.
func (e *rtEnv) Send(to core.ProcID, payload core.Value) error {
	e.step()
	h := e.h
	sp := h.spans.Start(e.ps.id, trace.Send, func() string { return fmt.Sprintf("→%v %v", to, payload) })
	err := h.tr.Send(e.ps.id, to, payload, h.spans.Outbound(sp))
	sp.Finish(err)
	return e.failed(err)
}

// Broadcast implements core.Env. One span covers the whole fan-out; every
// copy carries the same context.
func (e *rtEnv) Broadcast(payload core.Value) error {
	e.step()
	h := e.h
	sp := h.spans.Start(e.ps.id, trace.Broadcast, func() string { return fmt.Sprintf("%v", payload) })
	err := h.tr.Broadcast(e.ps.id, payload, h.spans.Outbound(sp))
	sp.Finish(err)
	return e.failed(err)
}

// TryRecv implements core.Env. A delivered message's trace context is the
// receive edge: a traced message records a Recv span parented to the
// sender's span, an untraced one still merges its Lamport clock.
func (e *rtEnv) TryRecv() (core.Message, bool) {
	e.alive()
	m, ok := e.h.tr.TryRecv(e.ps.id)
	if ok && e.h.spans != nil {
		if sp := e.h.spans.StartRemote(e.ps.id, trace.Recv, func() string { return fmt.Sprintf("←%v", m.From) }, m.Span); sp != nil {
			sp.Finish(nil)
		} else {
			e.h.spans.Observe(m.Span.Clock)
		}
	}
	return m, ok
}

// Read implements core.Env. The span, when sampled, travels with the
// remote-register RPC and parents the owner node's Serve span.
func (e *rtEnv) Read(ref core.Ref) (core.Value, error) {
	e.step()
	sp := e.h.spans.Start(e.ps.id, trace.RegRead, ref.String)
	r, err := e.h.regOp(e.ps.id, memOp{Kind: opRead, Ref: ref}, sp)
	sp.Finish(err)
	return r.Val, e.failed(err)
}

// Write implements core.Env.
func (e *rtEnv) Write(ref core.Ref, v core.Value) error {
	e.step()
	sp := e.h.spans.Start(e.ps.id, trace.RegWrite, ref.String)
	_, err := e.h.regOp(e.ps.id, memOp{Kind: opWrite, Ref: ref, Val: v}, sp)
	sp.Finish(err)
	return e.failed(err)
}

// CompareAndSwap implements core.Env.
func (e *rtEnv) CompareAndSwap(ref core.Ref, expected, desired core.Value) (bool, core.Value, error) {
	e.step()
	sp := e.h.spans.Start(e.ps.id, trace.CAS, func() string { return fmt.Sprintf("%v %v→%v", ref, expected, desired) })
	r, err := e.h.regOp(e.ps.id, memOp{Kind: opCAS, Ref: ref, Expected: expected, Val: desired}, sp)
	sp.Finish(err)
	return r.Swapped, r.Val, e.failed(err)
}

// Yield implements core.Env: one step, then a park until the process's
// mailbox or its group's registers change, or yieldTick passes. A process
// stopped or crashed while parked unwinds here.
func (e *rtEnv) Yield() {
	e.step()
	e.h.park(e.ps)
	e.alive()
}

// LocalSteps implements core.Env.
func (e *rtEnv) LocalSteps() uint64 { return e.ps.steps.Load() }

// Expose implements core.Env.
func (e *rtEnv) Expose(name string, v core.Value) {
	e.ps.mu.Lock()
	e.ps.exposed[name] = v
	e.ps.mu.Unlock()
}

// Rand implements core.Env. The source is confined to the owning
// goroutine, which seeds it on first use (about 10µs and 4.9KB).
func (e *rtEnv) Rand() *rand.Rand {
	if e.ps.rng == nil {
		e.ps.rng = rand.New(rand.NewSource(e.ps.seed))
	}
	return e.ps.rng
}

// Logf implements core.Env: the line goes to GroupConfig.Logf (if any),
// prefixed with the process id and its local step count — the real-time
// analogue of the simulator's global step prefix.
func (e *rtEnv) Logf(format string, args ...any) {
	if e.h.logf != nil {
		e.h.logf("[local %d] %v: %s", e.ps.steps.Load(), e.ps.id, fmt.Sprintf(format, args...))
	}
}
