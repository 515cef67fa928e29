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
// Messages travel over a transport.Transport. The default is the
// in-process channel backend (transport.Chan, the exact message path this
// host used before the transport layer existed); a group opened on a Node
// over a transport/tcp.Transport runs the same algorithms across OS
// processes over real sockets. With a distributed transport, the hosted
// set restricts which processes this host actually runs; shared registers
// owned by remote processes are reached through the transport's RPC plane,
// served by the owner's host out of its local register store (so
// shared-memory domain checks always happen at the owner).
//
// A host has one meter and one recorder: every counter and latency
// histogram goes into Config.Registry, and every traced operation is a span
// in Config.Flight. The simulator's step-indexed event log
// (trace.Recorder) has no real-time counterpart.
//
// A step is one operation, and Yield — the step an idle process takes —
// is one step followed by a park: the process sleeps until a message lands
// in its mailbox, a register of its group is written, the group stops or
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

// Config describes a real-time m&m system.
type Config struct {
	// RunConfig holds the host-independent knobs: GSM (required), Links,
	// Drop, Seed and Logf.
	runcfg.RunConfig

	// Transport carries messages between processes. Nil selects the
	// in-process channel backend, preserving the host's historical
	// behavior exactly. A non-nil transport must span the same n as GSM;
	// if Drop is also set, the transport is wrapped in transport.Lossy.
	// The host owns the transport from then on: Stop closes it (for a
	// group view, Close detaches the group; the node drains at its own
	// Close). Node.OpenGroup is the usual way to get one.
	Transport transport.Transport

	// Hosted lists the processes this host actually runs. Empty means all
	// of them. A strict subset requires a Transport whose concrete type
	// implements transport.RPC (e.g. a transport/tcp.Group view), because
	// registers owned by remote processes are accessed through it.
	Hosted []core.ProcID

	// Registry, if non-nil, is the unified observability plane of the run:
	// counters plus latency histograms, handed to the transport (via
	// transport.Instrumentable) so every backend reports the same schema,
	// and fed by the host's remote-register RPC timing. If nil, a fresh one
	// is created; either way it is the run's single metering object.
	Registry *metrics.Registry

	// Durable, if non-nil, journals every register mutation of this
	// group's shm.Memory (append + fsync before the write becomes
	// visible) and seeds the memory with the store's recovered state
	// before any process runs — the crash-recovery fault model of the
	// paper ("the shared memory does not fail"), see internal/durable.
	// The group owns the store from then on: Stop closes it after the
	// transport drains.
	Durable *durable.Registers

	// Flight, if non-nil, is the node's span flight recorder — the host's
	// only trace: the group's op sites start spans in it, send/RPC edges
	// carry their context over the transport's span plane (wire v4), and
	// span latencies feed the Registry's "span_<kind>" histograms. Nil (the
	// default) disables tracing at zero cost on the hot path.
	Flight *trace.Flight
	// SpanGroup labels this group's spans: "group-<id>" for a group opened
	// on a Node, matching its default metrics sub-registry label; empty for
	// a host built directly with New.
	SpanGroup string
}

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
	spanTr    transport.SpanCarrier // tr's span plane; nil when unsupported
	rpc       transport.RPC         // nil when every register owner is hosted
	srpc      transport.SpanRPC     // rpc's span plane; nil when unsupported
	counters  *metrics.Counters
	registry  *metrics.Registry
	durable   *durable.Registers // nil unless Config.Durable was set
	spans     *trace.Scope       // nil when span tracing is off
	logf      func(format string, args ...any)
	procs     []*rtProc // nil entries for processes hosted elsewhere
	wg        sync.WaitGroup
	stopped   atomic.Bool
	started   atomic.Bool
	stopCh    chan struct{}
	stopOnce  sync.Once
	parked    atomic.Int32 // processes inside park; register writes wake them

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
	rng     *rand.Rand // used only by the owning goroutine

	// wake holds at most one pending wake-up token; park sleeps on it.
	// timer is park's reused yieldTick timer, owned by the process
	// goroutine (nil until the first park).
	wake  chan struct{}
	timer *time.Timer

	mu      sync.Mutex
	exposed map[string]core.Value

	neighbors []core.ProcID
}

// New builds a host for alg over the system described by cfg. Processes do
// not run until Start is called.
func New(cfg Config, alg core.Algorithm) (*Group, error) {
	if cfg.GSM == nil {
		return nil, errors.New("rt: Config.GSM is required")
	}
	n := cfg.GSM.N()
	if n == 0 {
		return nil, errors.New("rt: empty system")
	}
	if cfg.Links == 0 {
		cfg.Links = msgnet.Reliable
	}
	registry := cfg.Registry
	if registry == nil {
		registry = metrics.NewRegistry(n)
	}
	counters := registry.Counters()

	hosted, hostedSet, err := hostedProcs(n, cfg.Hosted)
	if err != nil {
		return nil, err
	}

	tr := cfg.Transport
	var rpc transport.RPC
	if tr == nil {
		if len(hosted) < n {
			return nil, errors.New("rt: Config.Hosted subset requires a distributed Transport")
		}
		netOpts := []msgnet.NetOption{msgnet.WithNetCounters(counters)}
		if cfg.Drop != nil {
			netOpts = append(netOpts, msgnet.WithDropPolicy(cfg.Drop))
		}
		tr = transport.NewChan(n, cfg.Links, netOpts...)
	} else {
		if tr.N() != n {
			return nil, fmt.Errorf("rt: transport spans %d processes, GSM has %d", tr.N(), n)
		}
		rpc, _ = tr.(transport.RPC)
		if len(hosted) < n && rpc == nil {
			return nil, errors.New("rt: Config.Hosted subset requires a Transport implementing transport.RPC")
		}
		if cfg.Drop != nil {
			// The drop decision happens above the wire, so the fair-loss
			// adversary composes with any backend. The RPC plane is not
			// wrapped: remote register access models RDMA, not links.
			tr = transport.NewLossy(tr, cfg.Drop, counters)
		}
	}
	if len(hosted) == n {
		rpc = nil // every owner is local; never leave the process
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
		tr:        tr,
		rpc:       rpc,
		counters:  counters,
		registry:  registry,
		durable:   cfg.Durable,
		spans:     cfg.Flight.Scope(cfg.SpanGroup, registry),
		logf:      cfg.Logf,
		procs:     make([]*rtProc, n),
		errs:      make(map[core.ProcID]error),
		stopCh:    make(chan struct{}),
	}
	// Seed recovered registers before any handler or process can observe
	// the memory: recovery must look like the state simply survived.
	if cfg.Durable != nil {
		for ref, v := range cfg.Durable.Recovered() {
			h.mem.Restore(ref, v)
			counters.Record(ref.Owner, metrics.RecoveredRegisters, 1)
		}
	}
	// Resolve the transport's span planes once, not per op. The adversary
	// wrappers forward them, so wrapping does not lose the trace context.
	h.spanTr, _ = tr.(transport.SpanCarrier)
	if rpc != nil {
		h.srpc, _ = rpc.(transport.SpanRPC)
		if h.srpc != nil {
			h.srpc.SetSpanHandler(h.serveMemSpan)
		} else {
			rpc.SetHandler(h.serveMem)
		}
	}
	// Instrument the transport (after any adversary wrapping, before Dial)
	// so backends with wire events — frames, reconnects, RPCs — report into
	// the same registry as the host's own counters.
	if in, ok := tr.(transport.Instrumentable); ok {
		in.Instrument(registry)
	}
	if err := tr.Dial(); err != nil {
		return nil, fmt.Errorf("rt: transport dial: %w", err)
	}
	for _, p := range hosted {
		ns := cfg.GSM.Neighbors(int(p))
		neighbors := make([]core.ProcID, len(ns))
		for i, q := range ns {
			neighbors[i] = core.ProcID(q)
		}
		ps := &rtProc{
			id:        p,
			rng:       rand.New(rand.NewSource(cfg.Seed ^ (0x9e3779b9 * int64(p+1)))),
			wake:      make(chan struct{}, 1),
			exposed:   make(map[string]core.Value),
			neighbors: neighbors,
		}
		h.procs[p] = ps
		tr.SetWake(p, ps.wake)
	}
	h.allProcsInit(alg)
	return h, nil
}

// hostedProcs validates and normalizes the hosted set (empty means all).
func hostedProcs(n int, req []core.ProcID) ([]core.ProcID, map[core.ProcID]bool, error) {
	set := make(map[core.ProcID]bool, len(req))
	if len(req) == 0 {
		out := make([]core.ProcID, n)
		for p := 0; p < n; p++ {
			out[p] = core.ProcID(p)
			set[core.ProcID(p)] = true
		}
		return out, set, nil
	}
	var out []core.ProcID
	for _, p := range req {
		if int(p) < 0 || int(p) >= n {
			return nil, nil, fmt.Errorf("rt: hosted process %v out of range [0,%d)", p, n)
		}
		if !set[p] {
			set[p] = true
			out = append(out, p)
		}
	}
	return out, set, nil
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

// Stop asks every still-running process to unwind at its next operation,
// waits for all goroutines to exit, then closes the transport — which for
// socket backends drains unacknowledged frames before tearing down
// connections. Safe to call multiple times.
func (h *Group) Stop() *Result {
	h.stopped.Store(true)
	h.stopOnce.Do(func() { close(h.stopCh) })
	if !h.started.Load() {
		h.Start()
	}
	h.wg.Wait()
	h.finish()
	h.closeOnce.Do(func() {
		if err := h.tr.Close(); err != nil && h.logf != nil {
			h.logf("rt: transport close: %v", err)
		}
		// The durable store outlives the transport teardown: remote
		// register RPCs served during the drain may still journal.
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
// algorithms' step-counted timers when nothing else happens.
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

// Network returns the underlying in-process msgnet.Network when the host
// runs over the channel backend, for observer-level inspection; it returns
// nil over any other transport.
func (h *Group) Network() *msgnet.Network {
	if c, ok := h.tr.(*transport.Chan); ok {
		return c.Network()
	}
	return nil
}

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
	if h.spans == nil {
		return h.tr.Send(e.ps.id, to, payload)
	}
	sp := h.spans.Start(e.ps.id, trace.Send, fmt.Sprintf("→%v %v", to, payload))
	sc := h.spans.Outbound(sp)
	var err error
	if h.spanTr != nil {
		err = h.spanTr.SendSpan(e.ps.id, to, payload, sc)
	} else {
		err = h.tr.Send(e.ps.id, to, payload)
	}
	sp.Finish(err)
	return err
}

// Broadcast implements core.Env. One span covers the whole fan-out; every
// copy carries the same context.
func (e *rtEnv) Broadcast(payload core.Value) error {
	e.step()
	h := e.h
	if h.spans == nil {
		return h.tr.Broadcast(e.ps.id, payload)
	}
	sp := h.spans.Start(e.ps.id, trace.Broadcast, fmt.Sprintf("%v", payload))
	sc := h.spans.Outbound(sp)
	var err error
	if h.spanTr != nil {
		err = h.spanTr.BroadcastSpan(e.ps.id, payload, sc)
	} else {
		err = h.tr.Broadcast(e.ps.id, payload)
	}
	sp.Finish(err)
	return err
}

// TryRecv implements core.Env. A delivered message's trace context is the
// receive edge: a traced message records a Recv span parented to the
// sender's span, an untraced one still merges its Lamport clock.
func (e *rtEnv) TryRecv() (core.Message, bool) {
	e.alive()
	m, ok := e.h.tr.TryRecv(e.ps.id)
	if ok && e.h.spans != nil {
		if m.Span.Traced() {
			sp := e.h.spans.StartRemote(e.ps.id, trace.Recv, fmt.Sprintf("←%v", m.From), m.Span)
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
	var sp *trace.Span
	if e.h.spans != nil {
		sp = e.h.spans.Start(e.ps.id, trace.RegRead, fmt.Sprintf("%v", ref))
	}
	v, err := e.h.readReg(e.ps.id, ref, sp)
	sp.Finish(err)
	return v, err
}

// Write implements core.Env.
func (e *rtEnv) Write(ref core.Ref, v core.Value) error {
	e.step()
	var sp *trace.Span
	if e.h.spans != nil {
		sp = e.h.spans.Start(e.ps.id, trace.RegWrite, fmt.Sprintf("%v", ref))
	}
	err := e.h.writeReg(e.ps.id, ref, v, sp)
	sp.Finish(err)
	return err
}

// CompareAndSwap implements core.Env.
func (e *rtEnv) CompareAndSwap(ref core.Ref, expected, desired core.Value) (bool, core.Value, error) {
	e.step()
	var sp *trace.Span
	if e.h.spans != nil {
		sp = e.h.spans.Start(e.ps.id, trace.CAS, fmt.Sprintf("%v %v→%v", ref, expected, desired))
	}
	swapped, cur, err := e.h.casReg(e.ps.id, ref, expected, desired, sp)
	sp.Finish(err)
	return swapped, cur, err
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
// goroutine.
func (e *rtEnv) Rand() *rand.Rand { return e.ps.rng }

// Logf implements core.Env: the line goes to Config.Logf (if any),
// prefixed with the process id and its local step count — the real-time
// analogue of the simulator's global step prefix.
func (e *rtEnv) Logf(format string, args ...any) {
	if e.h.logf != nil {
		e.h.logf("[local %d] %v: %s", e.ps.steps.Load(), e.ps.id, fmt.Sprintf(format, args...))
	}
}
