// Remote shared-register access for distributed real-time runs.
//
// In the m&m model every register physically resides at its owner (§5.3 of
// the paper: the owner accesses it locally, neighbors access it remotely
// over their shared-memory connection). The real-time host realizes that
// placement literally: every register op is one memOp, applied (apply) to
// the owner's local shm.Memory — at once when the owner is hosted here,
// and otherwise by the owner's node serving a synchronous call over the
// group view's RPC plane. A remote op costs one goroutine hop, at the
// owner: the caller blocks in the call on its own process goroutine,
// which mostly writes the request itself, and the owner serves on the
// receive loop that read the request, so the handler never blocks on the
// network. The owner checks the domain against the sender the transport
// validated, not against anything the request says about itself, so
// shared-memory access control (core.ErrAccessDenied outside {owner} ∪
// neighbors(owner)) is enforced exactly as in a single process.
//
// A remote reader that finds a register empty is usually polling for its
// first write, as an rsm follower polls a log slot, and parks when the
// poll fails. Nothing on its own node learns of that write, so the owner
// remembers the reader (watchTable) and, when the register is first
// written, sends its node one wake-up (SpanRPC.Wake) that ends the park.
// Only empty registers are watched: a register rewritten while others
// read it — Ω's heartbeat — costs no frame per read.
package rt

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/trace"
)

// memOpKind is the operation a memOp performs.
type memOpKind uint8

const (
	opRead memOpKind = iota
	opWrite
	opCAS
)

// opNames and remoteHist give each kind's span name and the latency
// histogram its remote ops are timed into.
var (
	opNames    = [...]string{opRead: "read", opWrite: "write", opCAS: "cas"}
	remoteHist = [...]string{opRead: metrics.HistRemoteRead, opWrite: metrics.HistRemoteWrite, opCAS: metrics.HistRemoteCAS}
)

// memOp is one register operation, applied where the register lives: a
// read of Ref, a write of Val, or a compare-and-swap of Expected for Val.
// A remote one is the RPC request, so it carries nothing about its
// caller: the owner checks the sender the transport validated.
type memOp struct {
	Kind     memOpKind
	Ref      core.Ref
	Expected core.Value
	Val      core.Value
}

// memResult is a memOp's outcome: Val is the value read, or a CAS's
// current value; Swapped reports a CAS that swapped. A remote one is the
// RPC response.
type memResult struct {
	Val     core.Value
	Swapped bool
}

// String renders the op for span naming.
func (op memOp) String() string {
	if int(op.Kind) < len(opNames) {
		return opNames[op.Kind] + " " + op.Ref.String()
	}
	return fmt.Sprintf("op %d %v", op.Kind, op.Ref)
}

// regOp performs op for process p: it applies op here when the
// register's owner is hosted here, and otherwise makes one call to the
// owner's node on the calling process goroutine, timed into remoteHist.
// The call blocks until the owner answers or Stop closes the group's
// view, which ends it with transport.ErrClosed (the process then
// unwinds, see rtEnv.failed). Like a register of the model, the op has no
// other outcome: there is no timeout, and an owner that is slow,
// restarting or has not opened the group yet is waited for.
//
// sp is the caller's span for the operation (nil when unsampled or
// tracing is off): its context rides the request frame, and the server's
// response context merges back into the local Lamport clock — the two
// wire edges of a traced remote register op.
func (h *Group) regOp(p core.ProcID, op memOp, sp *trace.Span) (memResult, error) {
	if h.rpc == nil || h.hostedSet[op.Ref.Owner] {
		return h.apply(p, op)
	}
	start := time.Now()
	resp, rsc, err := h.rpc.CallSpan(p, op.Ref.Owner, op, h.spans.Outbound(sp))
	h.spans.Observe(rsc.Clock)
	h.registry.Histogram(remoteHist[op.Kind]).Observe(time.Since(start))
	if err != nil {
		return memResult{}, err
	}
	r, ok := resp.(memResult)
	if !ok {
		return memResult{}, fmt.Errorf("rt: remote %v returned %T", op, resp)
	}
	return r, nil
}

// apply performs op for process p on the local memory, which enforces the
// shared-memory domain against p. A write, or a CAS that swaps, wakes the
// group's parked processes and the register's remote watchers: the one
// place a register op wakes anyone.
func (h *Group) apply(p core.ProcID, op memOp) (r memResult, err error) {
	switch op.Kind {
	case opRead:
		r.Val, err = h.mem.Read(p, op.Ref)
		return r, err
	case opWrite:
		if err = h.mem.Write(p, op.Ref, op.Val); err != nil {
			return r, err
		}
	case opCAS:
		if r.Swapped, r.Val, err = h.mem.CompareAndSwap(p, op.Ref, op.Expected, op.Val); !r.Swapped {
			return r, err
		}
	default:
		return r, fmt.Errorf("rt: unknown register op %d", op.Kind)
	}
	h.wakeParked()
	h.wakeWatchers(op.Ref, p)
	return r, nil
}

// serveMemSpan is the RPC handler the group's view is opened with, run on
// the receive loop that read the request: a traced request records a
// Serve span parented to the caller's span, and the response carries this
// node's clock (plus the serve span's identity) back so the caller's
// timeline orders the round trip. Untraced requests still merge the
// clock, and name no span.
func (h *Group) serveMemSpan(from core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error) {
	sp := h.spans.StartRemote(from, trace.Serve, func() string { return fmt.Sprint(req) }, sc)
	if sp == nil {
		h.spans.Observe(sc.Clock)
	}
	v, err := h.serveMem(from, req)
	rsc := h.spans.Outbound(sp)
	sp.Finish(err)
	return v, rsc, err
}

// serveMem applies a register op from process from to a register owned
// by a process hosted here. apply checks the domain against from, the
// sender the transport validated, never a field of the request. A read
// that finds the register empty watches it for from, so its first write
// wakes from at its node.
func (h *Group) serveMem(from core.ProcID, req core.Value) (core.Value, error) {
	op, ok := req.(memOp)
	if !ok {
		return nil, fmt.Errorf("rt: unknown RPC request %T", req)
	}
	if !h.hostedSet[op.Ref.Owner] {
		return nil, fmt.Errorf("rt: register %v not owned by this node", op.Ref)
	}
	r, err := h.apply(from, op)
	if err != nil {
		return nil, err
	}
	if op.Kind == opRead && r.Val == nil && h.rpc != nil {
		// Watch, then look again: a write the second look misses comes
		// after the watch, so it finds it. A value found now is the
		// read's answer and needs no watch.
		h.watch.add(op.Ref, from)
		if r.Val, _ = h.mem.Peek(op.Ref); r.Val != nil {
			h.watch.remove(op.Ref, from)
		}
	}
	return r, nil
}

// watchTable holds, per register owned here, the remote processes whose
// served read found it empty and that it has not woken since: a set per
// register, filled by serveMem and emptied by wakeWatchers. n counts the
// entries, so a write that nobody watches costs one atomic load. Only a
// group with an RPC plane fills it.
type watchTable struct {
	n  atomic.Int64
	mu sync.Mutex
	m  map[core.Ref][]core.ProcID
}

// add watches ref for p; a second add before the wake is a no-op.
func (w *watchTable) add(ref core.Ref, p core.ProcID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if slices.Contains(w.m[ref], p) {
		return
	}
	if w.m == nil {
		w.m = make(map[core.Ref][]core.ProcID)
	}
	w.m[ref] = append(w.m[ref], p)
	w.n.Add(1)
}

// remove stops watching ref for p, if it still is.
func (w *watchTable) remove(ref core.Ref, p core.ProcID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ps := w.m[ref]
	i := slices.Index(ps, p)
	if i < 0 {
		return
	}
	if ps = slices.Delete(ps, i, i+1); len(ps) == 0 {
		delete(w.m, ref)
	} else {
		w.m[ref] = ps
	}
	w.n.Add(-1)
}

// take removes and returns ref's watchers.
func (w *watchTable) take(ref core.Ref) []core.ProcID {
	if w.n.Load() == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ps := w.m[ref]
	if ps != nil {
		delete(w.m, ref)
		w.n.Add(-int64(len(ps)))
	}
	return ps
}

// wakeWatchers runs, from apply, after every write and every swapping
// CAS of ref: it takes ref's watchers and wakes each at its node, except
// writer, which needs no news of its own write, metering each wake as
// RemoteWakes under the woken process. With nobody watching it costs one
// atomic load, and no lock is held while it queues the wakes.
func (h *Group) wakeWatchers(ref core.Ref, writer core.ProcID) {
	for _, p := range h.watch.take(ref) {
		if p != writer {
			h.rpc.Wake(p)
			h.counters.Record(p, metrics.RemoteWakes, 1)
		}
	}
}
