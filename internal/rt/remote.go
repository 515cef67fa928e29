// Remote shared-register access for distributed real-time runs.
//
// In the m&m model every register physically resides at its owner (§5.3 of
// the paper: the owner accesses it locally, neighbors access it remotely
// over their shared-memory connection). The real-time host realizes that
// placement literally: when the directory hosts only some of a group's
// processes on this node, a register whose owner lives on another node is
// read, written or CAS'd by a synchronous call over the group view's RPC
// plane, and the owner's node serves it out of its local shm.Memory. An
// op costs one goroutine hop, at the owner: the caller blocks in the call
// on its own process goroutine, which mostly writes the request itself,
// and the owner serves on the receive loop that read the request, so the
// handler never blocks on the network. The owner checks the domain
// against the sender the transport validated, not against anything the
// request says about itself, so shared-memory access control
// (core.ErrAccessDenied outside {owner} ∪ neighbors(owner)) is enforced
// exactly as in a single process.
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

// memReadReq asks the owner's node to read Ref on behalf of the sender.
type memReadReq struct {
	Ref core.Ref
}

// memReadResp carries the value read.
type memReadResp struct {
	Val core.Value
}

// memWriteReq asks the owner's node to write Ref on behalf of the sender.
// A successful write has a nil response payload.
type memWriteReq struct {
	Ref core.Ref
	Val core.Value
}

// memCASReq asks the owner's node to compare-and-swap Ref on behalf of
// the sender.
type memCASReq struct {
	Ref      core.Ref
	Expected core.Value
	Desired  core.Value
}

// memCASResp carries the CAS outcome.
type memCASResp struct {
	Swapped bool
	Current core.Value
}

// callRemote performs one register RPC on the calling process goroutine:
// it blocks in CallSpan until the owner answers or Stop closes the
// group's view, which ends the call with transport.ErrClosed (the process
// then unwinds, see rtEnv.failed). Like a register of the model, the op
// has no other outcome: there is no timeout, and an owner that is slow,
// restarting or has not opened the group yet is waited for.
//
// sp is the caller's span for the operation (nil when unsampled or
// tracing is off): its context rides the request frame, and the server's
// response context merges back into the local Lamport clock — the two
// wire edges of a traced remote register op.
func (h *Group) callRemote(p core.ProcID, owner core.ProcID, req core.Value, sp *trace.Span) (core.Value, error) {
	v, rsc, err := h.rpc.CallSpan(p, owner, req, h.spans.Outbound(sp))
	h.spans.Observe(rsc.Clock)
	return v, err
}

// readReg reads ref for process p, locally when the owner is hosted here
// and over RPC otherwise.
func (h *Group) readReg(p core.ProcID, ref core.Ref, sp *trace.Span) (core.Value, error) {
	if h.rpc == nil || h.hostedSet[ref.Owner] {
		return h.mem.Read(p, ref)
	}
	start := time.Now()
	resp, err := h.callRemote(p, ref.Owner, memReadReq{Ref: ref}, sp)
	h.registry.Histogram(metrics.HistRemoteRead).Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	rr, ok := resp.(memReadResp)
	if !ok {
		return nil, fmt.Errorf("rt: remote read of %v returned %T", ref, resp)
	}
	return rr.Val, nil
}

// writeReg writes ref for process p, locally or over RPC. A local write
// wakes the group's parked processes and ref's remote watchers; a remote
// one wakes the owner's, in serveMem.
func (h *Group) writeReg(p core.ProcID, ref core.Ref, v core.Value, sp *trace.Span) error {
	if h.rpc == nil || h.hostedSet[ref.Owner] {
		err := h.mem.Write(p, ref, v)
		if err == nil {
			h.wakeParked()
			h.wakeWatchers(ref, p)
		}
		return err
	}
	start := time.Now()
	_, err := h.callRemote(p, ref.Owner, memWriteReq{Ref: ref, Val: v}, sp)
	h.registry.Histogram(metrics.HistRemoteWrite).Observe(time.Since(start))
	return err
}

// casReg compare-and-swaps ref for process p, locally or over RPC; a
// local swap wakes like writeReg.
func (h *Group) casReg(p core.ProcID, ref core.Ref, expected, desired core.Value, sp *trace.Span) (bool, core.Value, error) {
	if h.rpc == nil || h.hostedSet[ref.Owner] {
		swapped, cur, err := h.mem.CompareAndSwap(p, ref, expected, desired)
		if swapped {
			h.wakeParked()
			h.wakeWatchers(ref, p)
		}
		return swapped, cur, err
	}
	start := time.Now()
	resp, err := h.callRemote(p, ref.Owner, memCASReq{Ref: ref, Expected: expected, Desired: desired}, sp)
	h.registry.Histogram(metrics.HistRemoteCAS).Observe(time.Since(start))
	if err != nil {
		return false, nil, err
	}
	cr, ok := resp.(memCASResp)
	if !ok {
		return false, nil, fmt.Errorf("rt: remote CAS of %v returned %T", ref, resp)
	}
	return cr.Swapped, cr.Current, nil
}

// reqName renders a register request for span naming.
func reqName(req core.Value) string {
	switch r := req.(type) {
	case memReadReq:
		return fmt.Sprintf("read %v", r.Ref)
	case memWriteReq:
		return fmt.Sprintf("write %v", r.Ref)
	case memCASReq:
		return fmt.Sprintf("cas %v", r.Ref)
	default:
		return fmt.Sprintf("%T", req)
	}
}

// serveMemSpan is the RPC handler the group's view is opened with, run on
// the receive loop that read the request: a traced request records a
// Serve span parented to the caller's span, and the response carries this
// node's clock (plus the serve span's identity) back so the caller's
// timeline orders the round trip. Untraced requests still merge the
// clock, and name no span.
func (h *Group) serveMemSpan(from core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error) {
	sp := h.spans.StartRemote(from, trace.Serve, func() string { return reqName(req) }, sc)
	if sp == nil {
		h.spans.Observe(sc.Clock)
	}
	v, err := h.serveMem(from, req)
	rsc := h.spans.Outbound(sp)
	sp.Finish(err)
	return v, rsc, err
}

// serveMem serves register operations from process from for registers
// owned by processes hosted here, out of the local shm.Memory, which
// enforces the shared-memory domain against from: the sender the
// transport validated, never a field of the request. A read that finds
// the register empty watches it for from; a served write or successful
// CAS wakes this node's parked processes of the group and the register's
// watchers, as a local one does.
func (h *Group) serveMem(from core.ProcID, req core.Value) (core.Value, error) {
	switch r := req.(type) {
	case memReadReq:
		if !h.hostedSet[r.Ref.Owner] {
			return nil, fmt.Errorf("rt: register %v not owned by this node", r.Ref)
		}
		v, err := h.mem.Read(from, r.Ref)
		if err != nil {
			return nil, err
		}
		if v == nil && h.rpc != nil {
			// Watch, then look again: a write the second look misses
			// comes after the watch, so it finds it. A value found now
			// is the read's answer and needs no watch.
			h.watch.add(r.Ref, from)
			if v, _ = h.mem.Peek(r.Ref); v != nil {
				h.watch.remove(r.Ref, from)
			}
		}
		return memReadResp{Val: v}, nil
	case memWriteReq:
		if !h.hostedSet[r.Ref.Owner] {
			return nil, fmt.Errorf("rt: register %v not owned by this node", r.Ref)
		}
		if err := h.mem.Write(from, r.Ref, r.Val); err != nil {
			return nil, err
		}
		h.wakeParked()
		h.wakeWatchers(r.Ref, from)
		return nil, nil
	case memCASReq:
		if !h.hostedSet[r.Ref.Owner] {
			return nil, fmt.Errorf("rt: register %v not owned by this node", r.Ref)
		}
		swapped, current, err := h.mem.CompareAndSwap(from, r.Ref, r.Expected, r.Desired)
		if err != nil {
			return nil, err
		}
		if swapped {
			h.wakeParked()
			h.wakeWatchers(r.Ref, from)
		}
		return memCASResp{Swapped: swapped, Current: current}, nil
	default:
		return nil, fmt.Errorf("rt: unknown RPC request %T", req)
	}
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

// wakeWatchers runs after every write and every swapping CAS of ref: it
// takes ref's watchers and wakes each at its node, except writer, which
// needs no news of its own write, metering each wake as RemoteWakes under
// the woken process. With nobody watching it costs one atomic load, and
// no lock is held while it queues the wakes.
func (h *Group) wakeWatchers(ref core.Ref, writer core.ProcID) {
	for _, p := range h.watch.take(ref) {
		if p != writer {
			h.rpc.Wake(p)
			h.counters.Record(p, metrics.RemoteWakes, 1)
		}
	}
}
