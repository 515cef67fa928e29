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
package rt

import (
	"fmt"
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
// wakes the group's parked processes; a remote one wakes the owner's, in
// serveMem.
func (h *Group) writeReg(p core.ProcID, ref core.Ref, v core.Value, sp *trace.Span) error {
	if h.rpc == nil || h.hostedSet[ref.Owner] {
		err := h.mem.Write(p, ref, v)
		if err == nil {
			h.wakeParked()
		}
		return err
	}
	start := time.Now()
	_, err := h.callRemote(p, ref.Owner, memWriteReq{Ref: ref, Val: v}, sp)
	h.registry.Histogram(metrics.HistRemoteWrite).Observe(time.Since(start))
	return err
}

// casReg compare-and-swaps ref for process p, locally or over RPC; a
// local swap wakes parked processes like writeReg.
func (h *Group) casReg(p core.ProcID, ref core.Ref, expected, desired core.Value, sp *trace.Span) (bool, core.Value, error) {
	if h.rpc == nil || h.hostedSet[ref.Owner] {
		swapped, cur, err := h.mem.CompareAndSwap(p, ref, expected, desired)
		if swapped {
			h.wakeParked()
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
// transport validated, never a field of the request. A served write or
// successful CAS wakes this node's parked processes of the group, as a
// local one does.
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
		return memReadResp{Val: v}, nil
	case memWriteReq:
		if !h.hostedSet[r.Ref.Owner] {
			return nil, fmt.Errorf("rt: register %v not owned by this node", r.Ref)
		}
		if err := h.mem.Write(from, r.Ref, r.Val); err != nil {
			return nil, err
		}
		h.wakeParked()
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
		}
		return memCASResp{Swapped: swapped, Current: current}, nil
	default:
		return nil, fmt.Errorf("rt: unknown RPC request %T", req)
	}
}
