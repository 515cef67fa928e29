package tcp

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/queue"
	"github.com/mnm-model/mnm/internal/transport"
)

// Group is one group's view of a node, returned by OpenGroup: a
// transport.Transport + RPC + Instrumentable with its own process
// numbering 0..n-1, mailboxes, address table and RPC handler, whose
// Send/Broadcast/TryRecv/Call route only within the group, multiplexed
// with every other group over the node's shared peers, sequence numbers
// and acks. Close detaches only this group; the node stays up.
type Group struct {
	t      *Transport
	id     uint32
	n      int
	hosted map[core.ProcID]bool

	// reg and counters meter this group's messages and RPCs; they come
	// from GroupConfig.Registry or Instrument on the view.
	reg      atomic.Pointer[metrics.Registry]
	counters atomic.Pointer[metrics.Counters]

	// Guarded by t.mu.
	addrs       []string
	mailboxes   map[core.ProcID]*queue.Mailbox[core.Message]
	handler     func(from core.ProcID, req core.Value) (core.Value, error)
	spanHandler transport.SpanHandler // supersedes handler when set
	dialed      bool
	closed      bool
}

var (
	_ transport.Transport      = (*Group)(nil)
	_ transport.SpanCarrier    = (*Group)(nil)
	_ transport.RPC            = (*Group)(nil)
	_ transport.SpanRPC        = (*Group)(nil)
	_ transport.Instrumentable = (*Group)(nil)
)

// OpenGroup implements transport.Sharded: it registers group id over this
// node and returns its view, a *Group. The group's frames share the
// node's per-peer connections, sequence numbers and cumulative acks with
// every other group; only the demux state (mailboxes, address table, RPC
// handler, metrics) is per group. cfg.Addrs maps the group's processes to
// node listen addresses and may be nil only when every process is local.
// Any id may be opened, 0 included; opening one that is already open is
// an error. The first group opened puts the node on the wire (see New).
func (t *Transport) OpenGroup(id transport.GroupID, cfg transport.GroupConfig) (transport.Transport, error) {
	if cfg.N <= 0 {
		return nil, errors.New("tcp: GroupConfig.N must be positive")
	}
	hosted, err := hostedSet(cfg.N, cfg.Hosted)
	if err != nil {
		return nil, err
	}
	g := &Group{
		t:         t,
		id:        uint32(id),
		n:         cfg.N,
		hosted:    hosted,
		mailboxes: make(map[core.ProcID]*queue.Mailbox[core.Message], len(hosted)),
	}
	for p := range hosted {
		g.mailboxes[p] = new(queue.Mailbox[core.Message])
	}
	g.Instrument(cfg.Registry)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, transport.ErrClosed
	}
	if _, dup := t.groups[uint32(id)]; dup {
		return nil, fmt.Errorf("tcp: group %d already open", id)
	}
	if cfg.Addrs != nil {
		if err := g.setAddrsLocked(cfg.Addrs); err != nil {
			return nil, err
		}
	} else if len(hosted) != cfg.N {
		return nil, fmt.Errorf("tcp: group %d hosts %d of %d processes but has no address table", id, len(hosted), cfg.N)
	}
	t.groups[uint32(id)] = g
	t.startLocked(minHosted(hosted))
	return g, nil
}

// setAddrsLocked installs the group's process→node address table. Caller
// holds t.mu.
func (g *Group) setAddrsLocked(addrs []string) error {
	if len(addrs) != g.n {
		return fmt.Errorf("tcp: need %d addresses, got %d", g.n, len(addrs))
	}
	for p, a := range addrs {
		if g.hosted[core.ProcID(p)] != (a == g.t.addr) {
			if g.hosted[core.ProcID(p)] {
				return fmt.Errorf("tcp: hosted process %d mapped to %q, this node is %q", p, a, g.t.addr)
			}
			return fmt.Errorf("tcp: remote process %d mapped to this node's address %q", p, a)
		}
	}
	g.addrs = append([]string(nil), addrs...)
	return nil
}

// isProc reports whether p is a process of the group, 0 ≤ p < n.
func (g *Group) isProc(p core.ProcID) bool { return p >= 0 && int(p) < g.n }

// registry returns the group's registry (nil-safe to use).
func (g *Group) registry() *metrics.Registry { return g.reg.Load() }

// record meters one group-scoped counter event.
func (g *Group) record(p core.ProcID, k metrics.Kind, delta int64) {
	g.counters.Load().Record(p, k, delta)
}

// remoteAddrsLocked returns the distinct remote node addresses of this
// group, sorted. Caller holds t.mu.
func (g *Group) remoteAddrsLocked() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range g.addrs {
		if a != g.t.addr && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// ID returns the group's identifier.
func (g *Group) ID() transport.GroupID { return transport.GroupID(g.id) }

// N implements transport.Transport.
func (g *Group) N() int { return g.n }

// Dial implements transport.Transport: it starts a connection manager for
// every remote node of the group (idempotent). Connections are established
// asynchronously with Timeouts.Connect per attempt and bounded exponential
// backoff between attempts, so Dial returns immediately; LinkState reports
// progress. Peers are shared across groups: a peer that another group
// already created is reused, connection and all.
func (g *Group) Dial() error {
	t := g.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || g.closed {
		return transport.ErrClosed
	}
	if g.dialed {
		return nil
	}
	g.dialed = true
	for _, a := range g.remoteAddrsLocked() {
		t.peerLocked(a)
	}
	return nil
}

// Send implements transport.Transport.
func (g *Group) Send(from, to core.ProcID, payload core.Value) error {
	return g.SendSpan(from, to, payload, core.SpanContext{})
}

// SendSpan implements transport.SpanCarrier: the context rides the wire
// v4 frame header and surfaces as Message.Span at the receiver. The
// transport never interprets the context; a zero context writes zero
// header fields, which the receive side surfaces as an untraced message.
func (g *Group) SendSpan(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if !g.isProc(to) {
		return fmt.Errorf("%w: send to %v", core.ErrUnknownProc, to)
	}
	if !g.isProc(from) {
		return fmt.Errorf("%w: send from %v", core.ErrUnknownProc, from)
	}
	g.record(from, metrics.MsgSent, 1)
	t := g.t
	if g.hosted[to] {
		t.mu.Lock()
		if t.closed || g.closed {
			t.mu.Unlock()
			return transport.ErrClosed
		}
		g.deliverLocked(core.Message{From: from, Payload: payload, Span: sc}, to)
		t.mu.Unlock()
		return nil
	}
	t.mu.Lock()
	if t.closed || g.closed {
		t.mu.Unlock()
		return transport.ErrClosed
	}
	if !g.dialed {
		t.mu.Unlock()
		return errors.New("tcp: Send before Dial")
	}
	p := t.peerLocked(g.addrs[to])
	t.mu.Unlock()
	p.enqueue(frame{Kind: frameData, From: from, To: to, Payload: payload, Group: g.id,
		TraceID: sc.TraceID, SpanID: sc.SpanID, Lamport: sc.Clock})
	return nil
}

// Broadcast implements transport.Transport ("send to all", self link
// included, as in Ben-Or).
func (g *Group) Broadcast(from core.ProcID, payload core.Value) error {
	return g.BroadcastSpan(from, payload, core.SpanContext{})
}

// BroadcastSpan implements transport.SpanCarrier.
func (g *Group) BroadcastSpan(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	for to := 0; to < g.n; to++ {
		if err := g.SendSpan(from, core.ProcID(to), payload, sc); err != nil {
			return err
		}
	}
	return nil
}

// deliverLocked appends m to the mailbox of hosted process to and signals
// its wake-up, if one is registered. Mailboxes are ring buffers, so both
// delivery and TryRecv are O(1) whatever the queue depth. Caller holds t.mu.
func (g *Group) deliverLocked(m core.Message, to core.ProcID) {
	g.mailboxes[to].Push(m)
	g.record(to, metrics.MsgDelivered, 1)
}

// TryRecv implements transport.Transport.
func (g *Group) TryRecv(p core.ProcID) (core.Message, bool) {
	if !g.hosted[p] {
		return core.Message{}, false
	}
	g.t.mu.Lock()
	defer g.t.mu.Unlock()
	return g.mailboxes[p].Pop()
}

// SetWake implements transport.Transport.
func (g *Group) SetWake(p core.ProcID, ch chan<- struct{}) {
	if !g.hosted[p] {
		return
	}
	g.t.mu.Lock()
	g.mailboxes[p].Wake = ch
	g.t.mu.Unlock()
}

// LinkState implements transport.Transport.
func (g *Group) LinkState(from, to core.ProcID) transport.LinkState {
	if !g.isProc(from) || !g.isProc(to) {
		return transport.LinkUnknown
	}
	t := g.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || g.closed {
		return transport.LinkClosed
	}
	if g.hosted[to] {
		return transport.LinkUp
	}
	if p, ok := t.peers[g.addrs[to]]; ok {
		return p.state()
	}
	return transport.LinkConnecting
}

// SetHandler implements transport.RPC.
func (g *Group) SetHandler(fn func(from core.ProcID, req core.Value) (core.Value, error)) {
	g.t.mu.Lock()
	g.handler = fn
	g.t.mu.Unlock()
}

// SetSpanHandler implements transport.SpanRPC.
func (g *Group) SetSpanHandler(fn transport.SpanHandler) {
	g.t.mu.Lock()
	g.spanHandler = fn
	g.t.mu.Unlock()
}

// Call implements transport.RPC: a synchronous request to the node
// hosting the group's process to. Requests and responses ride the same
// sequenced, retransmitted frame stream as data messages, so they survive
// reconnects; the round trip is bounded by Timeouts.Call.
func (g *Group) Call(from, to core.ProcID, req core.Value) (core.Value, error) {
	v, _, err := g.CallSpan(from, to, req, core.SpanContext{})
	return v, err
}

// CallSpan implements transport.SpanRPC: the caller's context rides the
// request frame, the handler's response context rides the response back.
func (g *Group) CallSpan(from, to core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error) {
	if !g.isProc(to) {
		return nil, core.SpanContext{}, fmt.Errorf("%w: call to %v", core.ErrUnknownProc, to)
	}
	if !g.isProc(from) {
		return nil, core.SpanContext{}, fmt.Errorf("%w: call from %v", core.ErrUnknownProc, from)
	}
	t := g.t
	t.mu.Lock()
	if t.closed || g.closed {
		t.mu.Unlock()
		return nil, core.SpanContext{}, transport.ErrClosed
	}
	handler := g.handler
	spanHandler := g.spanHandler
	if g.hosted[to] {
		t.mu.Unlock()
		if spanHandler != nil {
			return spanHandler(from, req, sc)
		}
		if handler == nil {
			return nil, core.SpanContext{}, errors.New("tcp: no RPC handler installed")
		}
		v, err := handler(from, req)
		return v, core.SpanContext{}, err
	}
	if !g.dialed {
		t.mu.Unlock()
		return nil, core.SpanContext{}, errors.New("tcp: Call before Dial")
	}
	t.callSeq++
	id := t.callSeq
	ch := make(chan callResult, 1)
	t.calls[id] = ch
	p := t.peerLocked(g.addrs[to])
	t.mu.Unlock()

	g.record(from, metrics.RPCIssued, 1)
	start := time.Now()
	p.enqueue(frame{Kind: frameReq, From: from, To: to, CallID: id, Payload: req, Group: g.id,
		TraceID: sc.TraceID, SpanID: sc.SpanID, Lamport: sc.Clock})
	// An explicit timer, stopped on return: time.After would leak a live
	// timer (and its channel) for the full call timeout after every fast
	// call, which at RPC rates is tens of thousands of outstanding timers.
	timer := time.NewTimer(t.cfg.Timeouts.Call)
	defer timer.Stop()
	var res callResult
	select {
	case res = <-ch:
	case <-t.done:
		t.dropCall(id)
		res = callResult{err: transport.ErrClosed}
	case <-timer.C:
		t.dropCall(id)
		res = callResult{err: fmt.Errorf("tcp: call to %v timed out after %v", to, t.cfg.Timeouts.Call)}
	}
	g.registry().Histogram(metrics.HistRPCCall).Observe(time.Since(start))
	if res.err != nil {
		g.record(from, metrics.RPCFailed, 1)
	}
	return res.val, res.span, res.err
}

// Instrument implements transport.Instrumentable: the registry meters
// this group's messages and RPCs (the node-level frame plane reports to
// the Transport's own registry).
func (g *Group) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	g.reg.Store(reg)
	g.counters.Store(reg.Counters())
}

// Close implements transport.Transport for the group view: it detaches
// the group from the node and frees its id. Inbound frames for it are
// dropped from now on and its sends fail with ErrClosed. The node's
// connections, listener and other groups are untouched. Frames the group
// already enqueued stay on the shared peers and are still delivered and
// acked (the drain discipline is per node, at Transport.Close).
func (g *Group) Close() error {
	t := g.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if g.closed {
		return nil
	}
	g.closed = true
	delete(t.groups, g.id)
	return nil
}
