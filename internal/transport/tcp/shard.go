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

// group is one shard's slice of a Transport: its own process numbering
// 0..n-1, mailboxes, address table and RPC handler, multiplexed with
// every other group over the node's shared peers, sequence numbers and
// acks. Group 0 is the Transport's own (config-time) system; other
// groups are opened with OpenGroup and surfaced as Group views.
type group struct {
	t      *Transport
	id     uint32
	n      int
	hosted map[core.ProcID]bool
	self   core.ProcID // lowest hosted process

	// reg and counters meter this group's messages and RPCs. For group 0
	// they mirror the Transport's node-level pair; for other groups they
	// come from GroupConfig.Registry or Instrument on the view.
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

func newGroup(t *Transport, id uint32, n int, hosted map[core.ProcID]bool) *group {
	g := &group{
		t:         t,
		id:        id,
		n:         n,
		hosted:    hosted,
		self:      minHosted(hosted),
		mailboxes: make(map[core.ProcID]*queue.Mailbox[core.Message]),
	}
	for p := range hosted {
		g.mailboxes[p] = new(queue.Mailbox[core.Message])
	}
	return g
}

// OpenGroup implements transport.Sharded: it registers group id over this
// node and returns its scoped view. The group's frames share the node's
// per-peer connections, sequence numbers and cumulative acks with every
// other group; only the demux state (mailboxes, address table, RPC
// handler, metrics) is per group. cfg.Addrs maps the group's processes to
// node listen addresses and may be nil only when every process is local.
// Opening a group that is already open — including group 0, which the
// Transport itself owns — is an error.
func (t *Transport) OpenGroup(id transport.GroupID, cfg transport.GroupConfig) (transport.Transport, error) {
	if id == 0 {
		return nil, errors.New("tcp: group 0 is the base transport; configure it via Config")
	}
	if cfg.N <= 0 {
		return nil, errors.New("tcp: GroupConfig.N must be positive")
	}
	hosted, err := hostedSet(cfg.N, cfg.Hosted)
	if err != nil {
		return nil, err
	}
	g := newGroup(t, uint32(id), cfg.N, hosted)
	if cfg.Registry != nil {
		g.reg.Store(cfg.Registry)
		g.counters.Store(cfg.Registry.Counters())
	}
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
	return &Group{g: g}, nil
}

// setAddrsLocked installs the group's process→node address table. Caller
// holds t.mu.
func (g *group) setAddrsLocked(addrs []string) error {
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

// registry returns the group's registry (nil-safe to use).
func (g *group) registry() *metrics.Registry { return g.reg.Load() }

// record meters one group-scoped counter event.
func (g *group) record(p core.ProcID, k metrics.Kind, delta int64) {
	g.counters.Load().Record(p, k, delta)
}

// remoteAddrsLocked returns the distinct remote node addresses of this
// group, sorted. Caller holds t.mu.
func (g *group) remoteAddrsLocked() []string {
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

// dialLocked starts a connection manager for every remote node of the
// group (idempotent). Peers are shared across groups: a peer that another
// group already created is reused, connection and all. Caller holds t.mu.
func (g *group) dialLocked() error {
	if g.closed {
		return transport.ErrClosed
	}
	if g.addrs == nil && len(g.hosted) != g.n {
		return errors.New("tcp: Dial before SetAddrs")
	}
	if g.dialed {
		return nil
	}
	g.dialed = true
	for _, a := range g.remoteAddrsLocked() {
		g.t.peerLocked(a)
	}
	return nil
}

func (g *group) send(from, to core.ProcID, payload core.Value) error {
	return g.sendSpan(from, to, payload, core.SpanContext{})
}

// sendSpan is send with a trace context riding the frame header (wire v4).
// The transport never interprets the context; a zero context writes zero
// header fields, which the receive side surfaces as an untraced message.
func (g *group) sendSpan(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if int(to) < 0 || int(to) >= g.n {
		return fmt.Errorf("%w: send to %v", core.ErrUnknownProc, to)
	}
	if int(from) < 0 || int(from) >= g.n {
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

func (g *group) broadcast(from core.ProcID, payload core.Value) error {
	return g.broadcastSpan(from, payload, core.SpanContext{})
}

func (g *group) broadcastSpan(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	for to := 0; to < g.n; to++ {
		if err := g.sendSpan(from, core.ProcID(to), payload, sc); err != nil {
			return err
		}
	}
	return nil
}

// deliverLocked appends m to the mailbox of hosted process to and signals
// its wake-up, if one is registered. Mailboxes are ring buffers, so both
// delivery and TryRecv are O(1) whatever the queue depth. Caller holds t.mu.
func (g *group) deliverLocked(m core.Message, to core.ProcID) {
	g.mailboxes[to].Push(m)
	g.record(to, metrics.MsgDelivered, 1)
}

func (g *group) tryRecv(p core.ProcID) (core.Message, bool) {
	if !g.hosted[p] {
		return core.Message{}, false
	}
	g.t.mu.Lock()
	defer g.t.mu.Unlock()
	return g.mailboxes[p].Pop()
}

func (g *group) setWake(p core.ProcID, ch chan<- struct{}) {
	if !g.hosted[p] {
		return
	}
	g.t.mu.Lock()
	g.mailboxes[p].Wake = ch
	g.t.mu.Unlock()
}

func (g *group) linkState(from, to core.ProcID) transport.LinkState {
	if int(from) < 0 || int(from) >= g.n || int(to) < 0 || int(to) >= g.n {
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
	if g.addrs == nil {
		return transport.LinkConnecting
	}
	if p, ok := t.peers[g.addrs[to]]; ok {
		return p.state()
	}
	return transport.LinkConnecting
}

func (g *group) setHandler(fn func(from core.ProcID, req core.Value) (core.Value, error)) {
	g.t.mu.Lock()
	g.handler = fn
	g.t.mu.Unlock()
}

func (g *group) setSpanHandler(fn transport.SpanHandler) {
	g.t.mu.Lock()
	g.spanHandler = fn
	g.t.mu.Unlock()
}

func (g *group) call(from, to core.ProcID, req core.Value) (core.Value, error) {
	v, _, err := g.callSpan(from, to, req, core.SpanContext{})
	return v, err
}

// callSpan is call with the caller's trace context riding the request
// frame and the handler's response context riding the response frame back.
func (g *group) callSpan(from, to core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error) {
	if int(to) < 0 || int(to) >= g.n {
		return nil, core.SpanContext{}, fmt.Errorf("%w: call to %v", core.ErrUnknownProc, to)
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

// closeGroup detaches the group from the node: inbound frames for it are
// dropped from now on and its sends fail with ErrClosed. The node's
// connections, listener and other groups are untouched. Frames the group
// already enqueued stay on the shared peers and are still delivered and
// acked (the drain discipline is per node, at Transport.Close).
func (g *group) closeGroup() error {
	t := g.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if g.closed {
		return nil
	}
	g.closed = true
	if g.id != 0 {
		delete(t.groups, g.id)
	}
	return nil
}

// Group is one shard's view of a sharded Transport, returned by
// OpenGroup: a transport.Transport + RPC + Instrumentable whose
// Send/Broadcast/TryRecv/Call route only within the group, multiplexed
// with every other group over the node's shared connections. Close
// detaches only this group; the node stays up.
type Group struct {
	g *group
}

var (
	_ transport.Transport      = (*Group)(nil)
	_ transport.SpanCarrier    = (*Group)(nil)
	_ transport.RPC            = (*Group)(nil)
	_ transport.SpanRPC        = (*Group)(nil)
	_ transport.Instrumentable = (*Group)(nil)
)

// ID returns the group's shard identifier.
func (v *Group) ID() transport.GroupID { return transport.GroupID(v.g.id) }

// N implements transport.Transport.
func (v *Group) N() int { return v.g.n }

// Dial implements transport.Transport: it starts connection managers for
// the group's remote nodes, reusing any the node already has (one
// connection per node pair, shared by every group).
func (v *Group) Dial() error {
	t := v.g.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return transport.ErrClosed
	}
	return v.g.dialLocked()
}

// Send implements transport.Transport.
func (v *Group) Send(from, to core.ProcID, payload core.Value) error {
	return v.g.send(from, to, payload)
}

// SendSpan implements transport.SpanCarrier.
func (v *Group) SendSpan(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	return v.g.sendSpan(from, to, payload, sc)
}

// Broadcast implements transport.Transport.
func (v *Group) Broadcast(from core.ProcID, payload core.Value) error {
	return v.g.broadcast(from, payload)
}

// BroadcastSpan implements transport.SpanCarrier.
func (v *Group) BroadcastSpan(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	return v.g.broadcastSpan(from, payload, sc)
}

// TryRecv implements transport.Transport.
func (v *Group) TryRecv(p core.ProcID) (core.Message, bool) { return v.g.tryRecv(p) }

// SetWake implements transport.Transport.
func (v *Group) SetWake(p core.ProcID, ch chan<- struct{}) { v.g.setWake(p, ch) }

// LinkState implements transport.Transport.
func (v *Group) LinkState(from, to core.ProcID) transport.LinkState {
	return v.g.linkState(from, to)
}

// Call implements transport.RPC.
func (v *Group) Call(from, to core.ProcID, req core.Value) (core.Value, error) {
	return v.g.call(from, to, req)
}

// CallSpan implements transport.SpanRPC.
func (v *Group) CallSpan(from, to core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error) {
	return v.g.callSpan(from, to, req, sc)
}

// SetHandler implements transport.RPC.
func (v *Group) SetHandler(fn func(from core.ProcID, req core.Value) (core.Value, error)) {
	v.g.setHandler(fn)
}

// SetSpanHandler implements transport.SpanRPC.
func (v *Group) SetSpanHandler(fn transport.SpanHandler) {
	v.g.setSpanHandler(fn)
}

// Instrument implements transport.Instrumentable: the registry meters
// this group's messages and RPCs (the node-level frame plane reports to
// the Transport's own registry).
func (v *Group) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	v.g.reg.Store(reg)
	v.g.counters.Store(reg.Counters())
}

// Close implements transport.Transport for the group view: it detaches
// the group, leaving the node transport and every other group running.
func (v *Group) Close() error { return v.g.closeGroup() }
