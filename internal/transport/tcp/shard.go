package tcp

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/queue"
	"github.com/mnm-model/mnm/internal/transport"
)

// Group is one group's view of a node, returned by OpenGroup: a
// transport.Transport + SpanRPC with its own process numbering 0..n-1,
// mailboxes, address table, RPC handler, calls and registry, whose
// Send/Broadcast/TryRecv/CallSpan route only within the group, multiplexed
// with every other group over the node's shared peers, sequence numbers
// and acks. Close detaches only this group; the node stays up.
type Group struct {
	t  *Transport
	id uint32
	n  int
	// mailboxes has one entry per process of the group, the mailbox of a
	// hosted one and nil for a remote one. The slice is fixed at
	// OpenGroup, so reading it takes no lock; each mailbox has its own,
	// and an empty one is polled with no lock at all.
	mailboxes []*queue.Mailbox[core.Message]

	// reg meters this group's messages and RPCs; it is
	// GroupConfig.Registry, fixed at OpenGroup (nil is inert).
	reg *metrics.Registry

	// peers is nil until Dial, which publishes the peer of every remote
	// process (nil for a hosted one), so a send resolves its remote
	// copies without t.mu.
	peers atomic.Pointer[[]*peer]
	// closed is set, under t.mu, by Close and by the node's Close.
	closed atomic.Bool

	// addrs is the process→node address table, fixed at OpenGroup; Dial
	// reads it.
	addrs []string
	// handler serves the group's requests, nil for none. SetHandler may
	// replace it while serve reads it, so it is swapped atomically.
	handler atomic.Pointer[transport.SpanHandler]

	// callMu guards the group's calls waiting for a response, by call id.
	// A response names its group, so its call id matches only within it.
	// Ids count up from a random base, so no two incarnations of the group
	// share one.
	callMu  sync.Mutex
	callSeq uint64
	calls   map[uint64]chan callResult

	// done is closed by Close; it ends the group's calls in flight.
	done chan struct{}
}

// callResult is how a call ended: its answer, or its error.
type callResult struct {
	val  core.Value
	span core.SpanContext
	err  error
}

var (
	_ transport.Transport = (*Group)(nil)
	_ transport.RPC       = (*Group)(nil)
	_ transport.SpanRPC   = (*Group)(nil)
)

// OpenGroup implements transport.Sharded: it registers group id over this
// node and returns its view, a *Group. The group's frames share the
// node's per-peer connections, sequence numbers and cumulative acks with
// every other group; only the demux state (mailboxes, address table, RPC
// handler, metrics) is per group. cfg.Handler serves the group's requests
// from the moment it is open. cfg.Addrs maps the group's processes to
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
		mailboxes: make([]*queue.Mailbox[core.Message], cfg.N),
		reg:       cfg.Registry,
		callSeq:   rand.Uint64(),
		calls:     make(map[uint64]chan callResult),
		done:      make(chan struct{}),
	}
	if cfg.Handler != nil {
		g.handler.Store(&cfg.Handler)
	}
	for p := range hosted {
		g.mailboxes[p] = new(queue.Mailbox[core.Message])
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil, transport.ErrClosed
	}
	if t.group(uint32(id)) != nil {
		return nil, fmt.Errorf("tcp: group %d already open", id)
	}
	if cfg.Addrs != nil {
		if err := g.setAddrsLocked(cfg.Addrs); err != nil {
			return nil, err
		}
	} else if len(hosted) != cfg.N {
		return nil, fmt.Errorf("tcp: group %d hosts %d of %d processes but has no address table", id, len(hosted), cfg.N)
	}
	t.putGroupLocked(uint32(id), g)
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
		if hosted := g.mailboxes[p] != nil; hosted != (a == g.t.addr) {
			if hosted {
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

// mailbox returns the mailbox of process p, nil unless p is a process of
// the group hosted on this node.
func (g *Group) mailbox(p core.ProcID) *queue.Mailbox[core.Message] {
	if !g.isProc(p) {
		return nil
	}
	return g.mailboxes[p]
}

// record meters one group-scoped counter event.
func (g *Group) record(p core.ProcID, k metrics.Kind, delta int64) {
	g.reg.Record(p, k, delta)
}

// ID returns the group's identifier.
func (g *Group) ID() transport.GroupID { return transport.GroupID(g.id) }

// N implements transport.Transport.
func (g *Group) N() int { return g.n }

// Dial implements transport.Transport: it starts a connection manager for
// every remote node of the group (idempotent). Connections are established
// asynchronously with a fixed timeout per attempt and bounded exponential
// backoff between attempts, so Dial returns immediately; LinkState reports
// progress. Peers are shared across groups: a peer that another group
// already created is reused, connection and all.
func (g *Group) Dial() error {
	t := g.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() || g.closed.Load() {
		return transport.ErrClosed
	}
	if g.peers.Load() != nil {
		return nil
	}
	peers := make([]*peer, g.n)
	for p, a := range g.addrs {
		if g.mailboxes[p] == nil {
			peers[p] = t.peerLocked(a)
		}
	}
	g.peers.Store(&peers)
	return nil
}

// Send implements transport.Transport: the context rides the wire
// frame header and surfaces as Message.Span at the receiver. The
// transport never interprets the context; a zero context writes zero
// header fields, which the receive side surfaces as an untraced message.
// A send is metered as MsgSent only once it is accepted.
func (g *Group) Send(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if !g.isProc(to) {
		return fmt.Errorf("%w: send to %v", core.ErrUnknownProc, to)
	}
	return g.send(from, to, to+1, payload, sc)
}

// Broadcast implements transport.Transport ("send to all", self link
// included, as in Ben-Or), every copy carrying sc.
func (g *Group) Broadcast(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	return g.send(from, 0, core.ProcID(g.n), payload, sc)
}

// remoteCopy is one remote destination of a send and the peer that
// carries it.
type remoteCopy struct {
	p  *peer
	to core.ProcID
}

// send sends one copy of payload to each process in [lo, hi). It takes
// no node lock: it checks for a close, delivers the hosted copies
// straight into their mailboxes, each under its own lock, and takes the
// peer of every remote one from the table Dial published; a remote copy
// before Dial fails the send there, after the hosted copies before it.
// Then the frame is encoded once and every remote copy is enqueued on
// its peer, in order, sharing those bytes and one enqueue time. A payload
// that cannot be encoded is dropped and counted (FrameDropEncode) once
// per remote copy, while the hosted copies are still delivered.
func (g *Group) send(from, lo, hi core.ProcID, payload core.Value, sc core.SpanContext) error {
	if !g.isProc(from) {
		return fmt.Errorf("%w: send from %v", core.ErrUnknownProc, from)
	}
	t := g.t
	var remoteBuf [8]remoteCopy
	remote := remoteBuf[:0]
	if t.closed.Load() || g.closed.Load() {
		return transport.ErrClosed
	}
	peers := g.peers.Load()
	for to := lo; to < hi; to++ {
		if g.mailboxes[to] != nil {
			g.record(from, metrics.MsgSent, 1)
			g.deliver(core.Message{From: from, Payload: payload, Span: sc}, to)
			continue
		}
		if peers == nil {
			return errors.New("tcp: Send before Dial")
		}
		remote = append(remote, remoteCopy{(*peers)[to], to})
	}
	if len(remote) == 0 {
		return nil
	}
	g.record(from, metrics.MsgSent, int64(len(remote)))
	buf, at, err := t.encode(&frame{Kind: frameData, From: from, To: remote[0].to, Payload: payload, Group: g.id,
		TraceID: sc.TraceID, SpanID: sc.SpanID, Lamport: sc.Clock})
	for _, c := range remote {
		if err != nil {
			t.dropUnencodable(from, c.p.addr, err)
			continue
		}
		c.p.enqueue(*buf, c.to, bySendLoop, at)
	}
	putBuf(buf)
	return nil
}

// deliver appends m to the mailbox of hosted process to, under that
// mailbox's lock alone, and signals its wake-up, if one is registered.
// Mailboxes are ring buffers, so both delivery and TryRecv are O(1)
// whatever the queue depth.
func (g *Group) deliver(m core.Message, to core.ProcID) {
	g.mailboxes[to].Push(m)
	g.record(to, metrics.MsgDelivered, 1)
}

// TryRecv implements transport.Transport. It takes only p's mailbox lock,
// and no lock at all when the mailbox is empty.
func (g *Group) TryRecv(p core.ProcID) (core.Message, bool) {
	mb := g.mailbox(p)
	if mb == nil {
		return core.Message{}, false
	}
	return mb.Pop()
}

// SetWake implements transport.Transport.
func (g *Group) SetWake(p core.ProcID, ch chan<- struct{}) {
	if mb := g.mailbox(p); mb != nil {
		mb.SetWake(ch)
	}
}

// Wake implements transport.SpanRPC: it hands process to a wake-up token
// at its node, a signal on the channel to registered with SetWake, and
// delivers nothing. A hosted to is signalled at once. A remote one's wake
// frame is queued on its node's peer, at most one per process, and rides
// the link's next batch like the ack: unsequenced, unacked and never
// retransmitted, so a connection fault or a close may lose it.
func (g *Group) Wake(to core.ProcID) {
	if mb := g.mailbox(to); mb != nil {
		mb.Signal()
		return
	}
	peers := g.peers.Load()
	if !g.isProc(to) || peers == nil || g.t.closed.Load() || g.closed.Load() {
		return
	}
	(*peers)[to].queueWake(g.id, to)
}

// LinkState implements transport.Transport. It takes no node lock: a
// remote link's state is its peer's, from the table Dial published, and
// the link is connecting until then.
func (g *Group) LinkState(from, to core.ProcID) transport.LinkState {
	if !g.isProc(from) || !g.isProc(to) {
		return transport.LinkUnknown
	}
	if g.t.closed.Load() || g.closed.Load() {
		return transport.LinkClosed
	}
	if g.mailboxes[to] != nil {
		return transport.LinkUp
	}
	if peers := g.peers.Load(); peers != nil {
		return (*peers)[to].state()
	}
	return transport.LinkConnecting
}

// SetHandler implements transport.RPC, which is kept only because the
// bench module calls it: fn replaces the group's handler, as a
// SpanHandler that ships no response context. fn runs on the receive loop
// of the caller's connection, so it must not block on the network.
func (g *Group) SetHandler(fn func(from core.ProcID, req core.Value) (core.Value, error)) {
	h := transport.SpanHandler(func(from core.ProcID, req core.Value, _ core.SpanContext) (core.Value, core.SpanContext, error) {
		v, err := fn(from, req)
		return v, core.SpanContext{}, err
	})
	g.handler.Store(&h)
}

// CallSpan implements transport.SpanRPC: a synchronous request to the
// node hosting the group's process to, which must be remote: a call to a
// process hosted here fails with core.ErrUnknownProc. It takes no node
// lock; the call waits in the group's own table. Requests and responses
// ride the same sequenced, retransmitted frame stream as data messages,
// so they survive reconnects and a restart of the owner's node. The
// caller's context rides the request frame, the handler's response
// context rides the response back. A call has no timeout: it ends with
// its response, with the encode error if the request (checked here,
// before anything is queued) or the response cannot be encoded, or with
// ErrClosed when the group or the node is closed (a request for a group
// not open at the owner is never answered). The caller writes its own
// request when it can (see byCaller), blocking only on a full socket.
func (g *Group) CallSpan(from, to core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error) {
	if !g.isProc(to) || g.mailboxes[to] != nil {
		return nil, core.SpanContext{}, fmt.Errorf("%w: call to %v, not a process on another node", core.ErrUnknownProc, to)
	}
	if !g.isProc(from) {
		return nil, core.SpanContext{}, fmt.Errorf("%w: call from %v", core.ErrUnknownProc, from)
	}
	t := g.t
	if t.closed.Load() || g.closed.Load() {
		return nil, core.SpanContext{}, transport.ErrClosed
	}
	peers := g.peers.Load()
	if peers == nil {
		return nil, core.SpanContext{}, errors.New("tcp: Call before Dial")
	}
	p := (*peers)[to]
	ch := make(chan callResult, 1)
	g.callMu.Lock()
	g.callSeq++
	id := g.callSeq
	g.calls[id] = ch
	g.callMu.Unlock()

	g.record(from, metrics.RPCIssued, 1)
	start := time.Now()
	var res callResult
	buf, at, err := t.encode(&frame{Kind: frameReq, From: from, To: to, CallID: id, Payload: req, Group: g.id,
		TraceID: sc.TraceID, SpanID: sc.SpanID, Lamport: sc.Clock})
	if err != nil {
		putBuf(buf)
		t.dropUnencodable(from, p.addr, err)
		g.takeCall(id)
		res = callResult{err: err}
	} else {
		p.enqueue(*buf, to, byCaller, at)
		putBuf(buf)
		select {
		case res = <-ch:
		case <-t.done:
			g.takeCall(id)
			res = callResult{err: transport.ErrClosed}
		case <-g.done:
			g.takeCall(id)
			res = callResult{err: transport.ErrClosed}
		}
	}
	g.reg.Histogram(metrics.HistRPCCall).Observe(time.Since(start))
	if res.err != nil {
		g.record(from, metrics.RPCFailed, 1)
	}
	return res.val, res.span, res.err
}

// takeCall removes the call waiting under id and returns its channel, nil
// if it no longer waits. Whoever takes a call's channel is its sole
// sender, and the channel has room for one, so the send never blocks (a
// call ended by a close abandons its channel).
func (g *Group) takeCall(id uint64) chan callResult {
	g.callMu.Lock()
	defer g.callMu.Unlock()
	ch := g.calls[id]
	delete(g.calls, id)
	return ch
}

// Close implements transport.Transport for the group view: it detaches
// the group from the node and frees its id. Inbound frames for it are
// dropped from now on, its sends fail with ErrClosed, and so do its calls
// still waiting for a response, at once. The node's
// connections, listener and other groups are untouched. Frames the group
// already enqueued stay on the shared peers and are still delivered and
// acked (the drain discipline is per node, at Transport.Close).
func (g *Group) Close() error {
	t := g.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if g.closed.Load() {
		return nil
	}
	g.closed.Store(true)
	close(g.done)
	t.putGroupLocked(g.id, nil)
	return nil
}
