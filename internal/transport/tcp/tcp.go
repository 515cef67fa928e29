// Package tcp is the socket backend of the transport layer: m&m messages
// as length-prefixed binary frames over TCP (optionally TLS) connections,
// one listener per OS process ("node"), one outbound connection per
// remote node.
//
// Frames use a flat little-endian header plus named payload codecs
// (internal/wire, generated per algorithm package by cmd/mnmwiregen); a
// payload whose type has no codec is dropped at encode time and counted
// (FrameDropEncode). Every stream opens with a 4-byte preamble carrying
// wire.FrameVersion and a hello frame repeating it; an acceptor answers
// any other version with its own preamble and closes, and the dialer
// stops redialing — a version skew does not heal.
//
// The backend preserves the link axioms of the paper (§3) over a real,
// faulty wire:
//
//   - Integrity: every data/req/resp frame carries a per-node-pair
//     sequence number and the receiver drops duplicates, so a message is
//     delivered at most as many times as it was sent even when frames are
//     retransmitted after a reconnect.
//   - No-loss (reliable links): the sender buffers frames until they are
//     cumulatively acknowledged and retransmits the unacknowledged suffix
//     after every reconnect, so connection kills lose nothing.
//   - Fair-loss: layer transport.Lossy over this backend.
//
// The hot path is batched at both ends: the send loop drains its whole
// backlog per wakeup into a buffered writer and flushes once (one write
// syscall and one deadline per batch), and the receiver answers each
// batch of sequenced frames with a single cumulative ack instead of one
// ack per frame. Frames remain individually length-prefixed and
// self-contained, so batching changes only syscall and ack counts —
// never what a reconnect can observe on the wire.
//
// Groups: a Transport is one node — its listener, its connections and
// its sequence/ack space — and every m&m system it carries, group 0
// included, is a Group view opened with OpenGroup. Every frame carries a
// GroupID and the receiver demultiplexes into per-group mailboxes and RPC
// handlers, while all groups between the same pair of nodes share one
// connection, one sequence-number space and one cumulative-ack stream.
// The node accepts connections from its first OpenGroup on, so no frame
// arrives before there is a group to take it.
//
// Connection lifecycle: a group's Dial starts one send loop per remote
// node it does not already have, which connects with a per-link timeout
// and, on failure or a broken connection, retries with bounded
// exponential backoff. Close drains unacknowledged frames (bounded by
// Timeouts.Drain) before tearing down.
package tcp

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
)

// Timeouts groups the transport's duration knobs. The zero value of any
// field means "use the default"; withDefaults fills them in one place.
type Timeouts struct {
	// Connect bounds each connection attempt. Default 2s.
	Connect time.Duration
	// BackoffBase is the first reconnect delay. Default 20ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential reconnect delay. Default 1s.
	BackoffMax time.Duration
	// Write bounds a single batch write. Default 10s.
	Write time.Duration
	// Call bounds an RPC round trip. Default 10s.
	Call time.Duration
	// Drain bounds how long Close waits for unacknowledged frames to be
	// delivered. Default 5s.
	Drain time.Duration
}

// withDefaults returns t with every unset (non-positive) field replaced
// by its default.
func (t Timeouts) withDefaults() Timeouts {
	if t.Connect <= 0 {
		t.Connect = 2 * time.Second
	}
	if t.BackoffBase <= 0 {
		t.BackoffBase = 20 * time.Millisecond
	}
	if t.BackoffMax <= 0 {
		t.BackoffMax = time.Second
	}
	if t.Write <= 0 {
		t.Write = 10 * time.Second
	}
	if t.Call <= 0 {
		t.Call = 10 * time.Second
	}
	if t.Drain <= 0 {
		t.Drain = 5 * time.Second
	}
	return t
}

// Config describes one node of a TCP-backed m&m system: the listener and
// the connections every group opened on it shares. Groups — group 0
// included — are opened over the node with OpenGroup.
type Config struct {
	// ListenAddr is this node's bind address (required). A port of 0 lets
	// the kernel pick a free one; Addr reports the address it bound, which
	// is what the other nodes put in their groups' address tables.
	ListenAddr string
	// Registry, if non-nil, receives the node's observability schema:
	// frame counters (sent/retransmitted/acked/drop-encode), connection
	// lifecycle counters (reconnects, dial failures) and the frame_rtt
	// histogram. A registry can also be attached later (even while frames
	// are flowing) via Instrument; each group meters its messages and RPCs
	// into GroupConfig.Registry.
	Registry *metrics.Registry
	// Logf, if non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Timeouts bundles the connection and I/O deadlines; zero fields take
	// defaults (see Timeouts).
	Timeouts Timeouts
	// TLS, if non-nil, serves the listener and dials every outbound
	// connection over TLS with this configuration. Both sides of a
	// system must agree (a TLS dial into a plaintext listener fails, and
	// vice versa). The config must be usable for both roles: server
	// certificate on the listening side, trust roots on the dialing side.
	TLS *tls.Config
	// Durability, if non-nil, journals the reliability state — unacked
	// frames, sequence counters, duplicate-filter high-water marks — to a
	// WAL in Durability.Dir, fsync'd at the points that make the link
	// axioms hold across kill -9 (see Durability). Nil (the default)
	// keeps the all-in-memory hot path byte-for-byte unchanged.
	Durability *Durability
}

// Transport is one node's endpoint of a TCP-backed m&m message network:
// the listener, the per-remote-node connections, and the demux state of
// every group multiplexed over them. Messages and RPCs go through the
// group views OpenGroup returns.
type Transport struct {
	cfg  Config
	addr string
	lis  net.Listener
	logf func(string, ...any)
	dlog *frameLog // nil unless Config.Durability is set

	// self is the lowest hosted process of the first group opened: the
	// process row node-level events (dial failures, reconnects, batches,
	// recovered frames) are metered under. It is written once, under mu,
	// before the node accepts or sends anything — so before its peers'
	// send loops, which read it, start.
	self core.ProcID

	// reg and counters are atomic so Instrument can attach observability
	// while connections are already live (the host instruments after the
	// transport is constructed, and inbound frames may arrive first).
	// They meter the node-level frame plane.
	reg      atomic.Pointer[metrics.Registry]
	counters atomic.Pointer[metrics.Counters]

	mu      sync.Mutex
	groups  map[uint32]*Group
	started bool // the first group is open: accepting and sending
	peers   map[string]*peer
	lastSeq map[string]uint64
	calls   map[uint64]chan callResult
	callSeq uint64
	inbound map[net.Conn]bool
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

type callResult struct {
	val  core.Value
	span core.SpanContext
	err  error
}

var (
	_ transport.Instrumentable = (*Transport)(nil)
	_ transport.Sharded        = (*Transport)(nil)
)

// New binds the node's listener. The node goes on the wire — accepts
// inbound connections and retransmits recovered frames — when its first
// group opens (see OpenGroup); until then a dialing peer's bytes wait in
// the kernel's accept backlog.
func New(cfg Config) (*Transport, error) {
	cfg.Timeouts = cfg.Timeouts.withDefaults()
	if cfg.ListenAddr == "" {
		return nil, errors.New("tcp: Config.ListenAddr is required")
	}
	lis, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", cfg.ListenAddr, err)
	}
	addr := cfg.ListenAddr
	if hasWildcardPort(addr) {
		addr = lis.Addr().String()
	}
	if cfg.TLS != nil {
		lis = tls.NewListener(lis, cfg.TLS)
	}
	t := &Transport{
		cfg:     cfg,
		addr:    addr,
		lis:     lis,
		logf:    cfg.Logf,
		groups:  make(map[uint32]*Group),
		peers:   make(map[string]*peer),
		lastSeq: make(map[string]uint64),
		calls:   make(map[uint64]chan callResult),
		inbound: make(map[net.Conn]bool),
		done:    make(chan struct{}),
	}
	t.Instrument(cfg.Registry)
	// Recovery seeds the duplicate filter from the journaled high-water
	// marks (Integrity across a receiver crash) before anything is
	// accepted; the journaled peers are rebuilt when the node starts.
	if cfg.Durability != nil {
		dlog, err := openFrameLog(*cfg.Durability, t)
		if err != nil {
			lis.Close()
			return nil, fmt.Errorf("tcp: frame log: %w", err)
		}
		t.dlog = dlog
		for addr, seq := range dlog.recoveredRecvHW() {
			t.lastSeq[addr] = seq
		}
	}
	return t, nil
}

// startLocked puts the node on the wire when its first group opens:
// it rebuilds every journaled peer — sequence counter plus unacked
// retransmission queue — so the previous incarnation's frames go back on
// the wire without waiting for an application send (No-loss across a
// sender crash), then starts accepting. No frame is dispatched before a
// group exists, so none can be dropped (and acked) for want of one.
// Caller holds t.mu.
func (t *Transport) startLocked(self core.ProcID) {
	if t.started {
		return
	}
	t.started = true
	t.self = self
	if t.dlog != nil {
		for _, addr := range t.dlog.peerAddrs() {
			t.peerLocked(addr)
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
}

// hostedSet validates and materializes a hosted-process set for a group
// of n processes; an empty list means all n are local.
func hostedSet(n int, procs []core.ProcID) (map[core.ProcID]bool, error) {
	hosted := make(map[core.ProcID]bool, len(procs))
	for _, p := range procs {
		if int(p) < 0 || int(p) >= n {
			return nil, fmt.Errorf("tcp: hosted process %v out of range", p)
		}
		hosted[p] = true
	}
	if len(hosted) == 0 {
		for p := 0; p < n; p++ {
			hosted[core.ProcID(p)] = true
		}
	}
	return hosted, nil
}

func minHosted(hosted map[core.ProcID]bool) core.ProcID {
	first := core.ProcID(-1)
	for p := range hosted {
		if first < 0 || p < first {
			first = p
		}
	}
	return first
}

func hasWildcardPort(addr string) bool {
	_, port, err := net.SplitHostPort(addr)
	return err == nil && port == "0"
}

// Addr returns this node's canonical listen address — the value other
// nodes put in their groups' address tables for every process hosted here.
func (t *Transport) Addr() string { return t.addr }

// NumPeers returns the number of outbound connection managers the node
// runs — one per remote node address, shared by every group. A thousand
// groups over the same node pair still report 1.
func (t *Transport) NumPeers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.peers)
}

// Instrument implements transport.Instrumentable: the registry receives the
// frame counters (sent/retransmitted/acked/drop-encode), the connection
// lifecycle counters (reconnects, dial failures — attributed to the lowest
// hosted process of the node's first group) and the frame_rtt histogram.
// Safe to call while frames are already flowing. Groups meter their
// messages and RPCs via GroupConfig.Registry or Instrument on their views.
func (t *Transport) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	t.reg.Store(reg)
	t.counters.Store(reg.Counters())
}

// registry returns the attached registry. A nil result is fine: every
// metrics call on a nil registry or histogram is a no-op.
func (t *Transport) registry() *metrics.Registry { return t.reg.Load() }

// record meters one node-level counter event.
func (t *Transport) record(p core.ProcID, k metrics.Kind, delta int64) {
	t.counters.Load().Record(p, k, delta)
}

// peerLocked returns (creating if needed) the connection manager for a
// remote node address. Caller holds t.mu.
func (t *Transport) peerLocked(addr string) *peer {
	if p, ok := t.peers[addr]; ok {
		return p
	}
	p := newPeer(t, addr)
	// Seed recovered sender state before the peer is published or its
	// send loop starts: the restored frames must be the queue's prefix.
	if n := t.dlog.seedPeer(p, addr); n > 0 {
		t.record(t.self, metrics.RecoveredFrames, int64(n))
	}
	t.peers[addr] = p
	t.wg.Add(1)
	go p.sendLoop()
	return p
}

func (t *Transport) log(format string, args ...any) {
	if t.logf != nil {
		t.logf("tcp[%s]: "+format, append([]any{t.addr}, args...)...)
	}
}

func (t *Transport) dropCall(id uint64) {
	t.mu.Lock()
	delete(t.calls, id)
	t.mu.Unlock()
}

// acceptLoop accepts inbound connections until the listener closes.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.lis.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.recvLoop(conn)
	}
}

// recvLoop reads frames off one inbound connection. The stream must open
// with this version's preamble and a hello identifying the sender node
// (acceptHandshake); everything after is dispatched through the sequence
// filter. A dialer of another wire version is answered with this node's
// own preamble — the only bytes it is sure to understand, and the only
// thing an acceptor ever writes on an inbound connection — so that it
// stops redialing; any other malformed opening is just closed on.
//
// Acks are coalesced per read batch: after dispatching the first frame,
// the loop keeps dispatching as long as more bytes are already buffered,
// then sends a single cumulative AckTo covering the whole batch. Under
// load this answers a batch of n data frames with one ack frame instead
// of n, halving the frame count on the wire; when frames trickle in one
// at a time the batch is a single frame and behaviour is unchanged. Acks
// are cumulative, so acking only the batch maximum loses nothing.
func (t *Transport) recvLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, batchBufSize)
	fr := newFrameReader()
	defer fr.close()
	remote, err := acceptHandshake(br, fr)
	if err != nil {
		t.log("rejecting inbound connection from %v: %v", conn.RemoteAddr(), err)
		if errors.As(err, new(skewError)) {
			conn.SetWriteDeadline(time.Now().Add(t.cfg.Timeouts.Write))
			conn.Write(preamble[:])
		}
		return
	}
	var f frame
	for {
		if err := fr.read(br, &f); err != nil {
			return
		}
		ackTo := t.dispatch(remote, &f)
		for br.Buffered() > 0 {
			if err := fr.read(br, &f); err != nil {
				return
			}
			if a := t.dispatch(remote, &f); a > ackTo {
				ackTo = a
			}
		}
		if ackTo > 0 {
			t.syncAndAck(remote, ackTo)
		}
	}
}

// syncAndAck makes the duplicate-filter high-water mark seq durable, then
// acks it: once the sender prunes, only the journal stops a restarted
// receiver from re-accepting retransmissions. On a journal error the ack
// is withheld — the sender retransmits, the in-memory filter still drops
// the duplicates, and the next batch retries the fsync.
func (t *Transport) syncAndAck(remote string, seq uint64) {
	hw, err := t.dlog.logRecvHW(remote, seq)
	if err != nil {
		t.log("frame log: recv high-water for %s: %v (withholding ack)", remote, err)
		return
	}
	t.sendAck(remote, hw)
}

// dispatch routes one inbound frame and returns the sequence number the
// caller must (cumulatively) acknowledge, or 0 for unsequenced frames.
// Sequenced frames pass the per-node duplicate filter exactly once,
// whatever connection they arrive on; duplicates still report their Seq so
// the remote learns its retransmission was redundant. Data and request
// frames are demultiplexed to the group their header names. Frames for a
// group this node has not opened, and frames whose sender is not a
// process of their group (a forged From, which the algorithms would index
// out of range or count as a phantom voter), are dropped and logged but
// still acked: the sender's duty ends at delivery to the node, and an
// acked frame is never retransmitted. A frame racing a group close is the
// everyday case of the first.
func (t *Transport) dispatch(remote string, f *frame) uint64 {
	switch f.Kind {
	case frameAck:
		t.mu.Lock()
		p, ok := t.peers[remote]
		t.mu.Unlock()
		if ok {
			p.ack(f.AckTo)
		}
		return 0
	case frameData:
		if t.accept(remote, f.Seq) {
			t.mu.Lock()
			g := t.groups[f.Group]
			ok := g != nil && g.isProc(f.From)
			if ok && !t.closed && !g.closed && g.hosted[f.To] {
				g.deliverLocked(core.Message{From: f.From, Payload: f.Payload,
					Span: core.SpanContext{TraceID: f.TraceID, SpanID: f.SpanID, Clock: f.Lamport}}, f.To)
			}
			t.mu.Unlock()
			if !ok {
				t.logDrop(remote, f, g)
			}
		}
		return f.Seq
	case frameReq:
		if t.accept(remote, f.Seq) {
			// Copy the frame: the recv loop reuses *f for the next read
			// while the handler goroutine is still running.
			req := *f
			t.wg.Add(1)
			go t.serve(remote, &req)
		}
		return f.Seq
	case frameResp:
		if t.accept(remote, f.Seq) {
			t.mu.Lock()
			ch, ok := t.calls[f.CallID]
			delete(t.calls, f.CallID)
			t.mu.Unlock()
			if ok {
				var err error
				if f.ErrMsg != "" {
					err = decodeError(f.ErrMsg)
				}
				// Never blocks: cap-1 channel, and removing the id from
				// t.calls under the lock made this goroutine the sole
				// sender (Call's timeout path deletes before abandoning).
				ch <- callResult{val: f.Payload, err: err, //mnmvet:allow stopselect buffered(1), sole sender
					span: core.SpanContext{TraceID: f.TraceID, SpanID: f.SpanID, Clock: f.Lamport}}
			}
		}
		return f.Seq
	default:
		t.log("dropping frame of unknown kind %d from %s", f.Kind, remote)
		return 0
	}
}

// logDrop reports a data or request frame dispatch refused: g is the
// frame's group, or nil when the node has not opened it.
func (t *Transport) logDrop(remote string, f *frame, g *Group) {
	if g == nil {
		t.log("dropping frame of kind %d for unopened group %d from %s", f.Kind, f.Group, remote)
		return
	}
	t.log("dropping frame of kind %d from %s: sender %v is not a process of group %d (n = %d)",
		f.Kind, remote, f.From, f.Group, g.n)
}

// accept passes a sequenced frame through the per-node duplicate filter:
// it returns true exactly once per sequence number. Both ends number
// their frames from 1 in send order and every connection (original or
// reconnected) carries an ascending subsequence, so "greater than the
// highest seen" accepts each frame once and drops retransmitted
// duplicates — the Integrity axiom on a faulty wire. The filter is per
// node pair, not per group: all groups share one sequence space.
func (t *Transport) accept(remote string, seq uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq <= t.lastSeq[remote] {
		return false
	}
	t.lastSeq[remote] = seq
	return true
}

// sendAck cumulatively acknowledges a synced high-water mark to the remote
// node. Acks are unsequenced control frames: losing one is harmless
// because the sender retransmits and the duplicate filter re-acks. Acks
// keep flowing while this node is draining its own Close (t.closed set,
// done not yet closed), so two nodes closing concurrently can still drain
// each other. Acks are per node pair, whatever groups the acked frames
// belonged to.
func (t *Transport) sendAck(remote string, hw hwSynced) {
	select {
	case <-t.done:
		return
	default:
	}
	t.mu.Lock()
	p := t.peerLocked(remote)
	t.mu.Unlock()
	p.queueAck(hw)
}

// serve runs the RPC handler of the request's group and queues the
// response (which carries the same group, so the caller's node routes the
// metrics to the right shard).
func (t *Transport) serve(remote string, f *frame) {
	defer t.wg.Done()
	t.mu.Lock()
	var handler func(core.ProcID, core.Value) (core.Value, error)
	var spanHandler transport.SpanHandler
	g := t.groups[f.Group]
	if g != nil && !g.closed {
		handler = g.handler
		spanHandler = g.spanHandler
	}
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return
	}
	if g != nil && !g.isProc(f.From) {
		t.logDrop(remote, f, g)
		return
	}
	resp := frame{Kind: frameResp, From: f.To, To: f.From, CallID: f.CallID, Group: f.Group}
	switch {
	case spanHandler != nil:
		v, rsc, err := spanHandler(f.From, f.Payload,
			core.SpanContext{TraceID: f.TraceID, SpanID: f.SpanID, Clock: f.Lamport})
		resp.Payload = v
		resp.TraceID, resp.SpanID, resp.Lamport = rsc.TraceID, rsc.SpanID, rsc.Clock
		if err != nil {
			resp.ErrMsg = encodeError(err)
		}
	case handler != nil:
		v, err := handler(f.From, f.Payload)
		resp.Payload = v
		if err != nil {
			resp.ErrMsg = encodeError(err)
		}
	default:
		resp.ErrMsg = "tcp: no RPC handler installed"
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	p := t.peerLocked(remote)
	t.mu.Unlock()
	p.enqueue(resp)
}

// KillConnections forcibly closes every live connection — inbound and
// outbound — without closing the transport. It models a network fault:
// send loops notice the broken pipe, reconnect with backoff and
// retransmit the unacknowledged suffix, so no message is lost or
// duplicated. Intended for fault-injection tests.
func (t *Transport) KillConnections() {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, p := range peers {
		p.killConn()
	}
}

// Close implements transport.Transport: it stops accepting application
// sends in every group, waits up to Timeouts.Drain for every queued frame
// to be acknowledged by its destination node, then tears down
// connections, the listener and all background goroutines.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, g := range t.groups {
		g.closed = true
	}
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()

	// Drain: keep the receive side alive so acks still arrive.
	deadline := time.Now().Add(t.cfg.Timeouts.Drain)
	for _, p := range peers {
		p.waitDrained(deadline)
	}

	close(t.done)
	for _, p := range peers {
		p.shutdown()
	}
	t.lis.Close()
	t.mu.Lock()
	for c := range t.inbound {
		c.Close()
	}
	calls := t.calls
	t.calls = make(map[uint64]chan callResult)
	t.mu.Unlock()
	for _, ch := range calls {
		// Never blocks: swapping t.calls under the lock transferred sole
		// ownership of every remaining cap-1 reply channel to this loop.
		ch <- callResult{err: transport.ErrClosed} //mnmvet:allow stopselect buffered(1), sole sender
	}
	t.wg.Wait()
	// Every send and receive loop has exited: nothing journals anymore.
	return t.dlog.close()
}
