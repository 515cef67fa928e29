// Package tcp is the socket backend of the transport layer: m&m messages
// as length-prefixed binary frames over TCP (optionally TLS) connections,
// one listener per OS process ("node"), one outbound connection per
// remote node.
//
// Frames use a flat little-endian header plus named payload codecs
// (internal/wire, generated per algorithm package by cmd/mnmwiregen). A
// frame is encoded once, where it is created; the queue, the frame log
// and every retransmission reuse its bytes. A payload with no codec never
// enters the queue: a send drops and counts it (FrameDropEncode), a call
// fails with the encode error. Every stream opens with a 4-byte
// preamble carrying wire.FrameVersion and a hello frame repeating it; an
// acceptor answers any other version with its own preamble and closes,
// and the dialer stops redialing — a version skew does not heal.
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
// The hot path is batched at both ends: each write copies the link's
// whole backlog into one buffer and writes it at once (one write syscall
// and one deadline per batch), and a Send or Broadcast reads the clock
// once for all its copies. The receiver decodes each frame in place in
// its read buffer, delivers each run of consecutive data frames in one
// section of its sender's receive lock, serves a request between runs as
// soon as it is decoded, and answers each read batch with a single
// cumulative ack instead of one ack per frame. Frames remain
// individually length-prefixed and self-contained, so batching changes
// only syscall, lock and ack counts — never what a reconnect can observe
// on the wire.
//
// No node-wide lock is on the per-message or the register-call path.
// Each hosted mailbox has its own lock and an atomic length (an empty
// TryRecv takes no lock), each remote node's peer has its own receive
// lock over its duplicate filter, each group has its own calls table and
// an atomically swapped RPC handler, and the groups table is a
// copy-on-write snapshot. The node lock, mu, guards only the node's
// lifecycle: starting, closing, the peers map, the inbound connections
// and the writes of the groups table. The lock order is a peer's receive
// lock, then a mailbox lock; and mu or a peer's lock, then the frame
// log's. A peer's two locks are never held together, and a group's calls
// lock is held alone.
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
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
)

// Timeouts groups the transport's settable durations. The zero value of
// a field means "use the default"; withDefaults fills it in.
type Timeouts struct {
	// Drain bounds how long Close waits for unacknowledged frames to be
	// delivered. Default 5s.
	Drain time.Duration
}

// withDefaults returns t with an unset (non-positive) Drain replaced by
// its default.
func (t Timeouts) withDefaults() Timeouts {
	if t.Drain <= 0 {
		t.Drain = 5 * time.Second
	}
	return t
}

// The connection deadlines and the reconnect backoff are fixed.
const (
	// connectTimeout bounds each connection attempt.
	connectTimeout = 2 * time.Second
	// backoffBase is the first reconnect delay.
	backoffBase = 20 * time.Millisecond
	// backoffMax caps the exponential reconnect delay.
	backoffMax = time.Second
	// writeTimeout bounds a single batch write.
	writeTimeout = 10 * time.Second
)

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
	// lifecycle counters (reconnects, dial failures — attributed to the
	// lowest hosted process of the node's first group) and the frame_rtt,
	// batch_frames and wal_fsync histograms. It is fixed here: nil leaves
	// the node's frame plane unmetered. Each group meters its messages and
	// RPCs into its own GroupConfig.Registry.
	Registry *metrics.Registry
	// Logf, if non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Timeouts bounds Close's drain; a zero field takes its default (see
	// Timeouts).
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

	// reg meters the node-level frame plane; it is Config.Registry, fixed
	// at New (nil is inert).
	reg *metrics.Registry

	// groups is the open groups by id: an immutable snapshot that
	// OpenGroup and Close replace under mu, so a receive loop looks a
	// frame's group up without a lock.
	groups atomic.Pointer[map[uint32]*Group]
	// closed is set, under mu, by Close.
	closed atomic.Bool

	mu      sync.Mutex
	started bool // the first group is open: accepting and sending
	peers   map[string]*peer
	inbound map[net.Conn]bool

	done chan struct{}
	wg   sync.WaitGroup
}

var _ transport.Sharded = (*Transport)(nil)

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
		reg:     cfg.Registry,
		peers:   make(map[string]*peer),
		inbound: make(map[net.Conn]bool),
		done:    make(chan struct{}),
	}
	t.groups.Store(&map[uint32]*Group{})
	// The journaled peers are rebuilt when the node starts, and every
	// peer is seeded from the journal when it is made (see seedPeer).
	if cfg.Durability != nil {
		dlog, err := openFrameLog(*cfg.Durability, t)
		if err != nil {
			lis.Close()
			return nil, fmt.Errorf("tcp: frame log: %w", err)
		}
		t.dlog = dlog
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

// group returns the open group id, nil if there is none. It takes no lock.
func (t *Transport) group(id uint32) *Group { return (*t.groups.Load())[id] }

// putGroupLocked publishes a copy of the groups table with id mapped to
// g, or with id removed when g is nil. Caller holds t.mu.
func (t *Transport) putGroupLocked(id uint32, g *Group) {
	next := maps.Clone(*t.groups.Load())
	if g == nil {
		delete(next, id)
	} else {
		next[id] = g
	}
	t.groups.Store(&next)
}

// NumPeers returns the number of outbound connection managers the node
// runs — one per remote node address, shared by every group. A thousand
// groups over the same node pair still report 1.
func (t *Transport) NumPeers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.peers)
}

// record meters one node-level counter event.
func (t *Transport) record(p core.ProcID, k metrics.Kind, delta int64) {
	t.reg.Record(p, k, delta)
}

// encode encodes f into pooled scratch: the one encode a data, request or
// response frame gets, made by the call that creates the frame and
// outside every lock. It returns the time the encode ended, which the
// caller hands to enqueue as the frame's enqueue time (every copy of a
// broadcast shares it), so a frame costs one clock read. The caller
// returns the scratch with putBuf once enqueue has copied the bytes, also
// when the encode failed.
func (t *Transport) encode(f *frame) (*[]byte, time.Time, error) {
	buf := getBuf()
	b, err := appendFrame((*buf)[:0], f)
	*buf = b
	return buf, time.Now(), err
}

// dropUnencodable meters and logs a frame from process from to the node
// at addr that cannot be encoded.
func (t *Transport) dropUnencodable(from core.ProcID, addr string, err error) {
	t.record(from, metrics.FrameDropEncode, 1)
	t.log("dropping frame to %s: %v", addr, err)
}

// peerLocked returns (creating if needed) the connection manager for a
// remote node address. Caller holds t.mu.
func (t *Transport) peerLocked(addr string) *peer {
	if p, ok := t.peers[addr]; ok {
		return p
	}
	p := newPeer(t, addr)
	// Seed recovered state before the peer is published or its send loop
	// starts: the restored frames must be the queue's prefix, and no
	// frame may pass the duplicate filter before its mark is restored.
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

// acceptLoop accepts inbound connections until the listener closes.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.lis.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed.Load() {
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
// The loop works in read batches: after the first frame it keeps decoding
// as long as more bytes are already buffered, then sends a single
// cumulative AckTo covering the whole batch. Under load this answers a
// batch of n data frames with one ack frame instead of n; when frames
// trickle in one at a time the batch is a single frame. Acks are
// cumulative, so acking only the batch maximum loses nothing.
//
// Within a batch, consecutive data frames collect into a run that
// deliverRun hands to the mailboxes in one section of the sender's
// receive lock. The loop resolves the sender's peer once, after the
// handshake, and ends if the node is closing and has none. A
// request, response or ack is dispatched as soon as it is decoded, after
// the run before it is delivered, so a request handler sees every data
// frame that preceded the request on the wire and none that followed it.
// A run is also delivered whenever the next frame is not wholly buffered,
// so a decoded message never waits on a socket read.
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
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			conn.Write(preamble[:])
		}
		return
	}
	p := t.recvFrom(remote)
	if p == nil {
		return
	}
	var f frame
	var run []frame // data frames decoded and not yet delivered
	for {
		var ackTo uint64
		err := fr.read(br, &f)
		for ; err == nil; err = fr.read(br, &f) {
			if f.Kind == frameData {
				run = append(run, f)
				ackTo = max(ackTo, f.Seq)
			} else {
				run = t.deliverRun(p, run)
				ackTo = max(ackTo, t.dispatch(p, &f))
			}
			if !frameBuffered(br) {
				run = t.deliverRun(p, run)
				if br.Buffered() == 0 {
					break
				}
			}
		}
		// Deliver and ack even a batch cut short: its responses leave with
		// the ack.
		run = t.deliverRun(p, run)
		if ackTo > 0 {
			t.syncAndAck(p, ackTo)
		}
		if err != nil {
			return
		}
	}
}

// syncAndAck makes the duplicate-filter high-water mark seq durable, then
// cumulatively acks it to the remote node: once the sender prunes, only
// the journal stops a restarted receiver from re-accepting
// retransmissions. On a journal error the ack is withheld (the sender
// retransmits, the filter drops the duplicates, the next batch retries the
// fsync), but the zero mark, which acks nothing, still wakes the send loop
// for the responses serve queued. Acks are unsequenced control frames, per
// node pair: losing one is harmless because the sender retransmits and the
// filter re-acks. They keep flowing while this node drains its own Close
// (closed set, done not yet closed), so two nodes closing together still
// drain each other. The ack goes out on p, the remote node's peer, which
// takes no node lock.
func (t *Transport) syncAndAck(p *peer, seq uint64) {
	hw, err := t.dlog.logRecvHW(p.addr, seq)
	if err != nil {
		t.log("frame log: recv high-water for %s: %v (withholding ack)", p.addr, err)
	}
	select {
	case <-t.done:
		return
	default:
	}
	p.queueAck(hw)
}

// dispatch routes one inbound ack, wake, request or response frame from
// the node of peer p and returns the sequence number the caller must (cumulatively)
// acknowledge, or 0 for unsequenced frames; data frames go through
// deliverRun. Sequenced frames pass the sender's duplicate filter exactly
// once, whatever connection they arrive on; duplicates still report their
// Seq so the remote learns its retransmission was redundant. A request is
// served right here, on the receive loop, with no goroutine of its own
// (see serve). A response ends the call waiting in the group it names,
// found without a lock.
func (t *Transport) dispatch(p *peer, f *frame) uint64 {
	switch f.Kind {
	case frameAck:
		p.ack(f.AckTo)
		return 0
	case frameWake:
		if g := t.group(f.Group); g != nil && !g.closed.Load() {
			if mb := g.mailbox(f.To); mb != nil {
				mb.Signal()
			}
		}
		return 0
	case frameReq:
		t.serve(p, f)
		return f.Seq
	case frameResp:
		if !p.accept(f.Seq) {
			return f.Seq
		}
		if g := t.group(f.Group); g != nil {
			if ch := g.takeCall(f.CallID); ch != nil {
				res := callResult{val: f.Payload,
					span: core.SpanContext{TraceID: f.TraceID, SpanID: f.SpanID, Clock: f.Lamport}}
				if f.ErrMsg != "" {
					res.err = decodeError(f.ErrMsg)
				}
				ch <- res //mnmvet:allow stopselect buffered(1), sole sender
			}
		}
		return f.Seq
	default:
		t.log("dropping frame of unknown kind %d from %s", f.Kind, p.addr)
		return 0
	}
}

// droppedFrame is a data frame deliverRun refused, kept to be logged
// once the receive lock is released: g is its group, nil when the node
// has not opened it.
type droppedFrame struct {
	f *frame
	g *Group
}

// deliverRun delivers a run of data frames from the node of peer p, in
// order, in one section of p's receive lock, and returns run emptied for reuse.
// Each frame is pushed under its mailbox's own lock, and no node-wide
// lock is taken. Each frame's duplicate filter and its delivery stay in
// that one section: after a reconnect two receive loops may hold the
// sender's frames, and neither may deliver a later frame between the
// other's accept and delivery. Receive loops reading different nodes
// never contend, since the link axioms order messages per sender only.
// Data is demultiplexed to the group its header names. Frames for a group
// this node has not opened, and frames whose sender is not a process of
// their group (a forged From, which the algorithms would index out of
// range or count as a phantom voter), are dropped and logged but still
// acked: the sender's duty ends at delivery to the node, and an acked
// frame is never retransmitted. A frame racing a group close is the
// everyday case of the first.
func (t *Transport) deliverRun(p *peer, run []frame) []frame {
	if len(run) == 0 {
		return run
	}
	var drops []droppedFrame
	p.recvMu.Lock()
	for i := range run {
		f := &run[i]
		if !p.acceptLocked(f.Seq) {
			continue
		}
		g := t.group(f.Group)
		if g == nil || !g.isProc(f.From) {
			drops = append(drops, droppedFrame{f, g})
			continue
		}
		if !t.closed.Load() && !g.closed.Load() && g.mailbox(f.To) != nil {
			g.deliver(core.Message{From: f.From, Payload: f.Payload,
				Span: core.SpanContext{TraceID: f.TraceID, SpanID: f.SpanID, Clock: f.Lamport}}, f.To)
		}
	}
	p.recvMu.Unlock()
	for _, d := range drops {
		t.logDrop(p.addr, d.f, d.g)
	}
	clear(run) // the mailboxes hold the payloads now; the run must not
	return run[:0]
}

// logDrop reports a data or request frame dispatch refused: g is the
// frame's group, or nil when the node has not opened it or has closed it.
func (t *Transport) logDrop(remote string, f *frame, g *Group) {
	if g == nil {
		t.log("dropping frame of kind %d for unopened group %d from %s", f.Kind, f.Group, remote)
		return
	}
	t.log("dropping frame of kind %d from %s: sender %v is not a process of group %d (n = %d)",
		f.Kind, remote, f.From, f.Group, g.n)
}

// recvFrom returns the peer of the remote node at addr for a receive loop
// reading it, making it on first contact unless the node is closing (a
// peer made then would outlive Close's shutdown): then it returns nil if
// there is none.
func (t *Transport) recvFrom(addr string) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.peers[addr]; p != nil || t.closed.Load() {
		return p
	}
	return t.peerLocked(addr)
}

// serve passes a request frame from the node of peer p through its
// duplicate filter and runs its group's RPC handler on the receive loop
// that read it — so the handler must not block on the network — then
// encodes and queues the response (which carries the same group, so the
// caller's node routes the metrics to the right shard) on p, as the ack
// path does. The filter takes p's receive lock; the group and its handler
// are read without a lock. The response is queued without waking the
// send loop: the batch's ack (syncAndAck) wakes it, so the two always
// leave in one write. The receive loop never writes: two nodes whose
// receive loops both block writing to each other would deadlock.
//
// A request for a group that is not open here — not yet, or no longer —
// is dropped like a data frame: logged, acked by dispatch, and never
// answered, so the caller waits until its own group or node closes. Only
// an open group without a handler answers with an error, and so does a
// handler whose response cannot be encoded: the response then carries
// the encode error alone, so the call fails instead of waiting.
func (t *Transport) serve(p *peer, f *frame) {
	if !p.accept(f.Seq) || t.closed.Load() {
		return
	}
	g := t.group(f.Group)
	if g == nil || !g.isProc(f.From) {
		t.logDrop(p.addr, f, g)
		return
	}
	resp := frame{Kind: frameResp, From: f.To, To: f.From, CallID: f.CallID, Group: f.Group}
	if handler := g.handler.Load(); handler == nil {
		resp.ErrMsg = encodeError(errNoHandler)
	} else {
		v, rsc, err := (*handler)(f.From, f.Payload,
			core.SpanContext{TraceID: f.TraceID, SpanID: f.SpanID, Clock: f.Lamport})
		resp.Payload = v
		resp.TraceID, resp.SpanID, resp.Lamport = rsc.TraceID, rsc.SpanID, rsc.Clock
		if err != nil {
			resp.ErrMsg = encodeError(err)
		}
	}
	buf, at, err := t.encode(&resp)
	if err != nil {
		t.dropUnencodable(resp.From, p.addr, err)
		putBuf(buf)
		resp.Payload, resp.ErrMsg = nil, encodeError(err)
		buf, at, _ = t.encode(&resp) // with no payload left, it encodes
	}
	p.enqueue(*buf, resp.To, withAck, at)
	putBuf(buf)
}

// errNoHandler answers a request to an open group that has no handler.
var errNoHandler = errors.New("tcp: no RPC handler installed")

// KillConnections forcibly closes every live connection — inbound and
// outbound — without closing the transport. It models a network fault:
// send loops notice the broken pipe, reconnect with backoff and
// retransmit the unacknowledged suffix, so no message is lost or
// duplicated. Intended for fault-injection tests.
func (t *Transport) KillConnections() {
	t.closeInbound()
	t.mu.Lock()
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, p := range peers {
		p.killConn()
	}
}

// closeInbound closes every inbound connection, outside t.mu: a TLS
// Close writes a close_notify alert under the write deadline, and each
// exiting recvLoop takes t.mu to unregister its connection.
func (t *Transport) closeInbound() {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close implements transport.Transport: it stops accepting application
// sends in every group, waits up to Timeouts.Drain for every queued frame
// to be acknowledged by its destination node, then tears down
// connections, the listener and all background goroutines. Calls still
// waiting for a response end with ErrClosed once the drain is over.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return nil
	}
	t.closed.Store(true)
	for _, g := range *t.groups.Load() {
		g.closed.Store(true)
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
	t.closeInbound()
	t.wg.Wait()
	// Every send and receive loop has exited: nothing journals anymore.
	return t.dlog.close()
}
