package tcp

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/wire"
)

// peer is this node's side of one remote node, the one object every
// group and every connection to or from that node shares. Its send side
// is the outbound link: a single TCP connection, the queue of
// unacknowledged sequenced frames, and the reconnect loop, under mu. Its
// receive side is the duplicate filter of the node's frames, under recvMu
// (see accept). The two locks are never held together.
//
// Reliability protocol: sequenced frames (data/req/resp) stay in pending
// until the remote's cumulative ack covers them. nextSend marks the first
// frame not yet written to the *current* connection; a reconnect rewinds
// it to 0, retransmitting the whole unacknowledged suffix. The receiver's
// duplicate filter (peer.accept) makes the retransmission idempotent.
//
// The queue holds each frame's wire bytes, encoded once by the code that
// created the frame, so a retransmission re-sends bytes and never
// re-encodes. Writes are batched: each copies the whole backlog (the
// queued ack and wakes plus the unsent pending suffix) into one buffer
// and writes it with one syscall and one write deadline. Frames stay individually
// length-prefixed and self-contained (they carry no stream state), so a
// batch is just a concatenation on the wire: a connection kill mid-write
// leaves the receiver with a prefix of whole frames (the TCP stream never
// tears a frame into something decodable), and the usual
// rewind-and-retransmit recovers the rest without loss or duplication. The holder of the writer
// token is the connection's only writer, so it carries frames in
// ascending sequence order: the send loop, which writes data frames, acks
// and responses, or a register caller blocked on its answer, which writes
// its own request's batch when the token is free (see enqueue).
type peer struct {
	t    *Transport
	addr string

	mu       sync.Mutex
	cond     *sync.Cond
	nextSeq  uint64
	pending  pendingQueue // unacked sequenced frames, in seq order
	nextSend int          // index into pending of first frame unsent on conn
	ackTo    uint64       // cumulative ack waiting to be written, 0 for none
	wakes    []wakeTo     // wake frames waiting to be written, no repeats
	conn     net.Conn     // nil while the link is down
	closed   bool
	// fatal, when non-empty, records why this link can never come up
	// (the remote speaks another wire version).
	// Unlike a broken connection it is terminal: the send loop stops
	// redialing instead of retrying a permanent failure forever.
	fatal string

	// writing is the writer token, set while one goroutine writes a batch
	// (see takeBatchLocked); only that goroutine touches out.
	writing bool
	out     []byte // the batch being written, reused across batches
	maxSent uint64 // highest sequence number ever taken: marks retransmissions

	// recvMu guards hw, the highest sequence number accepted from the
	// node. Every receive loop reading the node holds it across each
	// frame's filter and delivery (see deliverRun), before any mailbox
	// lock.
	recvMu sync.Mutex
	hw     uint64
}

// wakeTo is a queued wake frame: the process to of group that the remote
// node should wake.
type wakeTo struct {
	group uint32
	to    core.ProcID
}

// pendingFrame is one unacknowledged sequenced frame: its sequence number
// and sender, the time it was handed to enqueue — the start of its
// frame_rtt measurement (enqueue→ack, so the round trip includes its
// journal fsync, if durability is on, and any reconnect the frame had to
// wait out) — and where its wire bytes lie in its chunk's slab.
type pendingFrame struct {
	seq        uint64
	from       core.ProcID
	enqueuedAt time.Time
	off, end   int
}

// pendingChunkFrames sizes the queue's chunks: big enough to amortize the
// per-chunk link overhead, small enough that a chunk is an ordinary
// small-object allocation rather than a large one.
const pendingChunkFrames = 64

// pendingChunk holds up to pendingChunkFrames frames; their wire bytes
// (length prefix included) lie back to back in slab.
type pendingChunk struct {
	buf  [pendingChunkFrames]pendingFrame
	slab []byte
	next *pendingChunk
}

// emptySlab empties the chunk's slab for refilling, letting the GC take it
// instead if large frames grew it beyond maxPooledBuf.
func (c *pendingChunk) emptySlab() {
	if cap(c.slab) > maxPooledBuf {
		c.slab = nil
	} else {
		c.slab = c.slab[:0]
	}
}

// pendingQueue is the retransmission queue: a FIFO over a linked list of
// fixed-size chunks. A plain slice here is hostile to a deep backlog —
// every geometric regrowth allocates and zeroes a fresh array and copies
// the old one, and compacting on each cumulative ack copies the whole
// remainder; with a frame-sized element both costs dominated the send
// path under profile. Chunks never move: appends fill the tail chunk (and
// its slab) and link a new one when full, pops zero the slot and release
// whole chunks from the head, and one drained chunk is kept as a spare,
// slab and all, so a steady-state send load re-enqueues without
// allocating at all.
//
// All methods are called with the owning peer's mutex held.
type pendingQueue struct {
	head, tail *pendingChunk
	headIdx    int // index of the first live frame in head.buf
	tailIdx    int // next free slot in tail.buf
	length     int // queued frames
	spare      *pendingChunk
}

// push appends a copy of a frame the frame log has seen (see journaled),
// with its enqueue time at.
func (q *pendingQueue) push(j journaled, at time.Time) {
	if q.tail == nil || q.tailIdx == pendingChunkFrames {
		c := q.spare
		if c != nil {
			q.spare = nil
		} else {
			c = new(pendingChunk)
		}
		if q.tail == nil {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail = c
		q.tailIdx = 0
	}
	c := q.tail
	if c.slab == nil {
		// Size a fresh slab for a chunk of frames like this one.
		c.slab = make([]byte, 0, min(pendingChunkFrames*(4+len(j.body)), maxPooledBuf))
	}
	off := len(c.slab)
	c.slab = binary.BigEndian.AppendUint32(c.slab, uint32(len(j.body)))
	c.slab = append(c.slab, j.body...)
	_, seq, from := peekHeader(j.body)
	c.buf[q.tailIdx] = pendingFrame{seq: seq, from: from, enqueuedAt: at, off: off, end: len(c.slab)}
	q.tailIdx++
	q.length++
}

// front returns the oldest queued frame; the queue must be non-empty.
func (q *pendingQueue) front() *pendingFrame { return &q.head.buf[q.headIdx] }

// popFront removes the oldest queued frame, zeroing its slot. Fully
// drained head chunks are recycled into the one-chunk spare.
func (q *pendingQueue) popFront() pendingFrame {
	pf := q.head.buf[q.headIdx]
	q.head.buf[q.headIdx] = pendingFrame{}
	q.headIdx++
	q.length--
	if q.headIdx == pendingChunkFrames {
		c := q.head
		q.head = c.next
		c.next = nil
		c.emptySlab()
		q.headIdx = 0
		q.spare = c
		if q.head == nil {
			q.tail = nil
			q.tailIdx = 0
		}
	} else if q.length == 0 {
		// The lone chunk emptied mid-way: rewind so it refills from the
		// start (every slot below headIdx was zeroed by earlier pops).
		q.head.emptySlab()
		q.headIdx = 0
		q.tailIdx = 0
	}
	return pf
}

// iterAt positions a cursor at logical index i (chunk and in-chunk
// index), walking chunk links from the head.
func (q *pendingQueue) iterAt(i int) (*pendingChunk, int) {
	idx := q.headIdx + i
	c := q.head
	for c != nil && idx >= pendingChunkFrames {
		c = c.next
		idx -= pendingChunkFrames
	}
	return c, idx
}

// ackedFrame is the part of a popped frame that the ack path's metrics
// need after the lock is released.
type ackedFrame struct {
	from core.ProcID
	at   time.Time
}

// ackChunk is how many acked frames ack pops per lock section, sized so
// that its scratch array stays on the stack.
const ackChunk = 64

// maxBatchFrames caps how much of the pending suffix one send-loop wakeup
// copies into its batch, bounding the scratch buffer (which is reused
// across batches) under a deep backlog. The loop immediately takes the
// next batch, so the cap trades nothing but an extra write per
// maxBatchFrames frames.
const maxBatchFrames = 1024

func newPeer(t *Transport, addr string) *peer {
	p := &peer{t: t, addr: addr}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// stopped reports whether the peer will never send again (shut down or
// terminally rejected). Caller holds p.mu.
func (p *peer) stopped() bool { return p.closed || p.fatal != "" }

// setFatal marks the link permanently unusable (the first reason wins)
// and wakes everything blocked on the peer.
func (p *peer) setFatal(msg string) {
	p.mu.Lock()
	if p.fatal == "" {
		p.fatal = msg
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// A departure says how enqueue sends a frame off: bySendLoop wakes the
// send loop; withAck leaves the wake to the receive loop's end-of-batch
// ack, which the response then rides; byCaller (a caller blocked on the
// answer) writes the batch itself if the token is free and the link up.
type departure uint8

const (
	bySendLoop departure = iota
	withAck
	byCaller
)

// enqueue stamps the next sequence number and the destination process to
// into the encoded frame b (appendFrame's output, which the caller keeps)
// and queues a copy of its bytes for (re)transmission until acked, sending
// it off as d says. at is the frame's enqueue time, the start of its
// frame_rtt; the caller reads the clock once for all copies of a
// broadcast (see Transport.encode). With durability on, the frame is
// journaled (fsync'd) under the same critical section that sequences it,
// so the WAL order is the sequence order and a frame a writer can observe
// is already crash-safe. A journal failure degrades to in-memory reliability for that
// frame rather than losing it outright.
func (p *peer) enqueue(b []byte, to core.ProcID, d departure, at time.Time) {
	body := b[4:]
	p.mu.Lock()
	if p.stopped() {
		p.mu.Unlock()
		return
	}
	p.nextSeq++
	seq := p.nextSeq
	stampSeqTo(body, seq, to)
	j, jerr := p.t.dlog.logEnqueue(p.addr, body)
	p.pending.push(j, at)
	var conn net.Conn
	var ackTo uint64
	var frames int
	if d == byCaller && !p.writing && p.conn != nil {
		conn, ackTo, frames = p.takeBatchLocked()
	} else if d != withAck {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	if jerr != nil {
		p.t.log("frame log: journal seq %d to %s: %v", seq, p.addr, jerr)
	}
	if conn != nil && p.writeBatch(conn, ackTo, frames) {
		p.mu.Lock()
		p.writing = false
		p.cond.Broadcast() // the send loop may wait for the token
		p.mu.Unlock()
	}
}

// queueAck queues the cumulative ack a synced high-water mark permits.
// Acks subsume one another, so the ack queue is one high-water mark —
// the sender-side half of ack coalescing.
func (p *peer) queueAck(hw hwSynced) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped() {
		return
	}
	p.raiseAckLocked(hw.seq)
	p.cond.Broadcast()
}

// queueWake queues a wake frame for process to of group, unless one is
// already waiting. Like the ack it is unsequenced and rides the next
// batch; unlike the ack it is not requeued after a failed write, since a
// lost wake costs the woken process only its park's timer.
func (p *peer) queueWake(group uint32, to core.ProcID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := wakeTo{group, to}
	if p.stopped() || slices.Contains(p.wakes, w) {
		return
	}
	p.wakes = append(p.wakes, w)
	p.cond.Broadcast()
}

// raiseAckLocked folds upTo into the queued ack by max. queueAck and
// writeBatch's write-error requeue both go through it, so a failed batch
// putting its ack back cannot regress a fresher one queued meanwhile.
// Caller holds p.mu.
func (p *peer) raiseAckLocked(upTo uint64) { p.ackTo = max(p.ackTo, upTo) }

// ack drops every pending frame with Seq ≤ upTo. It pops them in chunks
// of at most ackChunk frames, one p.mu section each, and does each
// chunk's metrics work — one frame_rtt observation per frame, and one
// FrameAcked record per run of frames from one sender — after releasing
// the lock, so a slow histogram never serializes the send loop behind the
// receive path, and an ack of any size collects its frames on the stack.
func (p *peer) ack(upTo uint64) {
	var acked [ackChunk]ackedFrame
	hist := p.t.reg.Histogram(metrics.HistFrameRTT)
	first := true
	for {
		n := 0
		p.mu.Lock()
		for n < len(acked) && p.pending.length > 0 && p.pending.front().seq <= upTo {
			pf := p.pending.popFront()
			acked[n] = ackedFrame{from: pf.from, at: pf.enqueuedAt}
			n++
		}
		if n > 0 {
			p.nextSend = max(p.nextSend-n, 0)
			p.cond.Broadcast()
		}
		p.mu.Unlock()
		if n == 0 {
			return
		}
		if first {
			// Journal the ack once, after the lock: WAL order vs.
			// concurrent enqueues doesn't matter (replay prunes by
			// sequence number), and no fsync is needed (a lost ack record
			// only costs re-dropped retransmissions).
			first = false
			if err := p.t.dlog.logAck(p.addr, upTo); err != nil {
				p.t.log("frame log: ack %d from %s: %v", upTo, p.addr, err)
			}
		}
		now := time.Now()
		run := 0 // consecutive frames of one sender, counted in one record
		for i := range acked[:n] {
			hist.Observe(now.Sub(acked[i].at))
			if run++; i+1 == n || acked[i+1].from != acked[i].from {
				p.t.record(acked[i].from, metrics.FrameAcked, int64(run))
				run = 0
			}
		}
		if n < len(acked) {
			return
		}
	}
}

// accept passes a sequenced frame from the node through its duplicate
// filter: it returns true exactly once per sequence number. Both ends
// number their frames from 1 in send order and every connection (original
// or reconnected) carries an ascending subsequence, so "greater than the
// highest seen" accepts each frame once and drops retransmitted
// duplicates — the Integrity axiom on a faulty wire. The filter is per
// node pair, not per group: all groups share one sequence space.
func (p *peer) accept(seq uint64) bool {
	p.recvMu.Lock()
	defer p.recvMu.Unlock()
	return p.acceptLocked(seq)
}

// acceptLocked is accept for a caller that holds p.recvMu.
func (p *peer) acceptLocked(seq uint64) bool {
	if seq <= p.hw {
		return false
	}
	p.hw = seq
	return true
}

// state reports the link state for LinkState.
func (p *peer) state() transport.LinkState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped() {
		return transport.LinkClosed
	}
	if p.conn != nil {
		return transport.LinkUp
	}
	return transport.LinkConnecting
}

// killConn breaks the current connection without closing the peer — the
// send loop will reconnect and retransmit (fault-injection hook).
func (p *peer) killConn() {
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// waitDrained blocks until every sequenced frame has been acked (and the
// queued ack written, no batch in flight) or the deadline passes. It
// waits on the peer's condition variable — ack, the writers and shutdown
// broadcast on every queue transition — so the drain wakes exactly when
// pending empties instead of polling.
func (p *peer) waitDrained(deadline time.Time) {
	timer := time.AfterFunc(time.Until(deadline), func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for (p.pending.length > 0 || p.ackTo > 0 || p.writing) && !p.stopped() && time.Now().Before(deadline) {
		p.cond.Wait()
	}
}

// shutdown stops the send loop and closes the connection.
func (p *peer) shutdown() {
	p.mu.Lock()
	p.closed = true
	conn := p.conn
	p.conn = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// sendLoop owns the outbound connection: it dials (with per-attempt
// connectTimeout and bounded exponential backoff between attempts),
// writes queued frames in batches whenever the writer token is free, and
// redials after a write error tore the connection down, rewinding
// nextSend so the unacknowledged suffix is retransmitted.
func (p *peer) sendLoop() {
	defer p.t.wg.Done()
	backoff := backoffBase
	held := false   // the loop kept the token after its last batch
	everUp := false // a connection has succeeded before: marks reconnects
	for {
		// Ensure a live connection.
		p.mu.Lock()
		if held {
			p.writing, held = false, false
			p.cond.Broadcast() // a drain may wait for the token
		}
		for p.conn == nil && !p.stopped() {
			p.mu.Unlock()
			conn, err := p.dialConn()
			if err == nil {
				err = p.handshake(conn)
			}
			if err != nil {
				p.t.record(p.t.self, metrics.DialFailures, 1)
				p.t.log("connect %s failed: %v (retrying in %v)", p.addr, err, backoff)
				if !p.sleep(backoff) {
					return
				}
				backoff *= 2
				if backoff > backoffMax {
					backoff = backoffMax
				}
				p.mu.Lock()
				continue
			}
			p.mu.Lock()
			if p.stopped() {
				p.mu.Unlock()
				conn.Close()
				return
			}
			p.conn = conn
			p.nextSend = 0 // retransmit the unacked suffix
			backoff = backoffBase
			if everUp {
				p.t.record(p.t.self, metrics.Reconnects, 1)
			}
			everUp = true
			p.t.wg.Add(1)
			go p.watch(conn)
		}
		// Wait for work and for the token.
		for (p.writing || p.ackTo == 0 && len(p.wakes) == 0 && p.nextSend >= p.pending.length) && p.conn != nil && !p.stopped() {
			p.cond.Wait()
		}
		if p.stopped() {
			p.mu.Unlock()
			return
		}
		if p.conn == nil {
			p.mu.Unlock()
			continue
		}
		conn, ackTo, frames := p.takeBatchLocked()
		p.cond.Broadcast() // ack taken: a drain may be waiting on it
		p.mu.Unlock()
		held = p.writeBatch(conn, ackTo, frames)
	}
}

// takeBatchLocked takes the free writer token and copies the backlog of
// the up link into the reused batch buffer — the ack first (it unblocks
// the remote's drain), then the queued wakes, then the unsent pending
// suffix, at most maxBatchFrames of it so the buffer stays bounded (the
// send loop comes straight back for the rest) — and returns the
// connection, the ack and the number of frames taken. Caller holds p.mu.
func (p *peer) takeBatchLocked() (net.Conn, uint64, int) {
	p.writing = true
	ackTo := p.ackTo
	p.ackTo = 0
	b := p.out[:0]
	frames := 0
	if ackTo > 0 {
		b = appendCtrl(b, ctrlFrame{Kind: frameAck, AckTo: ackTo})
		frames++
	}
	for _, w := range p.wakes {
		b = appendCtrl(b, ctrlFrame{Kind: frameWake, Group: w.group, To: w.to})
		frames++
	}
	p.wakes = p.wakes[:0]
	pc, pi := p.pending.iterAt(p.nextSend)
	for n := 0; p.nextSend < p.pending.length && n < maxBatchFrames; n++ {
		pf := &pc.buf[pi]
		b = append(b, pc.slab[pf.off:pf.end]...)
		// A sequence number at or below the high-water mark has been
		// written before: this write is a retransmission.
		if pf.seq <= p.maxSent {
			p.t.record(pf.from, metrics.FrameRetrans, 1)
		} else {
			p.maxSent = pf.seq
			p.t.record(pf.from, metrics.FrameSent, 1)
		}
		p.nextSend++
		frames++
		if pi++; pi == pendingChunkFrames {
			pc, pi = pc.next, 0
		}
	}
	p.out = b
	return p.conn, ackTo, frames
}

// writeBatch writes the batch takeBatchLocked took, outside p.mu, with one
// deadline and one syscall, and reports whether the writer still holds
// the token: a write error tears the connection down (the send loop
// redials) and releases it. Like its frames, the batch is metered before
// it is written, so its metrics precede any ack it draws.
func (p *peer) writeBatch(conn net.Conn, ackTo uint64, frames int) bool {
	p.t.record(p.t.self, metrics.FrameBatches, 1)
	p.t.reg.Histogram(metrics.HistBatchFrames).ObserveValue(int64(frames))
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, werr := conn.Write(p.out)
	// Keep the buffer for the next batch unless it outgrew a full batch of
	// ordinary frames: one large frame must not pin its buffer for the
	// link's lifetime.
	if cap(p.out) > maxBatchFrames*256 {
		p.out = nil
	}
	if werr == nil {
		return true
	}
	p.t.log("write to %s failed: %v (reconnecting)", p.addr, werr)
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	// Requeue the batch's ack: it may not have reached the wire, and
	// re-sending an ack is harmless (acks are idempotent and cumulative).
	// A fresher ack queued while the batch was failing wins the max.
	p.raiseAckLocked(ackTo)
	p.writing = false
	p.cond.Broadcast() // wake the send loop to redial
	p.mu.Unlock()
	conn.Close()
	return false
}

// watch blocks reading the outbound connection. The remote writes at
// most one thing on it — its own preamble, refusing this node's wire
// version — so reading a preamble marks the link permanently down (no
// redial: a version skew doesn't heal), and anything else, a read
// failure above all, means the connection died or was killed.
// Detecting death here matters when this side has nothing left to write:
// unacknowledged frames would otherwise sit waiting for a write failure
// that never comes, and the remote would never receive them.
func (p *peer) watch(conn net.Conn) {
	defer p.t.wg.Done()
	if version, err := readPreamble(conn); err == nil {
		skew := skewError{version}
		p.t.log("link to %s: %v (not retrying)", p.addr, skew)
		p.setFatal(skew.Error())
	}
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	conn.Close()
}

// dialConn opens one outbound connection, plain TCP or TLS per the
// transport's configuration. tls.DialWithDialer performs the full
// handshake within connectTimeout and derives ServerName from the
// address when the config doesn't pin one.
func (p *peer) dialConn() (net.Conn, error) {
	if cfg := p.t.cfg.TLS; cfg != nil {
		return tls.DialWithDialer(&net.Dialer{Timeout: connectTimeout}, "tcp", p.addr, cfg)
	}
	return net.DialTimeout("tcp", p.addr, connectTimeout)
}

// handshake opens the stream with one write: the preamble, then the hello
// frame identifying this node and repeating the wire version.
func (p *peer) handshake(conn net.Conn) error {
	// preamble[:] is full, so the append copies it rather than writing
	// into the shared array.
	hello := appendCtrl(preamble[:], ctrlFrame{Kind: frameHello, Version: wire.FrameVersion, Addr: p.t.addr})
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(hello)
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		conn.Close()
	}
	return err
}

// sleep waits d or until the transport closes; it reports whether the
// send loop should keep running.
func (p *peer) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-p.t.done:
		return false
	}
}

// sentinelErrs are the model errors that must survive the wire so
// errors.Is keeps working across nodes. The slice index is the wire code;
// append only — reordering changes what deployed peers decode.
var sentinelErrs = []error{
	core.ErrAccessDenied,
	core.ErrUnknownProc,
	core.ErrCrashed,
	core.ErrMemoryFailed,
	core.ErrStopped,
}

// errCodeTag prefixes an ErrMsg that carries an explicit sentinel code:
// tag byte, one digit indexing sentinelErrs, then the error text. A
// control byte can't collide with real error text, and carrying the code
// explicitly replaces the old substring matching, which misclassified any
// error whose message merely contained a sentinel's text (e.g. "writer
// stopped unexpectedly" decoding as core.ErrStopped).
const errCodeTag = '\x01'

// encodeError flattens an error for the wire, tagging it with its
// sentinel code when errors.Is finds one.
func encodeError(err error) string {
	for i, sentinel := range sentinelErrs {
		if errors.Is(err, sentinel) {
			return string([]byte{errCodeTag, byte('0' + i)}) + err.Error()
		}
	}
	return err.Error()
}

// decodeError restores an encodeError string: a tagged message decodes to
// the exact sentinel (or an error wrapping it, when the remote added
// context), anything else — including a tag with an unknown code, from a
// newer peer — stays an opaque remoteError. No substring matching.
func decodeError(msg string) error {
	if len(msg) >= 2 && msg[0] == errCodeTag {
		if i := int(msg[1] - '0'); i >= 0 && i < len(sentinelErrs) {
			sentinel := sentinelErrs[i]
			text := msg[2:]
			if text == sentinel.Error() {
				return sentinel
			}
			return &remoteSentinel{msg: text, sentinel: sentinel}
		}
		return &remoteError{msg: msg[2:]}
	}
	return &remoteError{msg: msg}
}

// remoteError is a non-sentinel error reported by a remote node.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return e.msg }

// remoteSentinel is a remote error that wraps a model sentinel with extra
// context: the text crosses the wire verbatim and errors.Is sees the
// sentinel through Unwrap.
type remoteSentinel struct {
	msg      string
	sentinel error
}

func (e *remoteSentinel) Error() string { return e.msg }
func (e *remoteSentinel) Unwrap() error { return e.sentinel }
