package tcp

import (
	"bufio"
	"crypto/tls"
	"errors"
	"net"
	"sync"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/wire"
)

// peer manages this node's outbound link to one remote node: a single TCP
// connection, the queue of unacknowledged sequenced frames, and the
// reconnect loop.
//
// Reliability protocol: sequenced frames (data/req/resp) stay in pending
// until the remote's cumulative ack covers them. nextSend marks the first
// frame not yet written to the *current* connection; a reconnect rewinds
// it to 0, retransmitting the whole unacknowledged suffix. The receiver's
// duplicate filter (Transport.accept) makes the retransmission idempotent.
//
// Writes are batched: each takes the whole backlog (the queued ack plus
// the unsent pending suffix) into one bufio.Writer and flushes once — one
// write syscall and one write deadline per batch instead of two syscalls
// and a deadline per frame. Frames stay individually length-prefixed and
// self-contained (they carry no stream state), so a batch is just a
// concatenation on the wire: a connection kill mid-flush leaves the
// receiver with a prefix of whole frames (the TCP stream never tears a
// frame into something decodable), and the usual rewind-and-retransmit
// recovers the rest without loss or duplication. The holder of the
// writer token is the connection's only writer, so it carries frames in
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
	conn     net.Conn     // nil while the link is down
	closed   bool
	// fatal, when non-empty, records why this link can never come up
	// (the remote speaks another wire version).
	// Unlike a broken connection it is terminal: the send loop stops
	// redialing instead of retrying a permanent failure forever.
	fatal string

	// writing is the writer token, set while one goroutine writes a batch
	// (see takeBatchLocked); only that goroutine touches bw to maxSent.
	writing bool
	bw      *bufio.Writer
	fw      *frameWriter
	batch   []frame // the batch being written
	maxSent uint64  // highest sequence number ever written: marks retransmissions
}

// pendingFrame is one unacknowledged sequenced frame plus the time it
// entered the queue — the start of its frame_rtt measurement (enqueue→ack,
// so the round trip includes any reconnect the frame had to wait out).
// dropped marks a frame that could never be encoded: it keeps its queue
// slot (so logical indices stay stable) but is skipped by the send loop
// and counted out of the drain condition; the cumulative ack of any later
// frame pops it.
type pendingFrame struct {
	f          frame
	enqueuedAt time.Time
	dropped    bool
}

// pendingChunkFrames sizes the queue's chunks: big enough to amortize the
// per-chunk link overhead, small enough that a chunk is an ordinary
// small-object allocation (~12KiB) rather than a large one.
const pendingChunkFrames = 64

type pendingChunk struct {
	buf  [pendingChunkFrames]pendingFrame
	next *pendingChunk
}

// pendingQueue is the retransmission queue: a FIFO over a linked list of
// fixed-size chunks. A plain slice here is hostile to a deep backlog —
// every geometric regrowth allocates and zeroes a fresh array and copies
// the old one, and compacting on each cumulative ack copies the whole
// remainder; with a frame-sized element both costs dominated the send
// path under profile. Chunks never move: appends fill the tail chunk and
// link a new one when full, pops zero the slot (releasing the payload to
// the GC) and release whole chunks from the head, and one drained chunk
// is kept as a spare so a steady-state send load re-enqueues without
// allocating at all.
//
// All methods are called with the owning peer's mutex held.
type pendingQueue struct {
	head, tail *pendingChunk
	headIdx    int // index of the first live frame in head.buf
	tailIdx    int // next free slot in tail.buf
	length     int // queued frames, dropped ones included
	live       int // queued frames that still need an ack
	spare      *pendingChunk
}

// push appends a frame the frame log has seen (see journaled), stamping
// its enqueue time.
func (q *pendingQueue) push(j journaled) {
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
	q.tail.buf[q.tailIdx] = pendingFrame{f: *j.f, enqueuedAt: time.Now()}
	q.tailIdx++
	q.length++
	q.live++
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
	if !pf.dropped {
		q.live--
	}
	if q.headIdx == pendingChunkFrames {
		c := q.head
		q.head = c.next
		c.next = nil
		q.headIdx = 0
		q.spare = c
		if q.head == nil {
			q.tail = nil
			q.tailIdx = 0
		}
	} else if q.length == 0 {
		// The lone chunk emptied mid-way: rewind so it refills from the
		// start (every slot below headIdx was zeroed by earlier pops).
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

// markDropped tombstones the frame with the given Seq and reports whether
// it was found. The payload is released immediately; the slot itself
// stays until a cumulative ack overtakes its sequence number.
func (q *pendingQueue) markDropped(seq uint64) bool {
	i := 0
	for c := q.head; c != nil; c = c.next {
		lo := 0
		if c == q.head {
			lo = q.headIdx
		}
		for j := lo; j < pendingChunkFrames && i < q.length; j, i = j+1, i+1 {
			pf := &c.buf[j]
			if pf.f.Seq == seq && !pf.dropped {
				pf.dropped = true
				pf.f.Payload = nil
				q.live--
				return true
			}
		}
	}
	return false
}

// ackedFrame is the slice of a popped frame that the ack path's metrics
// need after the lock is released — far cheaper to copy out than whole
// frames.
type ackedFrame struct {
	from core.ProcID
	at   time.Time
}

// maxBatchFrames caps how much of the pending suffix one send-loop wakeup
// copies into its batch, bounding the scratch buffer (which is reused
// across batches) under a deep backlog. The loop immediately takes the
// next batch, so the cap trades nothing but an extra flush per
// maxBatchFrames frames.
const maxBatchFrames = 1024

func newPeer(t *Transport, addr string) *peer {
	p := &peer{t: t, addr: addr, fw: newFrameWriter()}
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

// enqueue assigns the next sequence number to f and queues it for
// (re)transmission until acked, sending it off as d says. With durability
// on, the frame is journaled (fsync'd) under the same critical section
// that sequences it, so the WAL order is the sequence order and a frame a
// writer can observe is already crash-safe. A journal failure degrades to
// in-memory reliability for that frame rather than losing it outright.
func (p *peer) enqueue(f frame, d departure) {
	p.mu.Lock()
	if p.stopped() {
		p.mu.Unlock()
		return
	}
	p.nextSeq++
	f.Seq = p.nextSeq
	j, jerr := p.t.dlog.logEnqueue(p.addr, &f)
	p.pending.push(j)
	var conn net.Conn
	var ackTo uint64
	if d == byCaller && !p.writing && p.conn != nil {
		conn, ackTo = p.takeBatchLocked()
	} else if d != withAck {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	if jerr != nil {
		p.t.log("frame log: journal seq %d to %s: %v", f.Seq, p.addr, jerr)
	}
	if conn != nil && p.writeBatch(conn, ackTo) {
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

// raiseAckLocked folds upTo into the queued ack by max. queueAck and
// writeBatch's write-error requeue both go through it, so a failed batch
// putting its ack back cannot regress a fresher one queued meanwhile.
// Caller holds p.mu.
func (p *peer) raiseAckLocked(upTo uint64) { p.ackTo = max(p.ackTo, upTo) }

// ack drops every pending frame with Seq ≤ upTo. The metrics work — one
// FrameAcked count and one frame_rtt observation per covered frame —
// happens after the lock is released, so a slow histogram never
// serializes the send loop behind the receive path.
func (p *peer) ack(upTo uint64) {
	var acked []ackedFrame
	p.mu.Lock()
	drop := 0
	for p.pending.length > 0 && p.pending.front().f.Seq <= upTo {
		pf := p.pending.popFront()
		drop++
		if !pf.dropped {
			acked = append(acked, ackedFrame{from: pf.f.From, at: pf.enqueuedAt})
		}
	}
	if drop == 0 {
		p.mu.Unlock()
		return
	}
	p.nextSend -= drop
	if p.nextSend < 0 {
		p.nextSend = 0
	}
	p.cond.Broadcast()
	p.mu.Unlock()

	// Journal the ack after the lock: WAL order vs. concurrent enqueues
	// doesn't matter (replay prunes by sequence number), and no fsync is
	// needed (a lost ack record only costs re-dropped retransmissions).
	if err := p.t.dlog.logAck(p.addr, upTo); err != nil {
		p.t.log("frame log: ack %d from %s: %v", upTo, p.addr, err)
	}
	now := time.Now()
	hist := p.t.registry().Histogram(metrics.HistFrameRTT)
	for i := range acked {
		p.t.record(acked[i].from, metrics.FrameAcked, 1)
		hist.Observe(now.Sub(acked[i].at))
	}
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
	for (p.pending.live > 0 || p.ackTo > 0 || p.writing) && !p.stopped() && time.Now().Before(deadline) {
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
// ConnectTimeout and bounded exponential backoff between attempts),
// writes queued frames in batches whenever the writer token is free, and
// redials after a write error tore the connection down, rewinding
// nextSend so the unacknowledged suffix is retransmitted.
func (p *peer) sendLoop() {
	defer p.t.wg.Done()
	backoff := p.t.cfg.Timeouts.BackoffBase
	fw := newFrameWriter() // the handshake's: p.fw belongs to the token holder
	defer fw.close()
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
				err = p.handshake(conn, fw)
			}
			if err != nil {
				p.t.record(p.t.self, metrics.DialFailures, 1)
				p.t.log("connect %s failed: %v (retrying in %v)", p.addr, err, backoff)
				if !p.sleep(backoff) {
					return
				}
				backoff *= 2
				if backoff > p.t.cfg.Timeouts.BackoffMax {
					backoff = p.t.cfg.Timeouts.BackoffMax
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
			backoff = p.t.cfg.Timeouts.BackoffBase
			if everUp {
				p.t.record(p.t.self, metrics.Reconnects, 1)
			}
			everUp = true
			p.t.wg.Add(1)
			go p.watch(conn)
		}
		// Wait for work and for the token.
		for (p.writing || p.ackTo == 0 && p.nextSend >= p.pending.length) && p.conn != nil && !p.stopped() {
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
		conn, ackTo := p.takeBatchLocked()
		p.cond.Broadcast() // ack taken: a drain may be waiting on it
		p.mu.Unlock()
		held = p.writeBatch(conn, ackTo)
	}
}

// takeBatchLocked takes the free writer token and the backlog of the up
// link — the ack first (it unblocks the remote's drain), then the unsent
// pending suffix, at most maxBatchFrames of it so the reused p.batch stays
// bounded (the send loop comes straight back for the rest). Caller holds
// p.mu.
func (p *peer) takeBatchLocked() (net.Conn, uint64) {
	p.writing = true
	ackTo := p.ackTo
	p.ackTo = 0
	p.batch = p.batch[:0]
	pc, pi := p.pending.iterAt(p.nextSend)
	for ; p.nextSend < p.pending.length && len(p.batch) < maxBatchFrames; p.nextSend++ {
		if pf := &pc.buf[pi]; !pf.dropped {
			p.batch = append(p.batch, pf.f)
		}
		if pi++; pi == pendingChunkFrames {
			pc, pi = pc.next, 0
		}
	}
	return p.conn, ackTo
}

// writeBatch writes the batch takeBatchLocked took, outside p.mu, and
// reports whether the writer still holds the token: a write error tears
// the connection down (the send loop redials) and releases it.
func (p *peer) writeBatch(conn net.Conn, ackTo uint64) bool {
	if p.bw == nil { // allocated on first use: many links never send
		p.bw = bufio.NewWriterSize(conn, batchBufSize)
	}
	p.bw.Reset(conn) // empty after the last flush, or failed with its conn
	// One deadline and (via the single flush below) one syscall for the
	// whole batch.
	conn.SetWriteDeadline(time.Now().Add(p.t.cfg.Timeouts.Write))
	var werr error
	wrote := 0
	encStart := time.Now()
	if ackTo > 0 {
		if werr = p.fw.writeCtrl(p.bw, ctrlFrame{Kind: frameAck, AckTo: ackTo}); werr == nil {
			wrote++
		}
	}
	for i := 0; i < len(p.batch) && werr == nil; i++ {
		f := &p.batch[i]
		if err := p.fw.write(p.bw, f); err != nil {
			if errors.Is(err, errEncode) {
				// The frame can never be sent; drop it rather than
				// retransmitting a permanent failure forever.
				p.t.log("dropping frame to %s: %v", p.addr, err)
				p.t.record(f.From, metrics.FrameDropEncode, 1)
				p.dropPending(f.Seq)
				p.endUnencodable(f, err)
				continue
			}
			werr = err
			break
		}
		wrote++
		// A sequence number at or below the high-water mark has been
		// written before: this write is a retransmission.
		if f.Seq <= p.maxSent {
			p.t.record(f.From, metrics.FrameRetrans, 1)
		} else {
			p.maxSent = f.Seq
			p.t.record(f.From, metrics.FrameSent, 1)
		}
	}
	// Encode cost of the batch: frames land in the bufio buffer here
	// (memory writes; the flush below does the syscall), so this is the
	// codec's share of the send path.
	p.t.registry().Histogram(metrics.HistFrameEncode).Observe(time.Since(encStart))
	if werr == nil {
		if wrote == 0 {
			return true // whole batch dropped as unencodable
		}
		if werr = p.bw.Flush(); werr == nil {
			p.t.record(p.t.self, metrics.FrameBatches, 1)
			p.t.registry().Histogram(metrics.HistBatchFrames).ObserveValue(int64(wrote))
			return true
		}
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

// dropPending tombstones the sequenced frame with the given Seq in the
// retransmission queue (used for frames that can never be encoded).
// Sequence gaps are harmless: the receiver accepts any ascending sequence
// and acks cumulatively, so the next acked frame pops the tombstone. The
// frame log has nothing to erase: it never journals an unencodable frame.
func (p *peer) dropPending(seq uint64) {
	p.mu.Lock()
	if p.pending.markDropped(seq) {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// endUnencodable ends the call of a dropped request or response with the
// encode error, so no caller waits for an answer that cannot be sent.
func (p *peer) endUnencodable(f *frame, err error) {
	switch f.Kind {
	case frameReq:
		p.t.endCall(f.CallID, callResult{err: err})
	case frameResp: // answer with the error alone
		p.enqueue(frame{Kind: frameResp, From: f.From, To: f.To, CallID: f.CallID, Group: f.Group, ErrMsg: encodeError(err)}, bySendLoop)
	}
}

// dialConn opens one outbound connection, plain TCP or TLS per the
// transport's configuration. tls.DialWithDialer performs the full
// handshake within ConnectTimeout and derives ServerName from the
// address when the config doesn't pin one.
func (p *peer) dialConn() (net.Conn, error) {
	if cfg := p.t.cfg.TLS; cfg != nil {
		return tls.DialWithDialer(&net.Dialer{Timeout: p.t.cfg.Timeouts.Connect}, "tcp", p.addr, cfg)
	}
	return net.DialTimeout("tcp", p.addr, p.t.cfg.Timeouts.Connect)
}

// handshake opens the stream: the preamble, then the hello frame
// identifying this node and repeating the wire version.
func (p *peer) handshake(conn net.Conn, fw *frameWriter) error {
	conn.SetWriteDeadline(time.Now().Add(p.t.cfg.Timeouts.Write))
	_, err := conn.Write(preamble[:])
	if err == nil {
		err = fw.writeCtrl(conn, ctrlFrame{Kind: frameHello, Version: wire.FrameVersion, Addr: p.t.addr})
	}
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
