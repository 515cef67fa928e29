package tcp

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/wire"
)

// Durability configures fsync'd store-until-ack for the transport: the
// node journals every sequenced frame it enqueues (durable before a
// writer may send it), every cumulative ack it receives, and its own
// receive-side high-water marks. After kill -9, a reopened transport
// restores each peer's unacked retransmission queue and sequence counter
// — so the No-loss axiom holds across sender crashes — and its duplicate
// filter — so Integrity holds across receiver crashes. Off (nil) by
// default: the in-memory hot path is untouched.
type Durability struct {
	// Dir is the directory holding the frame WAL.
	Dir string
	// compactAt is the WAL size in bytes that triggers compaction to a
	// snapshot of live state (unacked frames, seq and ack high-water
	// marks); zero takes the default (4 MiB). Only this package's tests
	// set it.
	compactAt int64
}

// defaultCompactAt is the frame WAL compaction threshold.
const defaultCompactAt = 4 << 20

// frameLogFile is the WAL filename inside Durability.Dir.
const frameLogFile = "frames.wal"

// Frame-log record tags. Every record starts with a tag uvarint and the
// peer's node address; what follows depends on the tag.
const (
	recEnqueue = 1 // + frame body: a sequenced frame entered the pending queue
	recAck     = 2 // + uvarint: the remote cumulatively acked through this seq
	recDropped = 3 // retired: earlier builds' tombstone record; replay skips it
	recRecvHW  = 4 // + uvarint: this node's duplicate-filter high-water mark
	recSeqMark = 5 // + uvarint: the peer's nextSeq (compaction snapshots only)
)

// savedFrame is one journaled unacked frame in the mirror: its sequence
// number (also inside body, kept denormalized for pruning without a
// decode) and its complete binary frame body.
type savedFrame struct {
	seq  uint64
	body []byte
}

// peerMirror is the durable image of one peer's sender state.
type peerMirror struct {
	nextSeq uint64
	pending []savedFrame
}

// frameLog journals the transport's reliability state through a WAL and
// keeps an in-memory mirror of what the log nets out to, which serves
// both compaction (rewrite the log as the mirror) and recovery seeding
// (the mirror right after Open is the recovered state). A nil *frameLog
// is durability off: the methods the send and receive paths call are
// no-ops on it, and the two that gate visibility still return what push
// and queueAck require.
type frameLog struct {
	t *Transport // for metrics/logging; nil in white-box tests

	mu        sync.Mutex
	wal       *durable.WAL
	peers     map[string]*peerMirror
	recvHW    map[string]uint64
	compactAt int64
}

// openFrameLog opens (creating if missing) the frame WAL and replays it
// into a fresh mirror.
func openFrameLog(cfg Durability, t *Transport) (*frameLog, error) {
	l := &frameLog{
		t:         t,
		peers:     make(map[string]*peerMirror),
		recvHW:    make(map[string]uint64),
		compactAt: cfg.compactAt,
	}
	if l.compactAt <= 0 {
		l.compactAt = defaultCompactAt
	}
	w, err := durable.Open(filepath.Join(cfg.Dir, frameLogFile), l.replayRecord)
	if err != nil {
		return nil, err
	}
	l.wal = w
	if t != nil {
		hist := t.reg.Histogram(metrics.HistFsync)
		if hist != nil {
			w.OnFsync = hist.Observe
		}
	}
	return l, nil
}

// replayRecord folds one WAL record into the mirror.
func (l *frameLog) replayRecord(rec []byte) error {
	d := wire.NewDecoder(rec)
	tag := d.Uvarint()
	addr := d.String()
	switch tag {
	case recEnqueue:
		body := d.Bytes()
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: enqueue record: %v", durable.ErrCorrupt, err)
		}
		var f frame
		if err := decodeFrame(body, &f); err != nil {
			return fmt.Errorf("%w: journaled frame: %v", durable.ErrCorrupt, err)
		}
		m := l.mirror(addr)
		m.pending = append(m.pending, savedFrame{seq: f.Seq, body: append([]byte(nil), body...)})
		if f.Seq > m.nextSeq {
			m.nextSeq = f.Seq
		}
	case recAck:
		upTo := d.Uvarint()
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: ack record: %v", durable.ErrCorrupt, err)
		}
		l.mirror(addr).prune(upTo)
	case recDropped:
		// It only ever named an unencodable frame, which is never journaled.
	case recRecvHW:
		seq := d.Uvarint()
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: recv-hw record: %v", durable.ErrCorrupt, err)
		}
		if seq > l.recvHW[addr] {
			l.recvHW[addr] = seq
		}
	case recSeqMark:
		seq := d.Uvarint()
		if err := d.Err(); err != nil {
			return fmt.Errorf("%w: seq-mark record: %v", durable.ErrCorrupt, err)
		}
		m := l.mirror(addr)
		if seq > m.nextSeq {
			m.nextSeq = seq
		}
	default:
		return fmt.Errorf("%w: unknown frame-log tag %d", durable.ErrCorrupt, tag)
	}
	return nil
}

func (l *frameLog) mirror(addr string) *peerMirror {
	m := l.peers[addr]
	if m == nil {
		m = &peerMirror{}
		l.peers[addr] = m
	}
	return m
}

// prune discards mirrored frames covered by a cumulative ack.
func (m *peerMirror) prune(upTo uint64) {
	keep := m.pending[:0]
	for _, sf := range m.pending {
		if sf.seq > upTo {
			keep = append(keep, sf)
		}
	}
	for i := len(keep); i < len(m.pending); i++ {
		m.pending[i] = savedFrame{}
	}
	m.pending = keep
}

// journaled is an encoded frame body that has been through the frame log:
// logEnqueue returns it after the WAL append+fsync, seedPeer after
// replaying it from that same WAL. pendingQueue.push takes nothing else,
// so a frame cannot become visible to a batch writer before it is
// journaled — the order is a data dependence the compiler checks. It
// aliases the caller's bytes, which push copies into the queue.
type journaled struct{ body []byte }

// hwSynced is a duplicate-filter high-water mark that logRecvHW has made
// durable. queueAck takes nothing else, so the fsync precedes the ack that
// lets the sender prune.
type hwSynced struct{ seq uint64 }

// logEnqueue journals the body of a freshly sequenced frame, fsync'd
// before return, and hands it back for pendingQueue.push: once the caller
// can push, the frame survives kill -9 and will be retransmitted by the
// next incarnation. A nil log (durability off) journals nothing. On error
// the frame still comes back — the caller degrades to in-memory
// reliability for it rather than losing it. Called with the owning peer's
// mutex held — the journal order is the sequence order.
func (l *frameLog) logEnqueue(addr string, body []byte) (journaled, error) {
	var err error
	if l != nil {
		err = l.appendEnqueue(addr, body)
	}
	return journaled{body}, err
}

// appendEnqueue writes and fsyncs the enqueue record of a frame body — the
// bytes the wire carries, without their length prefix (the WAL frames
// records itself) — then mirrors it.
func (l *frameLog) appendEnqueue(addr string, body []byte) error {
	_, seq, from := peekHeader(body)
	rec := make([]byte, 0, 2*binary.MaxVarintLen64+len(addr)+len(body))
	rec = wire.AppendUvarint(rec, recEnqueue)
	rec = wire.AppendString(rec, addr)
	rec = wire.AppendBytes(rec, body)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.wal.Append(rec); err != nil {
		return err
	}
	if err := l.wal.Sync(); err != nil {
		return err
	}
	m := l.mirror(addr)
	// The record ends with the body: the mirror keeps that copy.
	m.pending = append(m.pending, savedFrame{seq: seq, body: rec[len(rec)-len(body):]})
	if seq > m.nextSeq {
		m.nextSeq = seq
	}
	if l.t != nil {
		l.t.record(from, metrics.WALAppends, 1)
	}
	return nil
}

// logAck journals a received cumulative ack. No fsync: losing the record
// to a crash only means the next incarnation retransmits already-acked
// frames, which the remote's duplicate filter discards and re-acks.
func (l *frameLog) logAck(addr string, upTo uint64) error {
	if l == nil {
		return nil
	}
	rec := wire.AppendUvarint(nil, recAck)
	rec = wire.AppendString(rec, addr)
	rec = wire.AppendUvarint(rec, upTo)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.wal.Append(rec); err != nil {
		return err
	}
	l.mirror(addr).prune(upTo)
	return l.compactIfNeededLocked()
}

// logRecvHW journals this node's duplicate-filter high-water mark for one
// remote, fsync'd before return. The receive path calls it BEFORE sending
// the cumulative ack: once the sender prunes, only this record prevents a
// restarted receiver from accepting the sender's retransmissions twice.
// A nil log (durability off) syncs nothing. On error there is no mark to
// ack with, so the ack is withheld — self-healing, because the sender
// retransmits and the next receive batch retries the fsync.
func (l *frameLog) logRecvHW(addr string, seq uint64) (hwSynced, error) {
	if l == nil {
		return hwSynced{seq}, nil
	}
	rec := wire.AppendUvarint(nil, recRecvHW)
	rec = wire.AppendString(rec, addr)
	rec = wire.AppendUvarint(rec, seq)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.wal.Append(rec); err != nil {
		return hwSynced{}, err
	}
	if err := l.wal.Sync(); err != nil {
		return hwSynced{}, err
	}
	if seq > l.recvHW[addr] {
		l.recvHW[addr] = seq
	}
	if err := l.compactIfNeededLocked(); err != nil {
		return hwSynced{}, err
	}
	return hwSynced{seq}, nil
}

// compactIfNeededLocked rewrites the WAL as a snapshot of the mirror once
// it outgrows the threshold. Caller holds l.mu.
func (l *frameLog) compactIfNeededLocked() error {
	if l.wal.Size() < l.compactAt {
		return nil
	}
	var recs [][]byte
	for addr, m := range l.peers {
		rec := wire.AppendUvarint(nil, recSeqMark)
		rec = wire.AppendString(rec, addr)
		rec = wire.AppendUvarint(rec, m.nextSeq)
		recs = append(recs, rec)
		for _, sf := range m.pending {
			rec := wire.AppendUvarint(nil, recEnqueue)
			rec = wire.AppendString(rec, addr)
			rec = wire.AppendBytes(rec, sf.body)
			recs = append(recs, rec)
		}
	}
	for addr, seq := range l.recvHW {
		rec := wire.AppendUvarint(nil, recRecvHW)
		rec = wire.AppendString(rec, addr)
		rec = wire.AppendUvarint(rec, seq)
		recs = append(recs, rec)
	}
	return l.wal.Rewrite(recs)
}

// peerAddrs returns every address the mirror knows, pending frames or
// not: a peer whose frames were all acked still needs its nextSeq seeded,
// or fresh sends would reuse sequence numbers below the remote's
// duplicate-filter mark and be silently discarded.
func (l *frameLog) peerAddrs() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	addrs := make([]string, 0, len(l.peers))
	for addr := range l.peers {
		addrs = append(addrs, addr)
	}
	return addrs
}

// seedPeer installs the recovered state into a just-created peer: the
// duplicate-filter high-water mark of the remote node's frames (Integrity
// across a receiver crash), and the mirror's sender state, the sequence
// counter and the unacked frames, oldest first, ready for the send loop
// to (re)transmit. Request frames are left out: their caller died with
// the previous incarnation, so nothing waits for the answer, and the
// owner must not apply a write or CAS nobody issued any more. The
// receiver's duplicate filter only needs ascending sequence numbers, so
// the gap they leave is harmless. The frames come out of the journal, so
// seedPeer mints their journaled values itself and pushes their bytes as
// they are: only the kind byte is read, to skip requests. Called from
// peerLocked before the peer is published or its send loop starts, so
// the peer needs no locking; returns the number of frames restored (none
// with a nil log).
func (l *frameLog) seedPeer(p *peer, addr string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	p.hw = l.recvHW[addr]
	m := l.peers[addr]
	if m == nil {
		return 0
	}
	if m.nextSeq > p.nextSeq {
		p.nextSeq = m.nextSeq
	}
	restored := 0
	now := time.Now()
	for _, sf := range m.pending {
		if kind, _, _ := peekHeader(sf.body); kind == frameReq {
			continue
		}
		p.pending.push(journaled{sf.body}, now)
		restored++
	}
	return restored
}

// close fsyncs and closes the WAL. Called after every send loop and recv
// loop has exited, so no journaling races the close.
func (l *frameLog) close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wal.Close()
}
