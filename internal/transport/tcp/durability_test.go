package tcp

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/wire"
)

// testFrame builds an encodable sequenced frame for white-box frame-log
// tests; real enqueue paths assign Seq the same way before journaling.
func testFrame(seq uint64, payload core.Value) frame {
	return frame{Kind: frameData, Seq: seq, From: 0, To: 1, Payload: payload}
}

func TestFrameLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Durability{Dir: dir, compactAt: 1 << 30} // never compact here
	l, err := openFrameLog(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := l.logEnqueue("a", mustAppendFrame(t, testFrame(seq, int(seq)*10))[4:]); err != nil {
			t.Fatalf("logEnqueue %d: %v", seq, err)
		}
	}
	if err := l.logAck("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.logRecvHW("b", 7); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// A new incarnation replays the log: seq 1 acked, seqs 2 and 3 still
	// owed to the wire; the dup filter remembers "b".
	l2, err := openFrameLog(cfg, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.close()
	if hw := l2.recvHW["b"]; hw != 7 {
		t.Fatalf("recovered recv high-water = %d, want 7", hw)
	}
	p := newPeer(nil, "a")
	if n := l2.seedPeer(p, "a"); n != 2 {
		t.Fatalf("seedPeer restored %d frames, want 2", n)
	}
	if p.nextSeq != 3 {
		t.Fatalf("recovered nextSeq = %d, want 3", p.nextSeq)
	}
	if f := frontFrame(t, &p.pending); f.Seq != 2 || f.From != 0 || f.To != 1 || f.Payload != 20 {
		t.Fatalf("restored frame = %+v, want seq 2 p0→p1 payload 20", f)
	}
	if l2.seedPeer(newPeer(nil, "unknown"), "unknown") != 0 {
		t.Fatal("seedPeer invented frames for an unjournaled peer")
	}
}

// A WAL written by an earlier build may hold tag-3 tombstone records;
// replay skips them, so such a log opens to the mirror the same log has
// without them.
func TestFrameLogSkipsRetiredDropRecord(t *testing.T) {
	replay := func(withDrop bool) *frameLog {
		cfg := Durability{Dir: t.TempDir(), compactAt: 1 << 30}
		l, err := openFrameLog(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			if _, err := l.logEnqueue("a", mustAppendFrame(t, testFrame(seq, int(seq)*10))[4:]); err != nil {
				t.Fatal(err)
			}
		}
		if withDrop {
			rec := wire.AppendUvarint(nil, 3)
			rec = wire.AppendString(rec, "a")
			rec = wire.AppendUvarint(rec, 2)
			if err := l.wal.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.logAck("a", 1); err != nil {
			t.Fatal(err)
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		l2, err := openFrameLog(cfg, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		t.Cleanup(func() { l2.close() })
		return l2
	}
	with, without := replay(true), replay(false)
	if !reflect.DeepEqual(with.peers, without.peers) {
		t.Fatalf("mirror with a tag-3 record %+v, without %+v", with.peers["a"], without.peers["a"])
	}
	if n := len(with.peers["a"].pending); n != 2 {
		t.Fatalf("replayed %d pending frames, want 2", n)
	}
}

// Compaction must not lose the sequence counter: a peer whose every frame
// was acked snapshots to a bare seq-mark record, and the next incarnation
// must resume numbering above it — reusing low seqs would collide with
// the remote's duplicate filter and be silently discarded.
func TestFrameLogCompactionKeepsSeqMark(t *testing.T) {
	dir := t.TempDir()
	cfg := Durability{Dir: dir, compactAt: 1} // compact at every opportunity
	l, err := openFrameLog(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	for seq := uint64(1); seq <= rounds; seq++ {
		if _, err := l.logEnqueue("a", mustAppendFrame(t, testFrame(seq, "x"))[4:]); err != nil {
			t.Fatal(err)
		}
		if err := l.logAck("a", seq); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.logRecvHW("a", 9); err != nil {
		t.Fatal(err)
	}
	// Every ack compacts: the log is a snapshot of (empty pending +
	// marks), not fifty enqueue records.
	oneRec := int64(len(mustAppendFrame(t, testFrame(1, "x"))))
	if size := l.wal.Size(); size > 4*oneRec+128 {
		t.Fatalf("WAL size %d after %d acked rounds: compaction not bounding the log", size, rounds)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	l2, err := openFrameLog(cfg, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.close()
	addrs := l2.peerAddrs()
	if len(addrs) != 1 || addrs[0] != "a" {
		t.Fatalf("peerAddrs = %v, want [a]: an all-acked peer must still be seeded", addrs)
	}
	p := newPeer(nil, "a")
	if n := l2.seedPeer(p, "a"); n != 0 {
		t.Fatalf("seedPeer restored %d frames, want 0 (all acked)", n)
	}
	if p.nextSeq != rounds {
		t.Fatalf("recovered nextSeq = %d, want %d (seq mark lost in compaction)", p.nextSeq, rounds)
	}
	if hw := l2.recvHW["a"]; hw != 9 {
		t.Fatalf("recv high-water = %d after compaction, want 9", hw)
	}
}

func mustAppendFrame(t *testing.T, f frame) []byte {
	t.Helper()
	b, err := appendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reserveAddr grabs a loopback port from the kernel and frees it, so a
// node can be started (and restarted) on a known address.
func reserveAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// pollRecv polls g for the next message to p.
func pollRecv(t *testing.T, g *Group, p core.ProcID) core.Message {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m, ok := g.TryRecv(p); ok {
			return m
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no message for %v within deadline", p)
	return core.Message{}
}

// TestDurableRestartRetransmits is the transport half of the issue's
// acceptance scenario: a durable node queues frames toward a peer that is
// not up, dies (Close here; the WAL is fsync'd at enqueue, so kill -9
// holds the same state), restarts from its data dir, and the late-started
// peer still receives every frame exactly once and in order — No-loss
// across a sender crash.
func TestDurableRestartRetransmits(t *testing.T) {
	addrA, addrB := reserveAddr(t), reserveAddr(t)
	addrs := []string{addrA, addrB}
	dir := t.TempDir()
	short := Timeouts{Drain: 100 * time.Millisecond}

	mkA := func() (*Transport, *Group) {
		tr, err := New(Config{
			ListenAddr: addrA,
			Durability: &Durability{Dir: dir},
			Timeouts:   short,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr, openTestGroup(t, tr, 0, []core.ProcID{0}, addrs)
	}

	a, ga := mkA()
	const total = 5
	for i := 0; i < total; i++ {
		if err := ga.Send(0, 1, i, core.SpanContext{}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Die with the peer still unreachable: nothing was acked, so the
	// whole run now lives only in the WAL.
	if err := a.Close(); err != nil {
		t.Fatalf("close first incarnation: %v", err)
	}

	a2, ga2 := mkA()
	defer a2.Close()
	b, err := New(Config{ListenAddr: addrB, Timeouts: short})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gb := openTestGroup(t, b, 0, []core.ProcID{1}, addrs)

	for i := 0; i < total; i++ {
		m := pollRecv(t, gb, 1)
		if m.From != 0 || m.Payload != i {
			t.Fatalf("recovered message %d arrived as %v from %v", i, m.Payload, m.From)
		}
	}
	// Fresh traffic must continue the recovered sequence numbering, not
	// restart below B's duplicate filter.
	if err := ga2.Send(0, 1, "post-restart", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if m := pollRecv(t, gb, 1); m.Payload != "post-restart" {
		t.Fatalf("post-restart message arrived as %v", m.Payload)
	}
	if m, ok := gb.TryRecv(1); ok {
		t.Fatalf("duplicate delivery after recovery: %v", m.Payload)
	}
}

// TestDurableRestartKeepsDupFilter is the receiver half: the
// duplicate-filter high-water mark survives a restart, so a sender
// retransmitting frames the dead incarnation already delivered (because
// its ack was lost with it) cannot double-deliver — Integrity across a
// receiver crash.
func TestDurableRestartKeepsDupFilter(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Transport {
		tr, err := New(Config{
			ListenAddr: "127.0.0.1:0",
			Durability: &Durability{Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := mk()
	if _, err := tr.dlog.logRecvHW("sender", 42); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	tr2 := mk()
	defer tr2.Close()
	if tr2.recvFrom("sender").accept(42) {
		t.Fatal("restarted node accepted a seq its dead incarnation had already delivered")
	}
	if !tr2.recvFrom("sender").accept(43) {
		t.Fatal("restarted node rejected the first genuinely new seq")
	}
}

// With the WAL closed, logRecvHW fails and syncAndAck must queue no ack:
// an ack ahead of its fsync lets the sender prune frames that a restarted
// receiver would then accept a second time.
func TestRecvHWFailureWithholdsAck(t *testing.T) {
	tr, err := New(Config{
		ListenAddr: "127.0.0.1:0",
		Durability: &Durability{Dir: t.TempDir()},
		Timeouts:   Timeouts{Drain: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	remote := reserveAddr(t) // nothing listens there: a queued ack stays queued
	queued := func() uint64 {
		tr.mu.Lock()
		p := tr.peers[remote]
		tr.mu.Unlock()
		if p == nil {
			return 0
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.ackTo
	}

	rs := tr.recvFrom(remote)
	tr.syncAndAck(rs, 5)
	if got := queued(); got != 5 {
		t.Fatalf("ackTo = %d with the WAL open, want 5", got)
	}
	if err := tr.dlog.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.dlog.logRecvHW(remote, 7); err == nil {
		t.Fatal("logRecvHW succeeded on a closed WAL")
	}
	tr.syncAndAck(rs, 7)
	if got := queued(); got != 5 {
		t.Fatalf("ackTo = %d with the WAL closed, want 5: the ack went out without its fsync", got)
	}
}

// An unusable frame WAL must fail node construction loudly, not boot a
// node with silently amnesiac reliability state.
func TestDurableOpenErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{
		ListenAddr: "127.0.0.1:0",
		Durability: &Durability{Dir: blocked}, // a file where the WAL dir should be
	})
	if err == nil {
		t.Fatal("New with an unusable durability dir succeeded")
	}
}

// callAsync issues an untraced g.CallSpan(0, 1, req) on its own
// goroutine; the channel yields the outcome.
func callAsync(g *Group, req core.Value) <-chan callResult {
	out := make(chan callResult, 1)
	go func() {
		v, _, err := g.CallSpan(0, 1, req, core.SpanContext{})
		out <- callResult{val: v, err: err}
	}()
	return out
}

// awaitCall waits for a call started by callAsync.
func awaitCall(t *testing.T, res <-chan callResult) callResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("call did not return within 10s")
		return callResult{}
	}
}

// TestDurableRestartDropsDeadIncarnationsRequests: a durable node calls a
// peer that is down, dies (Close; the request is journaled, so kill -9
// holds the same state) and restarts from its data dir. The dead call's
// request must not be retransmitted: nothing waits for its answer any
// more, and a write or CAS applied for a caller that no longer exists
// would be a register op nobody issued. The restarted node's own call
// gets its own answer, and the peer serves only that request.
func TestDurableRestartDropsDeadIncarnationsRequests(t *testing.T) {
	addrA, addrB := reserveAddr(t), reserveAddr(t)
	addrs := []string{addrA, addrB}
	dir := t.TempDir()
	short := Timeouts{Drain: 100 * time.Millisecond}
	mkA := func() (*Transport, *Group) {
		tr, err := New(Config{ListenAddr: addrA, Durability: &Durability{Dir: dir}, Timeouts: short})
		if err != nil {
			t.Fatal(err)
		}
		return tr, openTestGroup(t, tr, 0, []core.ProcID{0}, addrs)
	}

	a, ga := mkA()
	old := callAsync(ga, "old")
	deadline := time.Now().Add(10 * time.Second)
	for _, queued := peerQueue(a, addrB); queued == 0; _, queued = peerQueue(a, addrB) {
		if !time.Now().Before(deadline) {
			t.Fatal("the first incarnation's request was never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close first incarnation: %v", err)
	}
	if r := awaitCall(t, old); !errors.Is(r.err, transport.ErrClosed) {
		t.Fatalf("the dead incarnation's call returned %v, %v; want ErrClosed", r.val, r.err)
	}

	a2, ga2 := mkA()
	defer a2.Close()
	var mu sync.Mutex
	var served []core.Value
	b, err := New(Config{ListenAddr: addrB, Timeouts: short})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	echo := func(_ core.ProcID, req core.Value, _ core.SpanContext) (core.Value, core.SpanContext, error) {
		mu.Lock()
		served = append(served, req)
		mu.Unlock()
		return req, core.SpanContext{}, nil
	}
	vb, err := b.OpenGroup(0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs, Handler: echo})
	if err != nil {
		t.Fatal(err)
	}
	if err := vb.Dial(); err != nil {
		t.Fatal(err)
	}

	if r := awaitCall(t, callAsync(ga2, "new")); r.err != nil || r.val != "new" {
		t.Fatalf("the restarted node's call returned %v, %v; want its own answer \"new\"", r.val, r.err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != 1 || served[0] != "new" {
		t.Fatalf("peer served %v, want only [new]: a dead incarnation's request was executed", served)
	}
}

// TestDurableRestartCallIgnoresDeadIncarnationsAnswer: the peer received
// the dead incarnation's request and answers it only after the node has
// restarted, while the new incarnation's first call is pending. Call ids
// start from a random base in every incarnation, so the late answer
// matches no call and the pending one still gets its own.
func TestDurableRestartCallIgnoresDeadIncarnationsAnswer(t *testing.T) {
	addrA := reserveAddr(t)
	dir := t.TempDir()
	short := Timeouts{Drain: 100 * time.Millisecond}

	oldIn, newIn := make(chan struct{}), make(chan struct{})
	releaseOld, releaseNew := make(chan struct{}), make(chan struct{})
	release := func(ch chan struct{}) {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	// Deferred first, so it runs last: the handlers return before b drains.
	b, err := New(Config{ListenAddr: "127.0.0.1:0", Timeouts: short})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer release(releaseNew)
	defer release(releaseOld)
	addrs := []string{addrA, b.Addr()}
	stall := func(_ core.ProcID, req core.Value, _ core.SpanContext) (core.Value, core.SpanContext, error) {
		switch req {
		case "old":
			close(oldIn)
			<-releaseOld
		case "new":
			close(newIn)
			<-releaseNew
		}
		return req, core.SpanContext{}, nil
	}
	vb, err := b.OpenGroup(0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs, Handler: stall})
	if err != nil {
		t.Fatal(err)
	}
	if err := vb.Dial(); err != nil {
		t.Fatal(err)
	}
	mkA := func() (*Transport, *Group) {
		tr, err := New(Config{ListenAddr: addrA, Durability: &Durability{Dir: dir}, Timeouts: short})
		if err != nil {
			t.Fatal(err)
		}
		return tr, openTestGroup(t, tr, 0, []core.ProcID{0}, addrs)
	}
	awaitServe := func(in chan struct{}, what string) {
		t.Helper()
		select {
		case <-in:
		case <-time.After(10 * time.Second):
			t.Fatalf("the %s request never reached the peer's handler", what)
		}
	}

	a, ga := mkA()
	old := callAsync(ga, "old")
	awaitServe(oldIn, "first incarnation's")
	if err := a.Close(); err != nil {
		t.Fatalf("close first incarnation: %v", err)
	}
	if r := awaitCall(t, old); !errors.Is(r.err, transport.ErrClosed) {
		t.Fatalf("the dead incarnation's call returned %v, %v; want ErrClosed", r.val, r.err)
	}

	a2, ga2 := mkA()
	defer a2.Close()
	fresh := callAsync(ga2, "new")
	awaitServe(newIn, "restarted node's")
	// Answer the dead call first, and hold the live one until that answer
	// is on the peer's queue: the two responses reach the node in order.
	before, _ := peerQueue(b, addrA)
	release(releaseOld)
	deadline := time.Now().Add(10 * time.Second)
	for last, _ := peerQueue(b, addrA); last == before; last, _ = peerQueue(b, addrA) {
		if !time.Now().Before(deadline) {
			t.Fatal("the peer never answered the dead incarnation's request")
		}
		time.Sleep(time.Millisecond)
	}
	release(releaseNew)
	if r := awaitCall(t, fresh); r.err != nil || r.val != "new" {
		t.Fatalf("the restarted node's call returned %v, %v; want its own answer \"new\"", r.val, r.err)
	}
}
