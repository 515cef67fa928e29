package tcp

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
)

// TestEmptyTryRecvTakesNoLock: no node-wide lock is on the per-message
// path. While the node lock and a sender's receive lock are held, TryRecv
// on an empty mailbox returns at once (one atomic load), and a hosted
// Send and the TryRecv that pops it take only that mailbox's lock.
func TestEmptyTryRecvTakesNoLock(t *testing.T) {
	tr, err := New(Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	g := openTestGroup(t, tr, 0, nil, []string{tr.Addr(), tr.Addr()})
	p := tr.recvFrom("127.0.0.1:1")

	tr.mu.Lock()
	defer tr.mu.Unlock()
	p.recvMu.Lock()
	defer p.recvMu.Unlock()

	type result struct {
		emptyOK, fullOK bool
		got             core.Value
		err             error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		_, r.emptyOK = g.TryRecv(0)
		r.err = g.Send(0, 1, "hosted", core.SpanContext{})
		var m core.Message
		m, r.fullOK = g.TryRecv(1)
		r.got = m.Payload
		done <- r
	}()
	select {
	case r := <-done:
		if r.emptyOK {
			t.Error("TryRecv on an empty mailbox reported a message")
		}
		if r.err != nil || !r.fullOK || r.got != "hosted" {
			t.Errorf("hosted Send then TryRecv = %v, %v, %v; want nil, true, hosted", r.err, r.fullOK, r.got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TryRecv or a hosted Send waited for the node lock or a receive lock")
	}
}

// TestConcurrentSendersKeepPerSenderFIFO: three senders share one hosted
// mailbox — a process on each of two remote nodes and a local Send loop
// on the owner's node — while the owner pops and connections are killed
// under the remote senders. Per-sender delivery must stay exactly once and
// in order: a reconnect leaves two receive loops reading one sender, and
// the sender's receive lock must keep each frame's filter and delivery in
// one section.
func TestConcurrentSendersKeepPerSenderFIFO(t *testing.T) {
	const perSender = 5000
	nodes := newTestNodes(t, 3)
	// Processes 0 (the owner) and 1 live on node 0, 2 on node 1, 3 on node 2.
	addrs := []string{nodes[0].Addr(), nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr()}
	hosted := [][]core.ProcID{{0, 1}, {2}, {3}}
	groups := make([]*Group, len(nodes))
	for i, tr := range nodes {
		groups[i] = openTestGroup(t, tr, 0, hosted[i], addrs)
	}

	sendErr := make(chan error, 3)
	send := func(g *Group, from core.ProcID, killer *Transport) {
		for i := 0; i < perSender; i++ {
			if err := g.Send(from, 0, i, core.SpanContext{}); err != nil {
				sendErr <- err
				return
			}
			if killer != nil && i%50 == 49 {
				killer.KillConnections()
			}
		}
		sendErr <- nil
	}
	go send(groups[0], 1, nil)
	go send(groups[1], 2, nodes[1])
	go send(groups[2], 3, nodes[2])

	next := map[core.ProcID]int{1: 0, 2: 0, 3: 0}
	deadline := time.Now().Add(60 * time.Second)
	for got := 0; got < 3*perSender; {
		m, ok := groups[0].TryRecv(0)
		if !ok {
			if !time.Now().Before(deadline) {
				t.Fatalf("received %d of %d messages before the deadline (next per sender %v)", got, 3*perSender, next)
			}
			continue
		}
		want, known := next[m.From]
		if !known || m.Payload != want {
			t.Fatalf("from %v: got %v, want %d (lost, duplicated or reordered)", m.From, m.Payload, want)
		}
		next[m.From]++
		got++
	}
	for range 3 {
		if err := <-sendErr; err != nil {
			t.Fatal(err)
		}
	}
	if m, ok := groups[0].TryRecv(0); ok {
		t.Fatalf("extra message %v from %v after every sender's last", m.Payload, m.From)
	}
}

// TestAckAllocFree: an ack covering far more frames than one lock section
// pops collects them on the stack. Each run acks 200 more of a prefilled
// pending queue.
func TestAckAllocFree(t *testing.T) {
	const perAck, runs = 200, 20
	tr := &Transport{reg: metrics.NewRegistry(3)}
	p := newPeer(tr, "x")
	pushSeq(t, &p.pending, perAck*(runs+1))
	var upTo uint64
	allocs := testing.AllocsPerRun(runs, func() {
		upTo += perAck
		p.ack(upTo)
	})
	if allocs != 0 {
		t.Errorf("acking %d pending frames allocates %.1f times, want 0", perAck, allocs)
	}
	if p.pending.length != 0 {
		t.Errorf("%d frames still pending after acking all", p.pending.length)
	}
}

// TestQueuedWakesCoalesce: a peer queues at most one wake per process of
// a group, and the next batch carries each queued wake once, right after
// the ack, and empties the queue.
func TestQueuedWakesCoalesce(t *testing.T) {
	p := newPeer(&Transport{}, "x")
	p.queueAck(hwSynced{seq: 4})
	for _, w := range []wakeTo{{9, 3}, {9, 3}, {9, 4}, {8, 3}, {9, 4}} {
		p.queueWake(w.group, w.to)
	}
	p.mu.Lock()
	_, ackTo, frames := p.takeBatchLocked()
	left := len(p.wakes)
	p.mu.Unlock()
	if ackTo != 4 || frames != 4 || left != 0 {
		t.Fatalf("batch took ack %d and %d frames, %d wakes left; want ack 4, 4 frames, 0 left", ackTo, frames, left)
	}
	br := bufio.NewReader(bytes.NewReader(p.out))
	fr := newFrameReader()
	defer fr.close()
	var got []ctrlFrame
	var f frame
	for fr.read(br, &f) == nil {
		got = append(got, ctrlFrame{Kind: f.Kind, AckTo: f.AckTo, Group: f.Group, To: f.To})
	}
	want := []ctrlFrame{{Kind: frameAck, AckTo: 4}, {Kind: frameWake, Group: 9, To: 3},
		{Kind: frameWake, Group: 9, To: 4}, {Kind: frameWake, Group: 8, To: 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("batch frames %+v, want %+v", got, want)
	}
}

// TestAckPathTakesNoNodeLock: the ack path resolves the reverse peer
// once per receive loop, so with both nodes' node locks held a sent frame
// is still delivered, its ack still queued and sent by the receiver, and
// the sender's pending queue still drains.
func TestAckPathTakesNoNodeLock(t *testing.T) {
	nodes := newTestNodes(t, 2)
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	g0 := openTestGroup(t, nodes[0], 0, []core.ProcID{0}, addrs)
	g1 := openTestGroup(t, nodes[1], 0, []core.ProcID{1}, addrs)
	nodes[0].mu.Lock()
	p := nodes[0].peers[addrs[1]]
	nodes[0].mu.Unlock()
	pending := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.pending.length
	}
	// await polls until cond holds, reporting whether it did in time.
	await := func(cond func() bool) bool {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if !time.Now().Before(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}
	// Warm up both directions, so every receive loop has resolved its
	// sender before the locks are taken.
	for i, g := range []*Group{g0, g1} {
		from, to := core.ProcID(i), core.ProcID(1-i)
		if err := g.Send(from, to, "warm", core.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		recv := []*Group{g0, g1}[to]
		if !await(func() bool { _, ok := recv.TryRecv(to); return ok }) {
			t.Fatalf("warm-up message %v→%v not delivered", from, to)
		}
	}
	if !await(func() bool { return pending() == 0 }) {
		t.Fatal("warm-up message never acked")
	}

	for _, tr := range nodes {
		tr.mu.Lock()
		defer tr.mu.Unlock()
	}
	if err := g0.Send(0, 1, "locked", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	var m core.Message
	if !await(func() bool { var ok bool; m, ok = g1.TryRecv(1); return ok }) || m.Payload != "locked" {
		t.Fatalf("with both node locks held, got %v; want the sent frame delivered", m.Payload)
	}
	if !await(func() bool { return pending() == 0 }) {
		t.Fatalf("with both node locks held, %d frames still pending: the ack path waited for a node lock", pending())
	}
}

// TestCallPathTakesNoNodeLock is the call-path twin of
// TestAckPathTakesNoNodeLock: a call waits in its group's own table and
// the owner reads its group's handler without a lock, so with both nodes'
// node locks held a CallSpan from node 0 to node 1 still returns the
// handler's answer, and LinkState still returns.
func TestCallPathTakesNoNodeLock(t *testing.T) {
	nodes := newTestNodes(t, 2)
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	g0 := openTestGroup(t, nodes[0], 0, []core.ProcID{0}, addrs)
	g1 := openTestGroup(t, nodes[1], 0, []core.ProcID{1}, addrs)
	g1.SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		return fmt.Sprintf("%v from %v", req, from), nil
	})
	// Warm up, so every receive loop has resolved its sender before the
	// locks are taken.
	if v, _, err := g0.CallSpan(0, 1, "warm", core.SpanContext{}); err != nil || v != "warm from p0" {
		t.Fatalf("warm-up call = %v, %v; want warm from p0", v, err)
	}

	for _, tr := range nodes {
		tr.mu.Lock()
		defer tr.mu.Unlock()
	}
	type result struct {
		v    core.Value
		err  error
		link transport.LinkState
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.v, _, r.err = g0.CallSpan(0, 1, "locked", core.SpanContext{})
		r.link = g0.LinkState(0, 1)
		done <- r
	}()
	select {
	case r := <-done:
		if r.err != nil || r.v != "locked from p0" {
			t.Errorf("with both node locks held, call = %v, %v; want locked from p0", r.v, r.err)
		}
		if r.link != transport.LinkUp {
			t.Errorf("with both node locks held, LinkState = %v, want %v", r.link, transport.LinkUp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("with both node locks held, CallSpan or LinkState waited for a node lock")
	}
}
