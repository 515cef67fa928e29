package tcp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/wire"
)

// openTestGroup opens group id of len(addrs) processes on tr, hosting
// hosted, and dials the view.
func openTestGroup(t *testing.T, tr *Transport, id transport.GroupID, hosted []core.ProcID, addrs []string) *Group {
	t.Helper()
	v, err := tr.OpenGroup(id, transport.GroupConfig{N: len(addrs), Hosted: hosted, Addrs: addrs})
	if err != nil {
		t.Fatalf("OpenGroup(%d): %v", id, err)
	}
	if err := v.Dial(); err != nil {
		t.Fatalf("group %d Dial: %v", id, err)
	}
	return v.(*Group)
}

// newTestNodes makes n nodes on loopback, each closed when the test ends,
// with a short drain so the test does not wait out the default.
func newTestNodes(t *testing.T, n int) []*Transport {
	t.Helper()
	nodes := make([]*Transport, n)
	for i := range nodes {
		tr, err := New(Config{ListenAddr: "127.0.0.1:0", Timeouts: Timeouts{Drain: 100 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		nodes[i] = tr
	}
	return nodes
}

// TestForgedSenderDroppedButAcked drives a node from a raw socket posing
// as its peer: after the hello, a data frame and a request frame whose
// From is not a process of their group, then a genuine data frame. The
// forged frames must reach neither the mailbox nor the RPC handler — an
// algorithm would index its per-sender state out of range, or count a
// phantom voter, breaking Integrity ("never forge") — yet the link must
// stay up and every sequence number must be acked, so the sender does not
// retransmit them forever.
func TestForgedSenderDroppedButAcked(t *testing.T) {
	// The fake peer's listener: the node acks through an outbound
	// connection to the address the hello names, so the test accepts it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	var logs atomic.Int32
	tr, err := New(Config{ListenAddr: "127.0.0.1:0", Logf: func(format string, args ...any) {
		if strings.Contains(format, "is not a process of group") {
			logs.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	g := openTestGroup(t, tr, 0, []core.ProcID{1}, []string{lis.Addr().String(), tr.Addr()})
	var served atomic.Int32
	g.SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		served.Add(1)
		return req, nil
	})

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := append([]byte(nil), preamble[:]...)
	for _, f := range []frame{
		{Kind: frameHello, Version: wire.FrameVersion, Addr: lis.Addr().String()},
		{Kind: frameData, Seq: 1, From: 5, To: 1, Payload: "forged"},
		{Kind: frameReq, Seq: 2, From: -1, To: 1, CallID: 9, Payload: "forged call"},
		{Kind: frameData, Seq: 3, From: 0, To: 1, Payload: "genuine"},
	} {
		if out, err = appendFrame(out, &f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		m, ok := g.TryRecv(1)
		if ok {
			if m.From != 0 || m.Payload != "genuine" {
				t.Fatalf("delivered %v from %v: a forged sender reached the mailbox", m.Payload, m.From)
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("the genuine frame after the forged ones was never delivered")
		}
		time.Sleep(time.Millisecond)
	}

	// The node's ack stream arrives on its own dial to the hello's address.
	lis.(*net.TCPListener).SetDeadline(deadline)
	back, err := lis.Accept()
	if err != nil {
		t.Fatalf("node never dialed back to ack: %v", err)
	}
	defer back.Close()
	back.SetReadDeadline(deadline)
	br := bufio.NewReader(back)
	fr := newFrameReader()
	defer fr.close()
	if _, err := acceptHandshake(br, fr); err != nil {
		t.Fatalf("node's opening: %v", err)
	}
	var f frame
	for f.Kind != frameAck || f.AckTo < 3 {
		if err := fr.read(br, &f); err != nil {
			t.Fatalf("waiting for the ack of seq 3: %v", err)
		}
		if f.Kind != frameAck {
			t.Fatalf("node sent a frame of kind %d, want only acks (no response to a forged call)", f.Kind)
		}
	}

	// The link is still up: another genuine frame on the same connection
	// is delivered.
	next, err := appendFrame(nil, &frame{Kind: frameData, Seq: 4, From: 0, To: 1, Payload: "after"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(next); err != nil {
		t.Fatalf("inbound link closed after the forged frames: %v", err)
	}
	for {
		if m, ok := g.TryRecv(1); ok {
			if m.Payload != "after" {
				t.Fatalf("delivered %v, want the frame after the forged ones", m.Payload)
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("inbound link stopped delivering after the forged frames")
		}
		time.Sleep(time.Millisecond)
	}

	// Close waits for every serve goroutine, so the handler count is final.
	tr.Close()
	if n := served.Load(); n != 0 {
		t.Errorf("RPC handler ran %d times for a request from a forged sender", n)
	}
	if n := logs.Load(); n != 2 {
		t.Errorf("logged %d forged-sender drops, want 2 (one data, one request)", n)
	}
}

// peerQueue returns the last sequence number tr assigned toward the node
// at addr and how many of its frames there still await an ack.
func peerQueue(tr *Transport, addr string) (lastSeq uint64, queued int) {
	tr.mu.Lock()
	p := tr.peers[addr]
	tr.mu.Unlock()
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nextSeq, p.pending.length
}

// TestRequestToClosedGroupWaits: a request for a group its owner's node
// has closed is dropped like a data frame — logged and acked, never
// answered — so the call neither fails nor retransmits. It waits until
// the caller's own group closes, which ends it with ErrClosed.
func TestRequestToClosedGroupWaits(t *testing.T) {
	short := Timeouts{Drain: 100 * time.Millisecond}
	a, err := New(Config{ListenAddr: "127.0.0.1:0", Timeouts: short})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var dropLogged atomic.Bool
	b, err := New(Config{ListenAddr: "127.0.0.1:0", Timeouts: short, Logf: func(format string, args ...any) {
		if strings.Contains(format, "unopened group") {
			dropLogged.Store(true)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addrs := []string{a.Addr(), b.Addr()}
	reg := metrics.NewRegistry(2)
	va, err := a.OpenGroup(0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := va.Dial(); err != nil {
		t.Fatal(err)
	}
	ga := va.(*Group)
	gb := openTestGroup(t, b, 0, []core.ProcID{1}, addrs)
	gb.SetHandler(func(_ core.ProcID, req core.Value) (core.Value, error) { return req, nil })
	if v, _, err := ga.CallSpan(0, 1, "open", core.SpanContext{}); err != nil || v != "open" {
		t.Fatalf("call to the open group = %v, %v; want the echo", v, err)
	}
	if err := gb.Close(); err != nil {
		t.Fatal(err)
	}

	before, _ := peerQueue(a, b.Addr())
	done := make(chan error, 1)
	go func() {
		_, _, err := ga.CallSpan(0, 1, "closed", core.SpanContext{})
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		last, queued := peerQueue(a, b.Addr())
		if last > before && queued == 0 {
			break // the request went out and B acked it
		}
		select {
		case err := <-done:
			t.Fatalf("call to a closed group returned %v, want it to wait", err)
		default:
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("request to the closed group never acked: last seq %d (was %d), %d queued", last, before, queued)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("call to a closed group returned %v after its ack, want it to wait", err)
	case <-time.After(100 * time.Millisecond):
	}
	if !dropLogged.Load() {
		t.Error("B did not log the dropped request")
	}
	// A waiting call is visible in the metrics: issued, not yet timed.
	if waiting := reg.Counters().Total(metrics.RPCIssued) - reg.Histogram(metrics.HistRPCCall).Count(); waiting != 1 {
		t.Errorf("rpc_issued - rpc_call count = %d while the call waits, want 1", waiting)
	}

	if err := ga.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("call ended by its group's Close returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closing the caller's group did not end its pending call")
	}
}

// TestReadBatchOrderAndOneAck drives a node from a raw socket posing as
// its peer, process 0 of groups 1 and 2, with one write that the node
// takes as one read batch: data g1 s1, data g2 s2, a g1 request s3, data
// g1 s4, a duplicate of s2, a data frame s5 with a forged sender, and data
// g1 s6. A run of data frames is delivered in one lock section, but never
// past the request after it: the handler must see s1 in g1's mailbox and
// not s4. g1 must then hold 1, 4, 6 in order and g2 hold 2 once (the
// duplicate filtered, the forged frame dropped and logged once), and the
// node must answer the batch with one cumulative ack of 6, with the
// response on the same link.
func TestReadBatchOrderAndOneAck(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	var forged atomic.Int32
	// The raw peer never acks the response, so Close's drain is cut short.
	tr, err := New(Config{ListenAddr: "127.0.0.1:0", Timeouts: Timeouts{Drain: 50 * time.Millisecond}, Logf: func(format string, args ...any) {
		if strings.Contains(format, "is not a process of group") {
			forged.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	addrs := []string{lis.Addr().String(), tr.Addr()}
	g1 := openTestGroup(t, tr, 1, []core.ProcID{1}, addrs)
	g2 := openTestGroup(t, tr, 2, []core.ProcID{1}, addrs)
	// The handler takes the length of g1's mailbox without consuming it:
	// the mailbox is FIFO, so it held the first atServe messages that g1
	// delivers at the end.
	atServe := -1
	g1.SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		atServe = g1.mailbox(1).Len()
		return req, nil
	})

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := append([]byte(nil), preamble[:]...)
	for _, f := range []frame{
		{Kind: frameHello, Version: wire.FrameVersion, Addr: lis.Addr().String()},
		{Kind: frameData, Seq: 1, Group: 1, From: 0, To: 1, Payload: 1},
		{Kind: frameData, Seq: 2, Group: 2, From: 0, To: 1, Payload: 2},
		{Kind: frameReq, Seq: 3, Group: 1, From: 0, To: 1, CallID: 7, Payload: "call"},
		{Kind: frameData, Seq: 4, Group: 1, From: 0, To: 1, Payload: 4},
		{Kind: frameData, Seq: 2, Group: 2, From: 0, To: 1, Payload: "duplicate"},
		{Kind: frameData, Seq: 5, Group: 1, From: 5, To: 1, Payload: "forged"},
		{Kind: frameData, Seq: 6, Group: 1, From: 0, To: 1, Payload: 6},
	} {
		if out, err = appendFrame(out, &f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}

	// The ack and the response arrive on the node's own dial to the
	// hello's address.
	deadline := time.Now().Add(10 * time.Second)
	lis.(*net.TCPListener).SetDeadline(deadline)
	back, err := lis.Accept()
	if err != nil {
		t.Fatalf("node never dialed back: %v", err)
	}
	defer back.Close()
	back.SetReadDeadline(deadline)
	br := bufio.NewReader(back)
	fr := newFrameReader()
	defer fr.close()
	if _, err := acceptHandshake(br, fr); err != nil {
		t.Fatalf("node's opening: %v", err)
	}
	var acks []uint64
	answered := false
	for len(acks) == 0 || acks[len(acks)-1] < 6 || !answered {
		var f frame
		if err := fr.read(br, &f); err != nil {
			t.Fatalf("waiting for the ack of 6 and the response (acks so far %v, answered %v): %v", acks, answered, err)
		}
		switch f.Kind {
		case frameAck:
			acks = append(acks, f.AckTo)
		case frameResp:
			if f.CallID != 7 || f.Group != 1 || f.To != 0 || f.Payload != "call" || f.ErrMsg != "" {
				t.Fatalf("response %+v, want the echo of call 7 in group 1", f)
			}
			answered = true
		default:
			t.Fatalf("node sent a frame of kind %d, want acks and one response", f.Kind)
		}
	}
	if len(acks) != 1 {
		t.Errorf("node acked the batch with %v, want one cumulative ack of 6", acks)
	}

	// Every frame of the batch was handled before its ack was sent.
	var delivered []core.Value
	for _, c := range []struct {
		g    *Group
		want []core.Value
	}{{g1, []core.Value{1, 4, 6}}, {g2, []core.Value{2}}} {
		var got []core.Value
		for {
			m, ok := c.g.TryRecv(1)
			if !ok {
				break
			}
			if m.From != 0 {
				t.Errorf("group %d delivered %v from %v", c.g.id, m.Payload, m.From)
			}
			got = append(got, m.Payload)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("group %d delivered %v, want %v", c.g.id, got, c.want)
		}
		if c.g == g1 {
			delivered = got
		}
	}
	if want := []core.Value{1}; atServe < 0 || atServe > len(delivered) || !reflect.DeepEqual(delivered[:atServe], want) {
		t.Errorf("handler saw g1's mailbox hold %d messages of %v, want %v: a data run must be delivered before the request after it, and only up to it", atServe, delivered, want)
	}
	if n := forged.Load(); n != 1 {
		t.Errorf("logged %d forged-sender drops, want 1", n)
	}
}

// TestCallsRouteByGroup: a response names its group, and its call id
// matches only within that group's calls. Two groups over one node pair
// have their call ids count from the same base, so every id is in flight
// in both at once; the concurrent calls of each must still get their own
// group's answer to their own request.
func TestCallsRouteByGroup(t *testing.T) {
	const callers, calls = 4, 200
	nodes := newTestNodes(t, 2)
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	var callerGroups []*Group
	for id := transport.GroupID(1); id <= 2; id++ {
		g := openTestGroup(t, nodes[0], id, []core.ProcID{0}, addrs)
		g.callSeq = 1 << 40
		callerGroups = append(callerGroups, g)
		openTestGroup(t, nodes[1], id, []core.ProcID{1}, addrs).SetHandler(
			func(_ core.ProcID, req core.Value) (core.Value, error) { return fmt.Sprintf("%d:%v", id, req), nil })
	}

	errs := make(chan error, 2*callers)
	for _, g := range callerGroups {
		for c := 0; c < callers; c++ {
			go func() {
				for i := c * calls; i < (c+1)*calls; i++ {
					v, _, err := g.CallSpan(0, 1, i, core.SpanContext{})
					if want := fmt.Sprintf("%d:%d", g.id, i); err != nil || v != want {
						errs <- fmt.Errorf("group %d call %d = %v, %v; want %v", g.id, i, v, err, want)
						return
					}
				}
				errs <- nil
			}()
		}
	}
	for range 2 * callers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
