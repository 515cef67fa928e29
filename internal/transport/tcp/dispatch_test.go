package tcp

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
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
