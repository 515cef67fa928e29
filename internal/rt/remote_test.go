package rt

import (
	"errors"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/trace"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// TestServeMemChecksTheSender pins where a served register operation is
// access-checked: against the sender the transport validated. With one
// edge 0–1, p2 is outside S_0 = {0, 1}, so its read, write and CAS of p0's
// register are denied and leave it unchanged; the same requests from p1
// succeed.
func TestServeMemChecksTheSender(t *testing.T) {
	gsm := graph.New(3)
	gsm.AddEdge(0, 1)
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: gsm}}, noop)
	ref := core.Reg(0, "x")
	if err := h.mem.Write(0, ref, 1); err != nil {
		t.Fatal(err)
	}
	for _, req := range []core.Value{
		memReadReq{Ref: ref},
		memWriteReq{Ref: ref, Val: 2},
		memCASReq{Ref: ref, Expected: 1, Desired: 2},
	} {
		if _, err := h.serveMem(2, req); !errors.Is(err, core.ErrAccessDenied) {
			t.Errorf("%s from p2: err = %v, want %v", reqName(req), err, core.ErrAccessDenied)
		}
		if v, _ := h.mem.Peek(ref); v != 1 {
			t.Fatalf("%s from p2 left the register at %v, want 1", reqName(req), v)
		}
	}

	resp, err := h.serveMem(1, memReadReq{Ref: ref})
	if err != nil || resp != (memReadResp{Val: 1}) {
		t.Fatalf("read from p1 = %v, %v; want %v", resp, err, memReadResp{Val: 1})
	}
	if _, err := h.serveMem(1, memWriteReq{Ref: ref, Val: 2}); err != nil {
		t.Fatalf("write from p1: %v", err)
	}
	resp, err = h.serveMem(1, memCASReq{Ref: ref, Expected: 2, Desired: 3})
	if cr, ok := resp.(memCASResp); err != nil || !ok || !cr.Swapped {
		t.Fatalf("CAS from p1 = %v, %v; want a swap", resp, err)
	}
	if v, _ := h.mem.Peek(ref); v != 3 {
		t.Fatalf("after p1's write and CAS the register holds %v, want 3", v)
	}
}

// TestUntracedServeAllocatesAsServeMem pins the serve path's cost for an
// untraced request, with tracing off and with it on: serveMemSpan names
// no span, so it allocates exactly what serveMem does (the boxed
// response).
func TestUntracedServeAllocatesAsServeMem(t *testing.T) {
	for _, tc := range []struct {
		name   string
		flight *trace.Flight
	}{
		{"tracing off", nil},
		{"tracing on", trace.NewFlight("n", 64, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nd, err := NewNode(NodeConfig{Flight: tc.flight})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nd.Close() })
			h, err := nd.OpenGroup(0, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}, noop)
			if err != nil {
				t.Fatal(err)
			}
			if (h.spans != nil) != (tc.flight != nil) {
				t.Fatalf("group span scope = %v with flight %v", h.spans, tc.flight)
			}
			ref := core.Reg(0, "x")
			if err := h.mem.Write(0, ref, 1); err != nil {
				t.Fatal(err)
			}
			var req core.Value = memReadReq{Ref: ref}
			plain := testing.AllocsPerRun(100, func() { h.serveMem(1, req) })
			spanned := testing.AllocsPerRun(100, func() { h.serveMemSpan(1, req, core.SpanContext{Clock: 5}) })
			if spanned != plain {
				t.Fatalf("untraced serveMemSpan allocates %v per request, serveMem %v", spanned, plain)
			}
		})
	}
}

// TestStopEndsPendingRemoteCall: a process blocked in a remote read whose
// owner never answers must not hold Stop, since a call has no timeout of
// its own, and the call that Stop ended is not a process error. The owner is a raw tcp
// group whose handler waits until the test ends.
func TestStopEndsPendingRemoteCall(t *testing.T) {
	peer, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Timeouts: tcp.Timeouts{Drain: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Timeouts: tcp.Timeouts{Drain: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{tr.Addr(), peer.Addr()}
	nd, err := NewNode(NodeConfig{Transport: tr, Directory: directory.Uniform{Addrs: addrs}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })

	entered, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs first: lets the peer drain
	stall := func(core.ProcID, core.Value, core.SpanContext) (core.Value, core.SpanContext, error) {
		close(entered)
		<-release
		return nil, core.SpanContext{}, nil
	}
	if _, err := peer.OpenGroup(0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs, Handler: stall}); err != nil {
		t.Fatal(err)
	}

	alg := core.AlgorithmFunc(func(core.ProcID) core.Process {
		return func(env core.Env) error {
			_, err := env.Read(core.Reg(1, "x"))
			return err
		}
	})
	g, err := nd.OpenGroup(0, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}, alg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the remote read never reached the owner")
	}
	start := time.Now()
	res := g.Stop()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Stop took %v with a remote call pending, want ≤ 1s", d)
	}
	if err := res.Err(); err != nil {
		t.Errorf("Stop's result carries %v, want no error", err)
	}
}
