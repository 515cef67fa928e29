package rt

import (
	"errors"
	"reflect"
	"strings"
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
		memOp{Kind: opRead, Ref: ref},
		memOp{Kind: opWrite, Ref: ref, Val: 2},
		memOp{Kind: opCAS, Ref: ref, Expected: 1, Val: 2},
	} {
		if _, err := h.serveMem(2, req); !errors.Is(err, core.ErrAccessDenied) {
			t.Errorf("%s from p2: err = %v, want %v", req, err, core.ErrAccessDenied)
		}
		if v, _ := h.mem.Peek(ref); v != 1 {
			t.Fatalf("%s from p2 left the register at %v, want 1", req, v)
		}
	}

	resp, err := h.serveMem(1, memOp{Kind: opRead, Ref: ref})
	if err != nil || resp != (memResult{Val: 1}) {
		t.Fatalf("read from p1 = %v, %v; want %v", resp, err, memResult{Val: 1})
	}
	if _, err := h.serveMem(1, memOp{Kind: opWrite, Ref: ref, Val: 2}); err != nil {
		t.Fatalf("write from p1: %v", err)
	}
	resp, err = h.serveMem(1, memOp{Kind: opCAS, Ref: ref, Expected: 2, Val: 3})
	if cr, ok := resp.(memResult); err != nil || !ok || !cr.Swapped {
		t.Fatalf("CAS from p1 = %v, %v; want a swap", resp, err)
	}
	if v, _ := h.mem.Peek(ref); v != 3 {
		t.Fatalf("after p1's write and CAS the register holds %v, want 3", v)
	}
}

// TestRegOpLocalAndServedAgree runs each kind of register op twice, on
// a fresh group each time: locally, as regOp on a hosted owner, and
// served, as serveMem from the same neighbour. Both runs must give the
// same memResult, the same wake-ups — a token for every hosted process
// while one is parked, and a remote wake for a process watching the
// register — and leave the same register contents. Writes and swapping
// CASes wake; reads and failing CASes do not.
func TestRegOpLocalAndServedAgree(t *testing.T) {
	const caller, watcher core.ProcID = 1, 2
	ref := core.Reg(0, "x")
	type outcome struct {
		res    memResult
		tokens int
		woken  []core.ProcID
		after  core.Value
	}
	for _, tc := range []struct {
		name  string
		init  core.Value // the register's contents before op; nil leaves it empty and watched
		op    memOp
		res   memResult
		after core.Value
		wakes bool
	}{
		{"read", 1, memOp{Kind: opRead, Ref: ref}, memResult{Val: 1}, 1, false},
		{"write", nil, memOp{Kind: opWrite, Ref: ref, Val: 5}, memResult{}, 5, true},
		{"swapping-cas", nil, memOp{Kind: opCAS, Ref: ref, Expected: nil, Val: 5}, memResult{Swapped: true}, 5, true},
		{"failing-cas", nil, memOp{Kind: opCAS, Ref: ref, Expected: -1, Val: 5}, memResult{}, nil, false},
	} {
		run := func(served bool) outcome {
			t.Helper()
			h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(3)}}, noop)
			defer h.Stop()
			rec := &wakeRecorder{}
			h.rpc = rec
			if tc.init != nil {
				if err := h.mem.Write(0, ref, tc.init); err != nil {
					t.Fatal(err)
				}
			} else if _, err := h.serveMem(watcher, memOp{Kind: opRead, Ref: ref}); err != nil {
				t.Fatal(err)
			}
			var o outcome
			var err error
			h.parked.Add(1)
			if served {
				var resp core.Value
				if resp, err = h.serveMem(caller, tc.op); err == nil {
					o.res = resp.(memResult)
				}
			} else {
				o.res, err = h.regOp(caller, tc.op, nil)
			}
			h.parked.Add(-1)
			if err != nil {
				t.Fatalf("%s (served %v): %v", tc.name, served, err)
			}
			for _, ps := range h.procs {
				select {
				case <-ps.wake:
					o.tokens++
				default:
				}
			}
			o.woken = rec.take()
			o.after, _ = h.mem.Peek(ref)
			return o
		}
		local, served := run(false), run(true)
		if !reflect.DeepEqual(local, served) {
			t.Errorf("%s: local run %+v, served run %+v", tc.name, local, served)
		}
		want := outcome{res: tc.res, after: tc.after}
		if tc.wakes {
			want.tokens, want.woken = 3, []core.ProcID{watcher}
		}
		if !reflect.DeepEqual(local, want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, local, want)
		}
	}
}

// TestServeMemRefusesOtherRequests: serveMem serves only a memOp.
func TestServeMemRefusesOtherRequests(t *testing.T) {
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}, noop)
	for _, req := range []core.Value{nil, "read", memResult{Val: 1}, &memOp{Kind: opRead, Ref: core.Reg(0, "x")}} {
		if _, err := h.serveMem(1, req); err == nil || !strings.Contains(err.Error(), "unknown RPC request") {
			t.Errorf("serveMem(%#v) = %v, want an unknown RPC request error", req, err)
		}
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
			var req core.Value = memOp{Kind: opRead, Ref: ref}
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
