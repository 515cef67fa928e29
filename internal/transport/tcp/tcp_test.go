package tcp_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/mutex"
	"github.com/mnm-model/mnm/internal/paxos"
	"github.com/mnm-model/mnm/internal/rsm"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// member is one node of a test cluster: the node itself plus its dialed
// view of group 0. Close exists on both, so a test names the one it means (m.Transport.Close drains the node, m.Group.Close detaches
// the group).
type member struct {
	*tcp.Transport
	*tcp.Group
}

// newCluster builds one tcp.Transport per node over loopback ephemeral
// ports and opens group 0 of n processes on every node, each node hosting
// the listed processes, with the address table wired up and every view
// dialed. It takes a testing.TB so benchmarks share it.
func newCluster(t testing.TB, n int, hosted [][]core.ProcID) []member {
	return newClusterWith(t, n, hosted, nil)
}

// newClusterWith is newCluster with a per-node config hook, for tests
// that need TLS, a registry, or log capture. A node's Config.Registry also
// meters its view of group 0.
func newClusterWith(t testing.TB, n int, hosted [][]core.ProcID, mutate func(i int, cfg *tcp.Config)) []member {
	t.Helper()
	nodes := make([]member, len(hosted))
	regs := make([]*metrics.Registry, len(hosted))
	for i := range hosted {
		cfg := tcp.Config{ListenAddr: "127.0.0.1:0"}
		if mutate != nil {
			mutate(i, &cfg)
		}
		tr, err := tcp.New(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(func() { tr.Close() })
		nodes[i].Transport = tr
		regs[i] = cfg.Registry
	}
	addrs := make([]string, n)
	for i, hs := range hosted {
		for _, p := range hs {
			addrs[p] = nodes[i].Addr()
		}
	}
	for i, hs := range hosted {
		nodes[i].Group = openView(t, nodes[i].Transport, 0, transport.GroupConfig{N: n, Hosted: hs, Addrs: addrs, Registry: regs[i]})
	}
	return nodes
}

// openView opens group id on node tr and dials the view.
func openView(t testing.TB, tr *tcp.Transport, id transport.GroupID, cfg transport.GroupConfig) *tcp.Group {
	t.Helper()
	v, err := tr.OpenGroup(id, cfg)
	if err != nil {
		t.Fatalf("%s OpenGroup(%d): %v", tr.Addr(), id, err)
	}
	if err := v.Dial(); err != nil {
		t.Fatalf("%s group %d Dial: %v", tr.Addr(), id, err)
	}
	return v.(*tcp.Group)
}

// receiver is the receive side of a transport, the part recvOne polls.
type receiver interface {
	TryRecv(p core.ProcID) (core.Message, bool)
}

// recvOne polls tr for the next message to p, failing after a deadline.
func recvOne(t *testing.T, tr receiver, p core.ProcID) core.Message {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m, ok := tr.TryRecv(p); ok {
			return m
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no message for %v within deadline", p)
	return core.Message{}
}

// TestLoopbackPayloadRoundTrip pushes one of every algorithm payload type
// through the wire and checks it arrives intact — the encoding
// contract every algorithm package's wire.go promises.
func TestLoopbackPayloadRoundTrip(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})

	var payloads []core.Value
	payloads = append(payloads, benor.WirePayloads()...)
	payloads = append(payloads, hbo.WirePayloads()...)
	payloads = append(payloads, leader.WirePayloads()...)
	payloads = append(payloads, rsm.WirePayloads()...)
	payloads = append(payloads, mutex.WirePayloads()...)
	payloads = append(payloads, paxos.WirePayloads()...)
	payloads = append(payloads, rt.WirePayloads()...)
	payloads = append(payloads, 7, int64(-1), "text", true, core.ProcID(2), nil)

	for _, want := range payloads {
		if err := nodes[0].Send(0, 1, want, core.SpanContext{}); err != nil {
			t.Fatalf("Send(%#v): %v", want, err)
		}
	}
	for _, want := range payloads {
		m := recvOne(t, nodes[1], 1)
		if m.From != 0 {
			t.Fatalf("From = %v, want p0", m.From)
		}
		if !reflect.DeepEqual(m.Payload, want) {
			t.Fatalf("payload round trip: got %#v, want %#v", m.Payload, want)
		}
	}
}

// TestReconnectAfterKillRedelivers kills every live connection mid-stream
// and checks that the sequence numbers + retransmission protocol delivers
// every message exactly once, in order: No-loss and Integrity across a
// connection fault.
func TestReconnectAfterKillRedelivers(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	const total = 60
	for i := 0; i < total; i++ {
		if err := nodes[0].Send(0, 1, i, core.SpanContext{}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if i == total/2 {
			nodes[0].KillConnections()
			nodes[1].KillConnections()
		}
	}
	for i := 0; i < total; i++ {
		m := recvOne(t, nodes[1], 1)
		if m.Payload != i {
			t.Fatalf("message %d arrived as %v (lost, duplicated or reordered)", i, m.Payload)
		}
	}
	if m, ok := nodes[1].TryRecv(1); ok {
		t.Fatalf("unexpected extra message %v: duplicate delivery violates Integrity", m.Payload)
	}
}

// TestBackoffConnectsOnceListenerAppears dials toward an address nobody is
// listening on yet; the exponential-backoff reconnect loop must pick the
// link up once the peer binds, without losing the queued message.
func TestBackoffConnectsOnceListenerAppears(t *testing.T) {
	// Reserve a port for the future node 1, then free it.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	futureAddr := probe.Addr().String()
	probe.Close()

	n0, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n0.Close() })
	addrs := []string{n0.Addr(), futureAddr}
	g0 := openView(t, n0, 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs})
	if err := g0.Send(0, 1, "early", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if st := g0.LinkState(0, 1); st == transport.LinkUp {
		t.Fatalf("link reported up with no listener bound")
	}

	time.Sleep(150 * time.Millisecond) // let several connect attempts fail
	n1, err := tcp.New(tcp.Config{ListenAddr: futureAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close() })
	g1 := openView(t, n1, 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs})

	if m := recvOne(t, g1, 1); m.Payload != "early" {
		t.Fatalf("got %v, want the pre-listener message", m.Payload)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g0.LinkState(0, 1) != transport.LinkUp && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := g0.LinkState(0, 1); st != transport.LinkUp {
		t.Fatalf("link state = %v after reconnect, want %v", st, transport.LinkUp)
	}
}

// TestRPCRoundTripAndSentinelErrors exercises the Call plane used for
// remote register access: values cross intact and model sentinel errors
// survive the wire so errors.Is keeps working across nodes.
func TestRPCRoundTripAndSentinelErrors(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	nodes[1].SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		switch req {
		case "ok":
			return fmt.Sprintf("served %v", from), nil
		case "denied":
			return nil, fmt.Errorf("remote: %w", core.ErrAccessDenied)
		}
		return nil, errors.New("unexpected request")
	})

	v, _, err := nodes[0].CallSpan(0, 1, "ok", core.SpanContext{})
	if err != nil || v != "served p0" {
		t.Fatalf("Call = %v, %v; want served p0", v, err)
	}
	_, _, err = nodes[0].CallSpan(0, 1, "denied", core.SpanContext{})
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("Call error = %v, want ErrAccessDenied across the wire", err)
	}
	// A call is to a process on another node: the caller's own is refused.
	if _, _, err = nodes[0].CallSpan(0, 0, "ok", core.SpanContext{}); !errors.Is(err, core.ErrUnknownProc) {
		t.Fatalf("Call to a hosted process: error = %v, want ErrUnknownProc", err)
	}
}

// TestCloseDrainsQueuedFrames queues messages and immediately closes the
// sender: Close must wait for the acks, so the receiver still gets
// everything.
func TestCloseDrainsQueuedFrames(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	const total = 20
	for i := 0; i < total; i++ {
		if err := nodes[0].Send(0, 1, i, core.SpanContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].Transport.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if m := recvOne(t, nodes[1], 1); m.Payload != i {
			t.Fatalf("message %d arrived as %v after sender close", i, m.Payload)
		}
	}
}

// TestHostedSameNodeShortCircuit checks that a message between two
// processes hosted on the same node never touches a socket.
func TestHostedSameNodeShortCircuit(t *testing.T) {
	nodes := newCluster(t, 3, [][]core.ProcID{{0, 1}, {2}})
	if err := nodes[0].Send(0, 1, "local", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if m, ok := nodes[0].TryRecv(1); !ok || m.Payload != "local" {
		t.Fatalf("local delivery failed: %+v, %v", m, ok)
	}
	if st := nodes[0].LinkState(0, 1); st != transport.LinkUp {
		t.Fatalf("intra-node link state = %v, want %v", st, transport.LinkUp)
	}
}

// TestSpanContextSurvivesEveryBackend sends and broadcasts with a
// non-zero SpanContext from process 0 of a two-process system and checks
// that every delivered copy carries an equal Message.Span, on each
// backend a group can run over. host[p] is the transport hosting p.
func TestSpanContextSurvivesEveryBackend(t *testing.T) {
	cases := []struct {
		name string
		host func(t *testing.T) [2]transport.Transport
	}{
		{"chan", func(*testing.T) [2]transport.Transport {
			c := transport.NewChan(2, nil)
			return [2]transport.Transport{c, c}
		}},
		{"lossy-chan", func(*testing.T) [2]transport.Transport {
			l := transport.NewLossy(transport.NewChan(2, nil), msgnet.NoDrop{}, nil)
			return [2]transport.Transport{l, l}
		}},
		{"tcp-hosted", func(t *testing.T) [2]transport.Transport {
			g := newCluster(t, 2, [][]core.ProcID{{0, 1}})[0].Group
			return [2]transport.Transport{g, g}
		}},
		{"tcp-remote", func(t *testing.T) [2]transport.Transport {
			nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
			return [2]transport.Transport{nodes[0].Group, nodes[1].Group}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			host := tc.host(t)
			sc := core.SpanContext{TraceID: 7, SpanID: 11, Clock: 13}
			if err := host[0].Send(0, 1, "send", sc); err != nil {
				t.Fatal(err)
			}
			if m := recvOne(t, host[1], 1); m.Payload != "send" || m.Span != sc {
				t.Fatalf("Send delivered %+v, want payload %q with span %+v", m, "send", sc)
			}
			bc := core.SpanContext{TraceID: 17, SpanID: 19, Clock: 23}
			if err := host[0].Broadcast(0, "broadcast", bc); err != nil {
				t.Fatal(err)
			}
			for p := core.ProcID(0); p < 2; p++ {
				if m := recvOne(t, host[p], p); m.Payload != "broadcast" || m.Span != bc {
					t.Fatalf("Broadcast delivered %+v to %v, want payload %q with span %+v", m, p, "broadcast", bc)
				}
			}
		})
	}
}

// TestRefusedSendNotMetered checks that a send the group refuses — one
// before Dial, and any after Close — leaves msg_sent at zero, as on the
// Chan backend.
func TestRefusedSendNotMetered(t *testing.T) {
	tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	reg := metrics.NewRegistry(2)
	g, err := tr.OpenGroup(0, transport.GroupConfig{
		N: 2, Hosted: []core.ProcID{0}, Addrs: []string{tr.Addr(), "127.0.0.1:1"}, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Send(0, 1, "early", core.SpanContext{}); err == nil {
		t.Fatal("Send before Dial succeeded")
	}
	if n := reg.Counters().Total(metrics.MsgSent); n != 0 {
		t.Fatalf("msg_sent = %d after a send before Dial, want 0", n)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	for to := core.ProcID(0); to < 2; to++ {
		if err := g.Send(0, to, "late", core.SpanContext{}); !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Send to %v after Close = %v, want ErrClosed", to, err)
		}
	}
	if n := reg.Counters().Total(metrics.MsgSent); n != 0 {
		t.Fatalf("msg_sent = %d after sends on a closed group, want 0", n)
	}
}

// awaitTotal polls a counter kind's total until it reaches want, failing
// after a deadline. Frame acks arrive asynchronously, so assertions on
// frame counters must be "eventually" assertions.
func awaitTotal(t *testing.T, c *metrics.Counters, k metrics.Kind, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Total(k) >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("counter %v total = %d, want >= %d", k, c.Total(k), want)
}

// TestInstrumentationMetersFramesAndRPC builds a two-node cluster with a
// metrics.Registry per node and checks the full transport observability schema:
// adopted message counters, frame sent/acked accounting, reconnect events
// after a connection kill, the frame_rtt histogram, and the RPC counters
// with the rpc_call histogram — including the failure path.
func TestInstrumentationMetersFramesAndRPC(t *testing.T) {
	regs := []*metrics.Registry{metrics.NewRegistry(2), metrics.NewRegistry(2)}
	nodes := newClusterWith(t, 2, [][]core.ProcID{{0}, {1}}, func(i int, cfg *tcp.Config) {
		cfg.Registry = regs[i]
	})

	// First half: establish the link and confirm delivery, so the kill
	// below hits a live connection (not a dial still in flight).
	const total = 40
	for i := 0; i < total/2; i++ {
		if err := nodes[0].Send(0, 1, i, core.SpanContext{}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < total/2; i++ {
		recvOne(t, nodes[1], 1)
	}
	nodes[0].KillConnections()
	nodes[1].KillConnections()
	for i := total / 2; i < total; i++ {
		if err := nodes[0].Send(0, 1, i, core.SpanContext{}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := total / 2; i < total; i++ {
		recvOne(t, nodes[1], 1)
	}

	c0, c1 := regs[0].Counters(), regs[1].Counters()
	if got := c0.Of(0, metrics.MsgSent); got != total {
		t.Errorf("group counters: MsgSent = %d, want %d", got, total)
	}
	if got := c1.Of(1, metrics.MsgDelivered); got != total {
		t.Errorf("group counters: MsgDelivered = %d, want %d", got, total)
	}
	// Every data frame is written fresh exactly once and acked exactly once.
	awaitTotal(t, c0, metrics.FrameSent, total)
	awaitTotal(t, c0, metrics.FrameAcked, total)
	if got := c0.Of(0, metrics.FrameSent); got != total {
		t.Errorf("FrameSent = %d, want %d", got, total)
	}
	// The kill must have produced at least one reconnect on the sender.
	awaitTotal(t, c0, metrics.Reconnects, 1)
	h := regs[0].Histogram(metrics.HistFrameRTT).Snapshot()
	if h.Count != total {
		t.Errorf("frame_rtt count = %d, want %d (one observation per acked frame)", h.Count, total)
	}
	if h.Max() <= 0 {
		t.Errorf("frame_rtt max = %v, want > 0", h.Max())
	}

	nodes[1].SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		if req == "boom" {
			return nil, core.ErrAccessDenied
		}
		return req, nil
	})
	if v, _, err := nodes[0].CallSpan(0, 1, "ping", core.SpanContext{}); err != nil || v != "ping" {
		t.Fatalf("Call = %v, %v", v, err)
	}
	if _, _, err := nodes[0].CallSpan(0, 1, "boom", core.SpanContext{}); !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("Call(boom) err = %v, want ErrAccessDenied", err)
	}
	if got := c0.Of(0, metrics.RPCIssued); got != 2 {
		t.Errorf("RPCIssued = %d, want 2", got)
	}
	if got := c0.Of(0, metrics.RPCFailed); got != 1 {
		t.Errorf("RPCFailed = %d, want 1", got)
	}
	if hc := regs[0].Histogram(metrics.HistRPCCall).Count(); hc != 2 {
		t.Errorf("rpc_call count = %d, want 2", hc)
	}
}

// TestRegistriesBoundAtConstruction: a node meters its frame plane into
// the registry it was built with, and a group meters its messages and
// RPCs into the registry it was opened with. A durable node built with R
// opens a group with G, then sends and calls; each registry gets its own
// rows and none of the other's.
func TestRegistriesBoundAtConstruction(t *testing.T) {
	nodeReg, groupReg := metrics.NewRegistry(2), metrics.NewRegistry(2)
	a, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Registry: nodeReg, Durability: &tcp.Durability{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	addrs := []string{a.Addr(), b.Addr()}
	ga := openView(t, a, 1, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs, Registry: groupReg})
	gb := openView(t, b, 1, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs})
	gb.SetHandler(func(_ core.ProcID, req core.Value) (core.Value, error) { return req, nil })

	if err := ga.Send(0, 1, "data", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, gb, 1)
	if v, _, err := ga.CallSpan(0, 1, "call", core.SpanContext{}); err != nil || v != "call" {
		t.Fatalf("Call = %v, %v; want the echo", v, err)
	}
	awaitTotal(t, nodeReg.Counters(), metrics.FrameAcked, 2) // the data frame and the request

	histNames := func(reg *metrics.Registry) []string {
		var names []string
		for name := range reg.HistSnapshots() {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	for _, c := range []struct {
		name      string
		reg       *metrics.Registry
		own, none []metrics.Kind
		hists     []string
	}{
		{"node", nodeReg, []metrics.Kind{metrics.FrameSent, metrics.FrameAcked}, []metrics.Kind{metrics.MsgSent, metrics.RPCIssued},
			[]string{metrics.HistBatchFrames, metrics.HistFrameRTT, metrics.HistFsync}},
		{"group", groupReg, []metrics.Kind{metrics.MsgSent, metrics.RPCIssued}, []metrics.Kind{metrics.FrameSent, metrics.FrameAcked},
			[]string{metrics.HistRPCCall}},
	} {
		for _, k := range c.own {
			if got := c.reg.Counters().Total(k); got == 0 {
				t.Errorf("%s registry: %v = 0, want > 0", c.name, k)
			}
		}
		for _, k := range c.none {
			if got := c.reg.Counters().Total(k); got != 0 {
				t.Errorf("%s registry: %v = %d, want 0 (the other registry's row)", c.name, k, got)
			}
		}
		if got := histNames(c.reg); !reflect.DeepEqual(got, c.hists) {
			t.Errorf("%s registry histograms = %v, want %v", c.name, got, c.hists)
		}
	}
}

// TestInstrumentationDialFailures points a node at an address nobody
// listens on and checks dial failures are metered against the node's
// lowest hosted process.
func TestInstrumentationDialFailures(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := lis.Addr().String()
	lis.Close() // free the port: connects will be refused

	reg := metrics.NewRegistry(2)
	tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	openView(t, tr, 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: []string{tr.Addr(), dead}})
	awaitTotal(t, reg.Counters(), metrics.DialFailures, 1)
	if got := reg.Counters().Of(0, metrics.DialFailures); got < 1 {
		t.Errorf("dial failures attributed to p0 = %d, want >= 1", got)
	}
}

// TestCodecLessSendDroppedNotWedged sends a value whose type has no
// payload codec between two live nodes. There is no fallback encoding:
// the frame is dropped at encode time and counted exactly once, never
// delivered — and it never enters the retransmission queue, so it cannot
// wedge the link: the next Send on it arrives.
func TestCodecLessSendDroppedNotWedged(t *testing.T) {
	reg := metrics.NewRegistry(2)
	nodes := newClusterWith(t, 2, [][]core.ProcID{{0}, {1}}, func(i int, cfg *tcp.Config) {
		if i == 0 {
			cfg.Registry = reg
		}
	})
	type codecLess struct{ N int }
	if err := nodes[0].Send(0, 1, codecLess{N: 1}, core.SpanContext{}); err != nil {
		t.Fatalf("Send(codec-less): %v", err)
	}
	awaitTotal(t, reg.Counters(), metrics.FrameDropEncode, 1)
	if err := nodes[0].Send(0, 1, 7, core.SpanContext{}); err != nil {
		t.Fatalf("Send(7): %v", err)
	}
	if m := recvOne(t, nodes[1], 1); m.Payload != 7 {
		t.Fatalf("received %#v, want 7: the codec-less payload must never be delivered", m.Payload)
	}
	// The second frame is the only one queued: its ack empties the queue.
	awaitTotal(t, reg.Counters(), metrics.FrameAcked, 1)
	if got := reg.Counters().Total(metrics.FrameDropEncode); got != 1 {
		t.Errorf("FrameDropEncode = %d, want exactly 1 (the drop must not be retried)", got)
	}
	if m, ok := nodes[1].TryRecv(1); ok {
		t.Errorf("unexpected extra message %#v", m.Payload)
	}
}

// TestCodecLessBroadcastReachesHostedOnly broadcasts a codec-less value
// from a node hosting two of three processes: the hosted copies are
// delivered (they never cross the wire), the one remote copy is dropped
// at encode time and counted, and the link stays usable for the next
// broadcast.
func TestCodecLessBroadcastReachesHostedOnly(t *testing.T) {
	reg := metrics.NewRegistry(3)
	nodes := newClusterWith(t, 3, [][]core.ProcID{{0, 1}, {2}}, func(i int, cfg *tcp.Config) {
		if i == 0 {
			cfg.Registry = reg
		}
	})
	type codecLess struct{ N int }
	if err := nodes[0].Broadcast(0, codecLess{N: 1}, core.SpanContext{}); err != nil {
		t.Fatalf("Broadcast(codec-less): %v", err)
	}
	for _, p := range []core.ProcID{0, 1} {
		if m := recvOne(t, nodes[0], p); m.Payload != (codecLess{N: 1}) {
			t.Fatalf("hosted p%d received %#v, want the codec-less value", p, m.Payload)
		}
	}
	awaitTotal(t, reg.Counters(), metrics.FrameDropEncode, 1)
	if got := reg.Counters().Total(metrics.MsgSent); got != 3 {
		t.Errorf("MsgSent = %d, want 3 (every copy is accepted)", got)
	}
	if err := nodes[0].Broadcast(0, 7, core.SpanContext{}); err != nil {
		t.Fatalf("Broadcast(7): %v", err)
	}
	for _, p := range []core.ProcID{0, 1} {
		if m := recvOne(t, nodes[0], p); m.Payload != 7 {
			t.Fatalf("hosted p%d received %#v, want 7", p, m.Payload)
		}
	}
	if m := recvOne(t, nodes[1], 2); m.Payload != 7 {
		t.Fatalf("p2 received %#v, want 7: the codec-less copy must never be delivered", m.Payload)
	}
	if got := reg.Counters().Total(metrics.FrameDropEncode); got != 1 {
		t.Errorf("FrameDropEncode = %d, want exactly 1", got)
	}
}

// TestCodecLessCallFails: a call whose request or response has no payload
// codec can never be answered over the wire, so it must fail rather than
// wait forever. The request is dropped at encode time and its caller gets
// the encode error; the response is replaced by one carrying that error.
// The link stays usable for the next call.
func TestCodecLessCallFails(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	type codecLess struct{ N int }
	nodes[1].SetHandler(func(_ core.ProcID, req core.Value) (core.Value, error) {
		if req == "codec-less" {
			return codecLess{N: 1}, nil
		}
		return req, nil
	})
	call := func(req core.Value) (core.Value, error) {
		type result struct {
			v   core.Value
			err error
		}
		done := make(chan result, 1)
		go func() {
			v, _, err := nodes[0].CallSpan(0, 1, req, core.SpanContext{})
			done <- result{v, err}
		}()
		select {
		case r := <-done:
			return r.v, r.err
		case <-time.After(10 * time.Second):
			t.Fatalf("Call(%#v) still waiting after 10s", req)
			return nil, nil
		}
	}
	if _, err := call(codecLess{N: 1}); err == nil || !strings.Contains(err.Error(), "not encodable") {
		t.Errorf("call with a codec-less request = %v, want the encode error", err)
	}
	if _, err := call("codec-less"); err == nil || !strings.Contains(err.Error(), "not encodable") {
		t.Errorf("call answered with a codec-less value = %v, want the encode error", err)
	}
	if v, err := call("ok"); err != nil || v != "ok" {
		t.Errorf("next call = %v, %v; want the echo", v, err)
	}
}
