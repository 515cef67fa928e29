package tcp_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/mutex"
	"github.com/mnm-model/mnm/internal/paxos"
	"github.com/mnm-model/mnm/internal/rsm"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// member is one node of a test cluster: the node itself plus its dialed
// view of group 0. Close and Instrument exist on both, so a test names the
// one it means (m.Transport.Close drains the node, m.Group.Close detaches
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
// that need TLS, a registry, or log capture.
func newClusterWith(t testing.TB, n int, hosted [][]core.ProcID, mutate func(i int, cfg *tcp.Config)) []member {
	t.Helper()
	nodes := make([]member, len(hosted))
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
	}
	addrs := make([]string, n)
	for i, hs := range hosted {
		for _, p := range hs {
			addrs[p] = nodes[i].Addr()
		}
	}
	for i, hs := range hosted {
		nodes[i].Group = openView(t, nodes[i].Transport, 0, transport.GroupConfig{N: n, Hosted: hs, Addrs: addrs})
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
		if err := nodes[0].Send(0, 1, want); err != nil {
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
		if err := nodes[0].Send(0, 1, i); err != nil {
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
	if err := g0.Send(0, 1, "early"); err != nil {
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

	v, err := nodes[0].Call(0, 1, "ok")
	if err != nil || v != "served p0" {
		t.Fatalf("Call = %v, %v; want served p0", v, err)
	}
	_, err = nodes[0].Call(0, 1, "denied")
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("Call error = %v, want ErrAccessDenied across the wire", err)
	}
}

// TestCloseDrainsQueuedFrames queues messages and immediately closes the
// sender: Close must wait for the acks, so the receiver still gets
// everything.
func TestCloseDrainsQueuedFrames(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	const total = 20
	for i := 0; i < total; i++ {
		if err := nodes[0].Send(0, 1, i); err != nil {
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
	if err := nodes[0].Send(0, 1, "local"); err != nil {
		t.Fatal(err)
	}
	if m, ok := nodes[0].TryRecv(1); !ok || m.Payload != "local" {
		t.Fatalf("local delivery failed: %+v, %v", m, ok)
	}
	if st := nodes[0].LinkState(0, 1); st != transport.LinkUp {
		t.Fatalf("intra-node link state = %v, want %v", st, transport.LinkUp)
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

// TestInstrumentationMetersFramesAndRPC attaches a metrics.Registry to a
// live two-node cluster and checks the full transport observability schema:
// adopted message counters, frame sent/acked accounting, reconnect events
// after a connection kill, the frame_rtt histogram, and the RPC counters
// with the rpc_call histogram — including the failure path.
func TestInstrumentationMetersFramesAndRPC(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	regs := []*metrics.Registry{metrics.NewRegistry(2), metrics.NewRegistry(2)}
	for i, m := range nodes {
		m.Transport.Instrument(regs[i])
		m.Group.Instrument(regs[i])
	}

	// First half: establish the link and confirm delivery, so the kill
	// below hits a live connection (not a dial still in flight).
	const total = 40
	for i := 0; i < total/2; i++ {
		if err := nodes[0].Send(0, 1, i); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < total/2; i++ {
		recvOne(t, nodes[1], 1)
	}
	nodes[0].KillConnections()
	nodes[1].KillConnections()
	for i := total / 2; i < total; i++ {
		if err := nodes[0].Send(0, 1, i); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := total / 2; i < total; i++ {
		recvOne(t, nodes[1], 1)
	}

	c0, c1 := regs[0].Counters(), regs[1].Counters()
	if got := c0.Of(0, metrics.MsgSent); got != total {
		t.Errorf("adopted counters: MsgSent = %d, want %d", got, total)
	}
	if got := c1.Of(1, metrics.MsgDelivered); got != total {
		t.Errorf("adopted counters: MsgDelivered = %d, want %d", got, total)
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
	if v, err := nodes[0].Call(0, 1, "ping"); err != nil || v != "ping" {
		t.Fatalf("Call = %v, %v", v, err)
	}
	if _, err := nodes[0].Call(0, 1, "boom"); !errors.Is(err, core.ErrAccessDenied) {
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
// delivered — and its tombstone in the retransmission queue must not
// wedge the link, so the next Send on it arrives.
func TestCodecLessSendDroppedNotWedged(t *testing.T) {
	reg := metrics.NewRegistry(2)
	nodes := newClusterWith(t, 2, [][]core.ProcID{{0}, {1}}, func(i int, cfg *tcp.Config) {
		if i == 0 {
			cfg.Registry = reg
		}
	})
	type codecLess struct{ N int }
	if err := nodes[0].Send(0, 1, codecLess{N: 1}); err != nil {
		t.Fatalf("Send(codec-less): %v", err)
	}
	awaitTotal(t, reg.Counters(), metrics.FrameDropEncode, 1)
	if err := nodes[0].Send(0, 1, 7); err != nil {
		t.Fatalf("Send(7): %v", err)
	}
	if m := recvOne(t, nodes[1], 1); m.Payload != 7 {
		t.Fatalf("received %#v, want 7: the codec-less payload must never be delivered", m.Payload)
	}
	// The ack of the second frame pops the tombstone with it.
	awaitTotal(t, reg.Counters(), metrics.FrameAcked, 1)
	if got := reg.Counters().Total(metrics.FrameDropEncode); got != 1 {
		t.Errorf("FrameDropEncode = %d, want exactly 1 (the drop must not be retried)", got)
	}
	if m, ok := nodes[1].TryRecv(1); ok {
		t.Errorf("unexpected extra message %#v", m.Payload)
	}
}
