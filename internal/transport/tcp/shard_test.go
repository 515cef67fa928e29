package tcp_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// openGroupOn opens group id on every node with the given address table
// (index = proc), hosting on node i exactly the procs the table maps to
// that node's address, and dials each view.
func openGroupOn(t testing.TB, nodes []member, id transport.GroupID, addrs []string) []transport.Transport {
	t.Helper()
	views := make([]transport.Transport, len(nodes))
	for i, nd := range nodes {
		var hosted []core.ProcID
		for p, a := range addrs {
			if a == nd.Addr() {
				hosted = append(hosted, core.ProcID(p))
			}
		}
		views[i] = openView(t, nd.Transport, id, transport.GroupConfig{N: len(addrs), Hosted: hosted, Addrs: addrs})
	}
	return views
}

// TestTwoGroupsOneConnectionNoLeakage is the S4 isolation test: two
// groups multiplexed over the same node pair — one shared connection per
// direction — where messages and RPCs sent in one group must never
// surface in the other, even though both span the same proc ids.
func TestTwoGroupsOneConnectionNoLeakage(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}

	g1 := openGroupOn(t, nodes, 1, addrs)
	g2 := openGroupOn(t, nodes, 2, addrs)

	// Distinct RPC handlers per shard: each echoes its group tag.
	g1[1].(transport.RPC).SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		return "g1:" + req.(string), nil
	})
	g2[1].(transport.RPC).SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		return "g2:" + req.(string), nil
	})
	// Group 0 gets its own handler too: three namespaces, one wire.
	nodes[1].SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		return "g0:" + req.(string), nil
	})

	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := g1[0].Send(0, 1, "one", core.SpanContext{}); err != nil {
			t.Fatalf("g1 send: %v", err)
		}
		if err := g2[0].Send(0, 1, "two", core.SpanContext{}); err != nil {
			t.Fatalf("g2 send: %v", err)
		}
		if err := nodes[0].Send(0, 1, "zero", core.SpanContext{}); err != nil {
			t.Fatalf("g0 send: %v", err)
		}
	}
	for i := 0; i < rounds; i++ {
		if m := recvOne(t, g1[1], 1); m.Payload != "one" {
			t.Fatalf("group 1 received %v", m.Payload)
		}
		if m := recvOne(t, g2[1], 1); m.Payload != "two" {
			t.Fatalf("group 2 received %v", m.Payload)
		}
		if m := recvOne(t, nodes[1], 1); m.Payload != "zero" {
			t.Fatalf("group 0 received %v", m.Payload)
		}
	}
	// Mailboxes must now all be empty — nothing crossed shards.
	for name, v := range map[string]transport.Transport{"g0": nodes[1].Group, "g1": g1[1], "g2": g2[1]} {
		if m, ok := v.TryRecv(1); ok {
			t.Fatalf("%s: unexpected extra message %v", name, m.Payload)
		}
	}

	// RPCs route to the shard's own handler.
	for name, pair := range map[string]transport.SpanRPC{
		"g1": g1[0].(transport.SpanRPC), "g2": g2[0].(transport.SpanRPC), "g0": nodes[0].Group,
	} {
		resp, _, err := pair.CallSpan(0, 1, "ping", core.SpanContext{})
		if err != nil {
			t.Fatalf("%s call: %v", name, err)
		}
		if want := name + ":ping"; resp != want {
			t.Fatalf("%s call answered by wrong shard: got %v, want %v", name, resp, want)
		}
	}

	// One connection manager per direction, shared by all three groups.
	if np := nodes[0].NumPeers(); np != 1 {
		t.Fatalf("node 0 runs %d peers, want 1 (groups must share the connection)", np)
	}
	if np := nodes[1].NumPeers(); np != 1 {
		t.Fatalf("node 1 runs %d peers, want 1", np)
	}
}

// TestUnopenedGroupFramesDroppedButAcked opens a group only on the
// sender: the receiver must drop the frames (no crash, no delivery into
// any other shard) while still acking them, so the sender's backlog
// drains instead of retransmitting forever.
func TestUnopenedGroupFramesDroppedButAcked(t *testing.T) {
	var dropLogged atomic.Bool
	reg := metrics.NewRegistry(2)
	nodes := newClusterWith(t, 2, [][]core.ProcID{{0}, {1}}, func(i int, cfg *tcp.Config) {
		if i == 0 {
			cfg.Registry = reg
		}
		if i == 1 {
			cfg.Logf = func(format string, args ...any) {
				if strings.Contains(format, "unopened group") {
					dropLogged.Store(true)
				}
			}
		}
	})
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}

	v, err := nodes[0].OpenGroup(7, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Dial(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := v.Send(0, 1, i, core.SpanContext{}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	// The receiver acks what it drops: the sender's FrameAcked count
	// reaches the send count and stays there (no retransmission churn).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if reg.Counters().Snapshot(0).Total(metrics.FrameAcked) >= 10 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("frames to an unopened group were never acked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !dropLogged.Load() {
		t.Error("receiver did not log the unopened-group drop")
	}
	if m, ok := nodes[1].TryRecv(1); ok {
		t.Fatalf("frame for unopened group leaked into group 0: %v", m.Payload)
	}
}

// TestOpenGroupValidation pins the API contract errors. Group 0 is an
// id like any other: open (by newCluster), so opening it again is a
// duplicate, and free again once its view is closed.
func TestOpenGroupValidation(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}

	if _, err := nodes[0].OpenGroup(0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs}); err == nil {
		t.Error("OpenGroup(0) while group 0 is open must be rejected as a duplicate")
	}
	if _, err := nodes[0].OpenGroup(3, transport.GroupConfig{N: 0}); err == nil {
		t.Error("OpenGroup with N=0 must be rejected")
	}
	if _, err := nodes[0].OpenGroup(3, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}}); err == nil {
		t.Error("a partially hosted group without an address table must be rejected")
	}
	if _, err := nodes[0].OpenGroup(3, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs}); err == nil {
		t.Error("a hosted process mapped to another node's address must be rejected")
	}
	if _, err := nodes[0].OpenGroup(4, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs}); err != nil {
		t.Fatalf("valid OpenGroup failed: %v", err)
	}
	if _, err := nodes[0].OpenGroup(4, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs}); err == nil {
		t.Error("duplicate OpenGroup must be rejected")
	}
	if err := nodes[0].Group.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].OpenGroup(0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs}); err != nil {
		t.Fatalf("reopening group 0 after its view closed: %v", err)
	}
}

// TestGroupCloseDetachesOnlyThatShard closes groups one at a time — a
// shard, then group 0 — and checks that the groups still open keep
// flowing, that a closed group's sends fail, and that its id is free
// for reuse.
func TestGroupCloseDetachesOnlyThatShard(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}

	g1 := openGroupOn(t, nodes, 1, addrs)
	g2 := openGroupOn(t, nodes, 2, addrs)
	flows := func(name string, views []transport.Transport, payload string) {
		t.Helper()
		if err := views[0].Send(0, 1, payload, core.SpanContext{}); err != nil {
			t.Fatalf("%s send: %v", name, err)
		}
		if m := recvOne(t, views[1], 1); m.Payload != payload {
			t.Fatalf("%s received %v, want %v", name, m.Payload, payload)
		}
	}
	g0 := []transport.Transport{nodes[0].Group, nodes[1].Group}

	if err := g1[1].Close(); err != nil {
		t.Fatalf("close group 1 view: %v", err)
	}
	if err := g1[1].Send(1, 0, "x", core.SpanContext{}); err == nil {
		t.Error("send on a closed group view must fail")
	}
	flows("g2 after g1 close", g2, "still")
	flows("g0 after g1 close", g0, "base")

	if err := nodes[1].Group.Close(); err != nil {
		t.Fatalf("close group 0 view: %v", err)
	}
	if err := nodes[1].Group.Send(1, 0, "x", core.SpanContext{}); err == nil {
		t.Error("send on a closed group 0 view must fail")
	}
	flows("g2 after g0 close", g2, "still here")

	// Both ids are free for reuse after close, and a reopened group 0
	// carries traffic like the first one did.
	if _, err := nodes[1].OpenGroup(1, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs}); err != nil {
		t.Fatalf("reopening a closed group id: %v", err)
	}
	fresh := openView(t, nodes[1].Transport, 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs})
	flows("reopened g0", []transport.Transport{nodes[0].Group, fresh}, "again")
}

// TestFramesWaitForTheFirstGroup sends to a node that has not opened any
// group yet. The node accepts connections only from its first OpenGroup
// on, so the frame waits (in the kernel's accept backlog, unacked) instead
// of being dispatched to no group, dropped and acked — and is delivered
// once the receiver opens group 0.
func TestFramesWaitForTheFirstGroup(t *testing.T) {
	var trs [2]*tcp.Transport
	reg := metrics.NewRegistry(2)
	for i := range trs {
		cfg := tcp.Config{ListenAddr: "127.0.0.1:0"}
		if i == 0 {
			cfg.Registry = reg
		}
		tr, err := tcp.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i] = tr
	}
	addrs := []string{trs[0].Addr(), trs[1].Addr()}
	a := openView(t, trs[0], 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs})
	if err := a.Send(0, 1, "early", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	awaitLinkUp(t, a, 0, 1)
	awaitTotal(t, reg.Counters(), metrics.FrameSent, 1)
	time.Sleep(100 * time.Millisecond) // ample time for an accepting node to dispatch and ack
	if n := reg.Counters().Total(metrics.FrameAcked); n != 0 {
		t.Fatalf("a node with no open group acked %d frame(s): it dispatched them to no group", n)
	}

	b := openView(t, trs[1], 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs})
	if m := recvOne(t, b, 1); m.From != 0 || m.Payload != "early" {
		t.Fatalf("received %v from %v, want the frame sent before the group opened", m.Payload, m.From)
	}
	awaitTotal(t, reg.Counters(), metrics.FrameAcked, 1)
}
