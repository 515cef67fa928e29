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
func openGroupOn(t testing.TB, nodes []*tcp.Transport, id transport.GroupID, addrs []string) []transport.Transport {
	t.Helper()
	views := make([]transport.Transport, len(nodes))
	for i, nd := range nodes {
		var hosted []core.ProcID
		for p, a := range addrs {
			if a == nd.Addr() {
				hosted = append(hosted, core.ProcID(p))
			}
		}
		v, err := nd.OpenGroup(id, transport.GroupConfig{N: len(addrs), Hosted: hosted, Addrs: addrs})
		if err != nil {
			t.Fatalf("node %d OpenGroup(%d): %v", i, id, err)
		}
		if err := v.Dial(); err != nil {
			t.Fatalf("node %d group %d Dial: %v", i, id, err)
		}
		views[i] = v
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
	// Base group 0 gets its own handler too: three namespaces, one wire.
	nodes[1].SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		return "g0:" + req.(string), nil
	})

	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := g1[0].Send(0, 1, "one"); err != nil {
			t.Fatalf("g1 send: %v", err)
		}
		if err := g2[0].Send(0, 1, "two"); err != nil {
			t.Fatalf("g2 send: %v", err)
		}
		if err := nodes[0].Send(0, 1, "zero"); err != nil {
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
	for name, v := range map[string]transport.Transport{"g0": nodes[1], "g1": g1[1], "g2": g2[1]} {
		if m, ok := v.TryRecv(1); ok {
			t.Fatalf("%s: unexpected extra message %v", name, m.Payload)
		}
	}

	// RPCs route to the shard's own handler.
	for name, pair := range map[string]transport.RPC{
		"g1": g1[0].(transport.RPC), "g2": g2[0].(transport.RPC), "g0": nodes[0],
	} {
		resp, err := pair.Call(0, 1, "ping")
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
	nodes := newClusterWith(t, 2, [][]core.ProcID{{0}, {1}}, func(i int, cfg *tcp.Config) {
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
	reg := metrics.NewRegistry(2)
	nodes[0].Instrument(reg)
	for i := 0; i < 10; i++ {
		if err := v.Send(0, 1, i); err != nil {
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

// TestOpenGroupValidation pins the API contract errors.
func TestOpenGroupValidation(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}

	if _, err := nodes[0].OpenGroup(0, transport.GroupConfig{N: 2, Addrs: addrs}); err == nil {
		t.Error("OpenGroup(0) must be rejected: group 0 is the base transport")
	}
	if _, err := nodes[0].OpenGroup(3, transport.GroupConfig{N: 0}); err == nil {
		t.Error("OpenGroup with N=0 must be rejected")
	}
	if _, err := nodes[0].OpenGroup(3, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}}); err == nil {
		t.Error("a partially hosted group without an address table must be rejected")
	}
	if _, err := nodes[0].OpenGroup(4, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs}); err != nil {
		t.Fatalf("valid OpenGroup failed: %v", err)
	}
	if _, err := nodes[0].OpenGroup(4, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs}); err == nil {
		t.Error("duplicate OpenGroup must be rejected")
	}
}

// TestGroupCloseDetachesOnlyThatShard closes one of two groups and
// checks the other (and the base group) keep flowing, then that the
// closed group's sends fail and its inbound frames are dropped.
func TestGroupCloseDetachesOnlyThatShard(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}

	g1 := openGroupOn(t, nodes, 1, addrs)
	g2 := openGroupOn(t, nodes, 2, addrs)

	if err := g1[1].Close(); err != nil {
		t.Fatalf("close group 1 view: %v", err)
	}
	if err := g1[1].Send(1, 0, "x"); err == nil {
		t.Error("send on a closed group view must fail")
	}
	// Group 2 and group 0 are untouched.
	if err := g2[0].Send(0, 1, "still"); err != nil {
		t.Fatalf("g2 send after g1 close: %v", err)
	}
	if m := recvOne(t, g2[1], 1); m.Payload != "still" {
		t.Fatalf("g2 received %v", m.Payload)
	}
	if err := nodes[0].Send(0, 1, "base"); err != nil {
		t.Fatalf("g0 send after g1 close: %v", err)
	}
	if m := recvOne(t, nodes[1], 1); m.Payload != "base" {
		t.Fatalf("g0 received %v", m.Payload)
	}
	// The id is free for reuse after close.
	if _, err := nodes[1].OpenGroup(1, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs}); err != nil {
		t.Fatalf("reopening a closed group id: %v", err)
	}
}
