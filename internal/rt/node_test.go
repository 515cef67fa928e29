package rt

import (
	"fmt"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// newShardedNodes builds two TCP nodes wrapped in rt.Nodes whose
// directory places proc 0 of every group on node 0 and proc 1 on node 1.
func newShardedNodes(t *testing.T) [2]*Node {
	t.Helper()
	var trs [2]*tcp.Transport
	for i := range trs {
		tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("node %d transport: %v", i, err)
		}
		trs[i] = tr
	}
	addrs := []string{trs[0].Addr(), trs[1].Addr()}
	var nodes [2]*Node
	for i := range nodes {
		nd, err := NewNode(NodeConfig{
			Transport: trs[i],
			Directory: directory.Uniform{Addrs: addrs},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
		t.Cleanup(func() { nd.Close() })
	}
	return nodes
}

// writeReadAlg is a two-process probe: proc 0 writes val into its own
// register X, proc 1 remote-reads X until it sees a value and exposes
// it. The register name is identical in every group, so any cross-shard
// routing defect surfaces as the wrong value.
func writeReadAlg(val int) core.Algorithm {
	reg := core.Reg(0, "X")
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if id == 0 {
				if err := env.Write(reg, val); err != nil {
					return err
				}
				for { // serve until stopped
					env.Yield()
				}
			}
			for {
				v, err := env.Read(reg)
				if err != nil {
					return err
				}
				if v != nil {
					env.Expose("saw", v)
					return nil
				}
				env.Yield()
			}
		}
	})
}

// TestNodeLocalGroups runs two groups, 0 and 1, on one transport-less
// node: each gets a private in-process backend and a private register
// namespace.
func TestNodeLocalGroups(t *testing.T) {
	nd, err := NewNode(NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	var groups []*Group
	for gid := 0; gid <= 1; gid++ {
		g, err := nd.OpenGroup(transport.GroupID(gid), GroupConfig{
			RunConfig: RunConfig{GSM: graph.Complete(2), Seed: int64(gid)},
		}, writeReadAlg(100+gid))
		if err != nil {
			t.Fatalf("group %d: %v", gid, err)
		}
		g.Start()
		groups = append(groups, g)
	}
	if got := nd.Groups(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Groups() = %v, want [0 1]", got)
	}
	for gid, g := range groups {
		want := 100 + gid
		deadline := time.Now().Add(10 * time.Second)
		for g.Exposed(1, "saw") != want {
			if !time.Now().Before(deadline) {
				t.Fatalf("group %d: proc 1 saw %v, want %v", gid, g.Exposed(1, "saw"), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Stop deregisters: the id becomes reusable.
	groups[0].Stop()
	if nd.Group(0) != nil {
		t.Fatal("stopped group still registered")
	}
	if _, err := nd.OpenGroup(0, GroupConfig{
		RunConfig: RunConfig{GSM: graph.Complete(2)},
	}, writeReadAlg(7)); err != nil {
		t.Fatalf("reopening a stopped group id: %v", err)
	}
}

// TestNodeOpenGroupValidation pins the control-plane errors.
func TestNodeOpenGroupValidation(t *testing.T) {
	nd, err := NewNode(NodeConfig{Directory: directory.Static{
		5: {Addrs: []string{"10.0.0.1:1", "10.0.0.2:1"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	cfg := GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}
	if _, err := nd.OpenGroup(3, GroupConfig{}, writeReadAlg(1)); err == nil {
		t.Error("missing GSM must be rejected")
	}
	if _, err := nd.OpenGroup(3, cfg, writeReadAlg(1)); err == nil {
		t.Error("a group absent from the directory must be rejected")
	}
	if _, err := nd.OpenGroup(5, cfg, writeReadAlg(1)); err == nil {
		t.Error("a distributed group on a transport-less node must be rejected")
	}
}

// TestDropsOnlyOnFairLossyLinks pins the group's one drop path: a drop
// policy applies to fair-lossy links only, on both backends. p0 sends "m"
// to p1 under DropFirstK{K: 1}; over reliable links it arrives (No-loss),
// over fair-lossy links the first attempt is dropped and the resend
// arrives (Fair-loss).
func TestDropsOnlyOnFairLossyLinks(t *testing.T) {
	backends := []struct {
		name string
		// open returns the groups hosting p0 and p1 of one 2-process group.
		open func(t *testing.T, cfg GroupConfig) (from, to *Group)
	}{
		{"chan", func(t *testing.T, cfg GroupConfig) (*Group, *Group) {
			g := openLocal(t, cfg, noop)
			return g, g
		}},
		{"tcp", func(t *testing.T, cfg GroupConfig) (*Group, *Group) {
			var gs [2]*Group
			for i, nd := range newShardedNodes(t) {
				g, err := nd.OpenGroup(0, cfg, noop)
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				gs[i] = g
			}
			return gs[0], gs[1]
		}},
	}
	for _, b := range backends {
		for _, links := range []msgnet.LinkKind{msgnet.Reliable, msgnet.FairLossy} {
			t.Run(fmt.Sprintf("%s/%v", b.name, links), func(t *testing.T) {
				from, to := b.open(t, GroupConfig{RunConfig: RunConfig{
					GSM: graph.Complete(2), Links: links, Drop: &msgnet.DropFirstK{K: 1},
				}})
				var wantDropped int64
				if links == msgnet.FairLossy {
					wantDropped = 1
				}
				for attempt := int64(0); attempt <= wantDropped; attempt++ {
					if err := from.Transport().Send(0, 1, "m", core.SpanContext{}); err != nil {
						t.Fatalf("send: %v", err)
					}
				}
				if got := from.Counters().Total(metrics.MsgDropped); got != wantDropped {
					t.Fatalf("MsgDropped = %d, want %d", got, wantDropped)
				}
				deadline := time.Now().Add(10 * time.Second)
				for {
					if m, ok := to.Transport().TryRecv(1); ok {
						if m.From != 0 || m.Payload != "m" {
							t.Fatalf("p1 received %+v, want \"m\" from p0", m)
						}
						return
					}
					if !time.Now().Before(deadline) {
						t.Fatal("p1 never received \"m\"")
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}

// TestNodeGroupRegisterIsolationOverTCP is the rt half of the S4
// leakage test: two groups (0 and 1) with identical proc ids and
// register names, multiplexed over one connection per node pair, must
// resolve reads in their own shard's memory.
func TestNodeGroupRegisterIsolationOverTCP(t *testing.T) {
	nodes := newShardedNodes(t)

	type shard struct{ g0, g1 *Group }
	shards := map[transport.GroupID]shard{}
	for gid := transport.GroupID(0); gid <= 1; gid++ {
		cfg := GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2), Seed: int64(gid)}}
		alg := writeReadAlg(100 + int(gid))
		g0, err := nodes[0].OpenGroup(gid, cfg, alg)
		if err != nil {
			t.Fatalf("node 0 group %d: %v", gid, err)
		}
		g1, err := nodes[1].OpenGroup(gid, cfg, alg)
		if err != nil {
			t.Fatalf("node 1 group %d: %v", gid, err)
		}
		g0.Start()
		g1.Start()
		shards[gid] = shard{g0, g1}
	}
	for gid, s := range shards {
		want := 100 + int(gid)
		deadline := time.Now().Add(20 * time.Second)
		for s.g1.Exposed(1, "saw") != want {
			if !time.Now().Before(deadline) {
				t.Fatalf("group %d: follower saw %v, want %v (cross-shard register leak?)",
					gid, s.g1.Exposed(1, "saw"), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Both shards rode one connection pair.
	for i, nd := range nodes {
		if np := nd.Transport().(*tcp.Transport).NumPeers(); np != 1 {
			t.Errorf("node %d runs %d connection managers, want 1", i, np)
		}
	}
}

// frameFree reports whether a sampled span (one Delta per node) put
// nothing on the wire beyond the register RPCs: no message, and no wake
// an owner sent a remote reader of an empty register.
func frameFree(deltas [2]metrics.Delta) bool {
	for _, d := range deltas {
		if d.Counters.Total(metrics.MsgSent)+d.Counters.Total(metrics.RemoteWakes) != 0 {
			return false
		}
	}
	return true
}

// groupSteady checks one group's sampled span (one Delta per node, the
// group's proc i hosted on node i) for the Theorem 5.1 steady-state
// shape within the shard: zero messages and remote wakes, the leader
// refreshing its register locally, the follower's reads metered at the
// leader's node and issued as RPCs from its own.
func groupSteady(deltas [2]metrics.Delta, ldr core.ProcID) bool {
	if !frameFree(deltas) {
		return false
	}
	ld := deltas[ldr].Counters
	if ld.Of(ldr, metrics.RegWriteLocal) < 1 {
		return false
	}
	follower := core.ProcID(1 - ldr)
	return ld.Of(follower, metrics.RegReadRemote) >= 1 &&
		deltas[follower].Counters.Of(follower, metrics.RPCIssued) >= 1
}

// TestManyGroupsSteadyStateOverTCP is the multi-tenant acceptance test:
// one pair of nodes runs many concurrent leader-election groups — 1000
// of them without the race detector — over ONE shared TCP connection
// per direction, and every group independently reaches the zero-message
// steady state of Theorem 5.1, with no remote wake either, read through
// its own sub-registry's sampler deltas.
func TestManyGroupsSteadyStateOverTCP(t *testing.T) {
	nGroups := 1000
	if raceEnabled {
		nGroups = 64 // the race runtime serializes too much for 2000 procs
	}
	if testing.Short() {
		nGroups = 32
	}
	nodes := newShardedNodes(t)

	// The detector runs at the default η = 32: an idle follower parks in
	// Yield and steps about once per millisecond, so its heartbeat timer
	// spans tens of milliseconds. A leader parks between heartbeats too
	// (its Figure-3 loop ends each iteration in Yield), so a thousand
	// idle groups leave the cores to the receive loops.
	alg := leader.New(leader.Config{Notifier: leader.SharedMemoryNotifier})
	type shard struct {
		g        [2]*Group
		sampler  [2]*metrics.Sampler
		anchor   [2]metrics.Sample
		anchored bool
		leader   core.ProcID
		steady   bool
	}
	shards := make([]*shard, nGroups)
	for i := range shards {
		gid := transport.GroupID(i + 1)
		s := &shard{leader: core.NoProc}
		for ni := 0; ni < 2; ni++ {
			g, err := nodes[ni].OpenGroup(gid, GroupConfig{
				RunConfig: RunConfig{GSM: graph.Complete(2), Seed: int64(gid)},
			}, alg)
			if err != nil {
				t.Fatalf("node %d group %d: %v", ni, gid, err)
			}
			s.g[ni] = g
			s.sampler[ni] = metrics.NewSampler(g.Registry(), 0, 4) // manual sampling
			defer s.sampler[ni].Stop()
		}
		shards[i] = s
	}
	for _, s := range shards {
		s.g[0].Start()
		s.g[1].Start()
	}
	// The whole fleet shares one connection per direction.
	for i, nd := range nodes {
		if np := nd.Transport().(*tcp.Transport).NumPeers(); np != 1 {
			t.Fatalf("node %d runs %d connection managers for %d groups, want 1", i, np, nGroups)
		}
	}

	// Grow one sampling span per group (re-anchored on churn) until every
	// group has shown a steady window; see rt_obs_test.go for why spans
	// grow instead of using fixed windows.
	start := time.Now()
	deadline := start.Add(240 * time.Second)
	remaining := nGroups
	lastLog := start
	for remaining > 0 && time.Now().Before(deadline) {
		if time.Since(lastLog) > 10*time.Second {
			t.Logf("%d/%d groups steady after %v", nGroups-remaining, nGroups, time.Since(start).Round(time.Second))
			lastLog = time.Now()
		}
		for _, s := range shards {
			if s.steady {
				continue
			}
			l0, ok0 := s.g[0].Exposed(0, leader.LeaderKey).(core.ProcID)
			l1, ok1 := s.g[1].Exposed(1, leader.LeaderKey).(core.ProcID)
			if !ok0 || !ok1 || l0 == core.NoProc || l0 != l1 || int(l0) > 1 {
				s.anchored = false // no agreed leader yet: churn
				continue
			}
			if !s.anchored || l0 != s.leader {
				s.leader = l0
				s.anchor[0] = s.sampler[0].SampleNow()
				s.anchor[1] = s.sampler[1].SampleNow()
				s.anchored = true
				continue
			}
			deltas := [2]metrics.Delta{
				metrics.DeltaOf(s.anchor[0], s.sampler[0].SampleNow()),
				metrics.DeltaOf(s.anchor[1], s.sampler[1].SampleNow()),
			}
			if !frameFree(deltas) {
				s.anchored = false // a message or a wake broke the span
				continue
			}
			if groupSteady(deltas, s.leader) {
				s.steady = true
				remaining--
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if remaining > 0 {
		for i, s := range shards {
			if !s.steady {
				t.Errorf("group %d: no steady-state span (leader %v, anchored %v)", i+1, s.leader, s.anchored)
				if remaining > 5 {
					t.Fatalf("... and %d more of %d groups not steady", remaining-1, nGroups)
				}
			}
		}
		return
	}
	t.Logf("%d groups reached zero-message steady state over one shared connection pair", nGroups)

	// Spot-check the per-group observability plane: the sub-registries
	// hang off each node's root registry with group labels.
	labels := nodes[0].Registry().SubLabels()
	if len(labels) != nGroups {
		t.Errorf("node 0 root registry has %d group sub-registries, want %d", len(labels), nGroups)
	}
}
