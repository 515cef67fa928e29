package rt

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// newTCPHosts builds an n-process system as n single-process nodes over
// loopback TCP — one tcp.Transport, built from cfg on an ephemeral port,
// and one Node per process, each opening its view of group 0 — and
// returns the groups plus every node's transport (for fault injection).
func newTCPHosts(t *testing.T, g *graph.Graph, seed int64, alg core.Algorithm, cfg tcp.Config) ([]*Group, []*tcp.Transport) {
	t.Helper()
	n := g.N()
	trs := make([]*tcp.Transport, n)
	addrs := make([]string, n)
	cfg.ListenAddr = "127.0.0.1:0"
	for i := range trs {
		tr, err := tcp.New(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		trs[i] = tr
		addrs[i] = tr.Addr()
	}
	hosts := make([]*Group, n)
	for i, tr := range trs {
		nd, err := NewNode(NodeConfig{Transport: tr, Directory: directory.Uniform{Addrs: addrs}})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(func() { nd.Close() })
		h, err := nd.OpenGroup(0, GroupConfig{RunConfig: RunConfig{GSM: g, Seed: seed}}, alg)
		if err != nil {
			t.Fatalf("node %d OpenGroup: %v", i, err)
		}
		hosts[i] = h
	}
	waitLinksUp(t, hosts)
	return hosts, trs
}

// waitLinksUp blocks until every outbound link of every host is
// established. Starting the algorithms before the mesh is up is legal —
// sends queue and retransmit — but the step-counted heartbeat timers of
// the leader detector assume comparable step rates, and a process stalled
// tens of milliseconds in connect backoff mid-Tick looks exactly like a
// crashed leader to an already-connected peer.
func waitLinksUp(t *testing.T, hosts []*Group) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i, h := range hosts {
		for j := range hosts {
			if i == j {
				continue
			}
			for h.Transport().LinkState(core.ProcID(i), core.ProcID(j)) != transport.LinkUp {
				if !time.Now().Before(deadline) {
					t.Fatalf("link %d->%d never came up", i, j)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// decisionsOf waits for every host's own process to expose a consensus
// decision and returns them in id order.
func decisionsOf(t *testing.T, hosts []*Group, key string) []benor.Val {
	t.Helper()
	out := make([]benor.Val, len(hosts))
	deadline := time.Now().Add(30 * time.Second)
	for i, h := range hosts {
		p := core.ProcID(i)
		for {
			if v, ok := h.Exposed(p, key).(benor.Val); ok {
				out[i] = v
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("process %v did not decide in time", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return out
}

// TestHBOOverTCPMatchesInProcess runs HBO on the same system, seed and
// inputs twice — over the default in-process transport and over a
// loopback-TCP cluster (one OS-level socket mesh, one node per process) —
// and checks both runs decide, agree, and reach the same decision.
func TestHBOOverTCPMatchesInProcess(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := graph.Complete(3)
			input := benor.Val(seed % 2)
			inputs := []benor.Val{input, input, input}
			alg := hbo.New(hbo.Config{Inputs: inputs, HaltAfterDecide: true})

			// In-process run.
			hChan := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: g, Seed: seed}}, alg)
			hChan.Start()
			chanDecisions := decisionsOf(t, []*Group{hChan, hChan, hChan}, hbo.DecisionKey)
			hChan.Stop()

			// TCP run.
			hosts, _ := newTCPHosts(t, g, seed, alg, tcp.Config{})
			for _, h := range hosts {
				h.Start()
			}
			tcpDecisions := decisionsOf(t, hosts, hbo.DecisionKey)

			for i := range tcpDecisions {
				if tcpDecisions[i] != chanDecisions[i] {
					t.Fatalf("p%d decided %v over TCP but %v in-process", i, tcpDecisions[i], chanDecisions[i])
				}
				if tcpDecisions[i] != input {
					t.Fatalf("p%d decided %v, violating validity for unanimous input %v", i, tcpDecisions[i], input)
				}
			}
		})
	}
}

// TestHBOOverTCPSurvivesConnectionKill injects a network fault — every
// TCP connection torn down mid-run — and checks consensus still
// terminates correctly and the Integrity axiom held: no node delivered
// more messages than were sent system-wide.
func TestHBOOverTCPSurvivesConnectionKill(t *testing.T) {
	g := graph.Complete(3)
	inputs := []benor.Val{benor.V1, benor.V1, benor.V1}
	alg := hbo.New(hbo.Config{Inputs: inputs, HaltAfterDecide: true})
	hosts, trs := newTCPHosts(t, g, 3, alg, tcp.Config{})
	for _, h := range hosts {
		h.Start()
	}
	time.Sleep(10 * time.Millisecond)
	for _, tr := range trs {
		tr.KillConnections()
	}
	decisions := decisionsOf(t, hosts, hbo.DecisionKey)
	for i, d := range decisions {
		if d != benor.V1 {
			t.Fatalf("p%d decided %v after connection kill, want %v", i, d, benor.V1)
		}
	}
	var sent, delivered int64
	for _, h := range hosts {
		sent += h.Counters().Total(metrics.MsgSent)
		delivered += h.Counters().Total(metrics.MsgDelivered)
	}
	if delivered > sent {
		t.Fatalf("Integrity violated: %d deliveries of %d sends (duplicates after retransmission)", delivered, sent)
	}
}

// TestLeaderElectionOverTCP runs both leader-election variants (Figure
// 3+4 message notifier, Figure 3+5 shared-memory notifier) across a
// loopback-TCP cluster and checks what Ω promises: every node stabilizes
// on one common correct leader. Which one is not promised — a detector
// tick stalled by the scheduler lets a step-counted heartbeat timer lapse
// and legitimately accuse a correct leader during startup — so the
// identity is logged, not asserted. The detector runs at the default
// η = 32: idle processes park in Yield instead of spinning, so the
// netpoller keeps up and startup accusations settle within a few hundred
// milliseconds.
func TestLeaderElectionOverTCP(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind leader.NotifierKind
	}{
		{"fig4-message-notifier", leader.MessageNotifier},
		{"fig5-shm-notifier", leader.SharedMemoryNotifier},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := graph.Complete(3)
			alg := leader.New(leader.Config{Notifier: tc.kind})
			hosts, _ := newTCPHosts(t, g, 5, alg, tcp.Config{})
			for _, h := range hosts {
				h.Start()
			}
			got := awaitCommonLeader(t, hosts)
			for _, h := range hosts {
				h.Stop()
			}
			if got < 0 || int(got) >= g.N() {
				t.Fatalf("common stable leader %v is not a process of the system", got)
			}
			t.Logf("common stable leader: %v", got)
		})
	}
}

// awaitCommonLeader waits until every host's own process agrees on one
// non-⊥ leader and that agreement holds for a short window.
func awaitCommonLeader(t *testing.T, hosts []*Group) core.ProcID {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	stableSince := time.Time{}
	cur := core.NoProc
	for time.Now().Before(deadline) {
		l := core.NoProc
		agreed := true
		for i, h := range hosts {
			v, ok := h.Exposed(core.ProcID(i), leader.LeaderKey).(core.ProcID)
			if !ok || v == core.NoProc || (l != core.NoProc && v != l) {
				agreed = false
				break
			}
			l = v
		}
		if !agreed || l != cur {
			cur = l
			if !agreed {
				cur = core.NoProc
			}
			stableSince = time.Now()
		} else if cur != core.NoProc && time.Since(stableSince) > 200*time.Millisecond {
			return cur
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no common stable leader in time")
	return core.NoProc
}

// TestRemoteRegistersOverTCP checks the RPC register plane directly: a
// neighbor reads a register owned by a process on another node, and a
// non-neighbor is denied by the owner's domain check — with the sentinel
// error surviving the wire.
func TestRemoteRegistersOverTCP(t *testing.T) {
	// Cycle over 4: neighbors of p0 are p1 and p3; p2 is not a neighbor.
	g := graph.Cycle(4)
	reg := core.Reg(0, "X")
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			switch id {
			case 0:
				if err := env.Write(reg, 42); err != nil {
					return err
				}
				env.Expose("done", true)
			case 1:
				for {
					v, err := env.Read(reg)
					if err != nil {
						return err
					}
					if v == 42 {
						env.Expose("saw", v)
						return nil
					}
					env.Yield()
				}
			case 2:
				for {
					_, err := env.Read(reg)
					if err != nil {
						env.Expose("err", err.Error())
						return nil
					}
					env.Yield()
				}
			}
			return nil
		}
	})
	hosts, _ := newTCPHosts(t, g, 1, alg, tcp.Config{})
	for _, h := range hosts {
		h.Start()
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		saw := hosts[1].Exposed(1, "saw")
		errStr, _ := hosts[2].Exposed(2, "err").(string)
		if saw == 42 && errStr != "" {
			if !strings.Contains(errStr, core.ErrAccessDenied.Error()) {
				t.Fatalf("p2's remote read failed with %q, want access denied", errStr)
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("remote register flow incomplete: saw=%v err=%q", saw, errStr)
		}
		time.Sleep(time.Millisecond)
	}
	res := hosts[1].Wait()
	if err := res.Err(); err != nil {
		t.Fatalf("neighbor reader failed: %v", err)
	}
}

// TestCodecLessRemoteOpsFailOverTCP: a remote register op whose value has
// no payload codec can never be answered over the wire, so it fails the
// process that issued it instead of waiting until that process stops: a
// remote Write of such a value, and a remote Read of a register its owner
// set to one.
func TestCodecLessRemoteOpsFailOverTCP(t *testing.T) {
	type codecLess struct{ N int }
	x, y := core.Reg(0, "X"), core.Reg(0, "Y")
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if id == 0 {
				return env.Write(x, codecLess{N: 1})
			}
			if err := env.Write(y, codecLess{N: 2}); err != nil {
				env.Expose("write", err.Error())
			}
			for {
				if _, err := env.Read(x); err != nil {
					return err
				}
				env.Yield()
			}
		}
	})
	hosts, _ := newTCPHosts(t, graph.Complete(2), 1, alg, tcp.Config{})
	for _, h := range hosts {
		h.Start()
	}
	done := make(chan error, 1)
	go func() { done <- hosts[1].Wait().Err() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "not encodable") {
			t.Errorf("remote read of a codec-less value ended p1 with %v, want the encode error", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("remote read of a codec-less value still waiting after 15s")
	}
	if w, _ := hosts[1].Exposed(1, "write").(string); !strings.Contains(w, "not encodable") {
		t.Errorf("remote write of a codec-less value returned %q, want the encode error", w)
	}
}

// TestCASUnderConnectionKillsOverTCP: two nodes' processes take turns
// CAS-incrementing one register owned by p1 while the test kills a node's
// connections every few milliseconds. p_i CASes only when the counter's
// parity is i (nil counts as 0) and otherwise re-reads it, so on its own
// turn nobody else moves the counter and each CAS must swap, and p0, which
// moves first, is never starved by p1's local CASes. A remote op waits out
// each reconnect instead of failing, so no process reports an error; and
// since a request rides the sequenced, deduplicated frame stream, each CAS
// takes effect exactly once: none fails, the swap counts alternate, and
// the register ends at the number of swaps.
func TestCASUnderConnectionKillsOverTCP(t *testing.T) {
	const kills = 40
	reg := core.Reg(1, "CTR")
	var finished atomic.Bool
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			var cur core.Value
			swaps, failed := 0, 0
			// Both processes swap at least once: p0's first turn needs
			// nobody, and p1's needs only p0's first swap.
			for swaps == 0 || !finished.Load() {
				n, _ := cur.(int)
				if n%2 != int(id) {
					var err error
					if cur, err = env.Read(reg); err != nil {
						return err
					}
					continue
				}
				swapped, now, err := env.CompareAndSwap(reg, cur, n+1)
				if err != nil {
					return err
				}
				if swapped {
					swaps++
					cur = n + 1
				} else {
					failed++
					cur = now
				}
			}
			env.Expose("swaps", swaps)
			env.Expose("failed", failed)
			return nil
		}
	})

	hosts, trs := newTCPHosts(t, graph.Complete(2), 1, alg, tcp.Config{Timeouts: tcp.Timeouts{Drain: 100 * time.Millisecond}})
	for _, h := range hosts {
		h.Start()
	}
	for k := 0; k < kills; k++ {
		time.Sleep(3 * time.Millisecond)
		trs[k%2].KillConnections()
	}
	finished.Store(true)
	var swaps [2]int
	for i, h := range hosts {
		if err := h.Wait().Err(); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
		swaps[i], _ = h.Exposed(core.ProcID(i), "swaps").(int)
		if swaps[i] == 0 {
			t.Errorf("p%d reported no swap in %d connection kills", i, kills)
		}
		if failed, _ := h.Exposed(core.ProcID(i), "failed").(int); failed != 0 {
			t.Errorf("p%d: %d CASes on its own turn failed: a CAS took effect other than once", i, failed)
		}
	}
	if d := swaps[0] - swaps[1]; d < -1 || d > 1 {
		t.Errorf("swap counts %v differ by more than 1, though the processes take turns", swaps)
	}
	total := swaps[0] + swaps[1]
	v, err := hosts[1].Memory().Read(1, reg)
	if err != nil {
		t.Fatal(err)
	}
	if v != total {
		t.Fatalf("register ends at %v after %d reported swaps: a CAS took effect other than once", v, total)
	}
	t.Logf("%d swaps under %d connection kills", total, kills)
}

// TestNodeKeepsTransportRegistry: the registry a tcp node is built with
// is the one its frame plane meters into, also when the rt node on top
// has no registry of its own and synthesizes one. Two nodes whose
// transports share R and whose rt nodes get none carry 40 broadcasts; R
// must count every frame.
func TestNodeKeepsTransportRegistry(t *testing.T) {
	const total = 40
	reg := metrics.NewRegistry(2)
	idle := core.AlgorithmFunc(func(core.ProcID) core.Process {
		return func(core.Env) error { return nil }
	})
	hosts, _ := newTCPHosts(t, graph.Complete(2), 1, idle, tcp.Config{Registry: reg})
	for i := 0; i < total; i++ {
		if err := hosts[0].Transport().Broadcast(0, i, core.SpanContext{}); err != nil {
			t.Fatalf("Broadcast %d: %v", i, err)
		}
	}
	recv := hosts[1].Transport()
	deadline := time.Now().Add(10 * time.Second)
	for got := 0; got < total; {
		if _, ok := recv.TryRecv(1); ok {
			got++
			continue
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("p1 received %d of %d broadcasts", got, total)
		}
		time.Sleep(time.Millisecond)
	}
	if got := reg.Counters().Total(metrics.FrameSent); got != total {
		t.Errorf("transport registry frame_sent = %d after %d delivered broadcasts, want %d", got, total, total)
	}
}
