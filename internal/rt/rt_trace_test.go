package rt

import (
	"bytes"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/trace"
	"github.com/mnm-model/mnm/internal/tracemerge"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// TestTracedRemoteCASAcrossNodes is the tracing acceptance test: a
// 2-node × 8-group TCP cluster with every node recording spans (sample
// 1), every TCP connection killed mid-run, and every group's follower
// driving a remote CAS against a register owned on the other node. The
// per-node flight dumps, merged exactly as cmd/mnmtrace merges /trace
// scrapes, must contain the cross-node story: a CAS root span on the
// caller's node with the serve span on the owner's node parented to it
// by the wire-propagated trace context, causally after it in Lamport
// order — including for round trips that rode the retransmit path
// across the kill.
func TestTracedRemoteCASAcrossNodes(t *testing.T) {
	const nGroups = 8

	var trs [2]*tcp.Transport
	for i := range trs {
		tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("node %d transport: %v", i, err)
		}
		trs[i] = tr
	}
	addrs := []string{trs[0].Addr(), trs[1].Addr()}
	var flights [2]*trace.Flight
	var nodes [2]*Node
	for i := range nodes {
		flights[i] = trace.NewFlight(addrs[i], 1<<15, 1)
		nd, err := NewNode(NodeConfig{
			Transport: trs[i],
			Directory: directory.Uniform{Addrs: addrs},
			Flight:    flights[i],
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
		defer nd.Close()
	}

	// Proc 0 (node 0) owns X and writes its initial value; proc 1
	// (node 1) CASes it remotely until the swap lands.
	reg := core.Reg(0, "X")
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if id == 0 {
				if err := env.Write(reg, 0); err != nil {
					return err
				}
				for { // serve until stopped
					env.Yield()
				}
			}
			for {
				swapped, _, err := env.CompareAndSwap(reg, 0, 1)
				if err != nil {
					return err
				}
				if swapped {
					env.Expose("cas", true)
					return nil
				}
				env.Yield()
			}
		}
	})

	groups := make([][2]*Group, nGroups)
	for i := range groups {
		gid := transport.GroupID(i + 1)
		for ni := 0; ni < 2; ni++ {
			g, err := nodes[ni].OpenGroup(gid, GroupConfig{
				RunConfig: RunConfig{GSM: graph.Complete(2), Seed: int64(gid)},
			}, alg)
			if err != nil {
				t.Fatalf("node %d group %d: %v", ni, gid, err)
			}
			groups[i][ni] = g
		}
	}
	for _, pair := range groups {
		pair[0].Start()
		pair[1].Start()
	}

	// Tear down every connection while the CAS traffic is in flight; the
	// RPCs must retransmit and complete.
	time.Sleep(5 * time.Millisecond)
	trs[0].KillConnections()
	trs[1].KillConnections()

	deadline := time.Now().Add(60 * time.Second)
	for i, pair := range groups {
		for pair[1].Exposed(1, "cas") != true {
			if !time.Now().Before(deadline) {
				t.Fatalf("group %d: remote CAS never completed after connection kill", i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Merge the two per-node dumps the way mnmtrace merges /trace scrapes.
	var buf bytes.Buffer
	if err := flights[0].WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := flights[1].WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := tracemerge.Read(&buf)
	if err != nil {
		t.Fatalf("merging dumps: %v", err)
	}
	if len(c.Metas) != 2 {
		t.Fatalf("merged %d node dumps, want 2", len(c.Metas))
	}

	// Find the cross-node CAS trees: root CAS on node 1, serve span on
	// node 0 tied to it by the wire-propagated context.
	crossNode := 0
	for _, tr := range c.Traces {
		root := tr.Spans[0]
		if root.Kind != trace.CAS || root.Parent != 0 {
			continue
		}
		for _, sp := range tr.Spans[1:] {
			if sp.Kind != trace.Serve {
				continue
			}
			if sp.Parent != root.SpanID {
				t.Errorf("trace %016x: serve span parented to %016x, want the CAS root %016x",
					tr.ID, sp.Parent, root.SpanID)
			}
			if sp.Node == root.Node {
				t.Errorf("trace %016x: serve span on %s, same node as the CAS caller", tr.ID, sp.Node)
			}
			if sp.Lamport <= root.Lamport {
				t.Errorf("trace %016x: serve at Lamport %d not after the CAS root at %d",
					tr.ID, sp.Lamport, root.Lamport)
			}
			if !tr.Complete() {
				t.Errorf("trace %016x: incomplete span tree", tr.ID)
			}
			if n := tr.Nodes(); len(n) != 2 {
				t.Errorf("trace %016x: touches nodes %v, want both", tr.ID, n)
			}
			crossNode++
		}
	}
	// Every group issued at least one remote CAS, so at minimum the 8
	// successful swaps must reconstruct across the two dumps.
	if crossNode < nGroups {
		t.Fatalf("reconstructed %d cross-node CAS trees from the merged dumps, want >= %d", crossNode, nGroups)
	}
	t.Logf("merged timeline: %d traces, %d cross-node CAS trees", len(c.Traces), crossNode)
}

// TestUnsampledOpsAllocateAsUntraced holds rt to the trace contract
// "unsampled operations cost one atomic add; only sampled spans
// allocate": with tracing on but the op not sampled, a local Read, Write
// and Send allocate exactly as much as with tracing off — no span name is
// formatted for a span that is never recorded.
func TestUnsampledOpsAllocateAsUntraced(t *testing.T) {
	envOf := func(f *trace.Flight) *rtEnv {
		nd, err := NewNode(NodeConfig{Flight: f})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		g, err := nd.OpenGroup(0, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}, noop)
		if err != nil {
			t.Fatal(err)
		}
		return &rtEnv{h: g, ps: g.procs[0], all: []core.ProcID{0, 1}}
	}
	ref := core.Reg(0, "x")
	ops := []struct {
		name string
		do   func(e *rtEnv)
	}{
		{"Read", func(e *rtEnv) { e.Read(ref) }},
		{"Write", func(e *rtEnv) { e.Write(ref, 7) }},
		{"Send", func(e *rtEnv) { e.Send(0, 7); e.TryRecv() }},
	}
	off := envOf(nil)
	on := envOf(trace.NewFlight("n", 64, 1<<30))
	on.Read(ref) // the one sampled root; every later op is unsampled
	for _, op := range ops {
		want := testing.AllocsPerRun(100, func() { op.do(off) })
		got := testing.AllocsPerRun(100, func() { op.do(on) })
		if got != want {
			t.Errorf("unsampled %s allocates %v per op, %v with tracing off", op.name, got, want)
		}
	}
}
