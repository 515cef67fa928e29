package rt

import (
	"fmt"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// exposedCommonLeader returns the leader every host's own process currently
// exposes, or NoProc if they do not (yet) agree on one.
func exposedCommonLeader(hosts []*Group) core.ProcID {
	l := core.NoProc
	for i, h := range hosts {
		v, ok := h.Exposed(core.ProcID(i), leader.LeaderKey).(core.ProcID)
		if !ok || v == core.NoProc || (l != core.NoProc && v != l) {
			return core.NoProc
		}
		l = v
	}
	return l
}

// steadyStateWindow checks one sampled span (one Delta per node, node i
// hosting process i) against the Theorem 5.1 steady-state shape: zero
// messages anywhere, at least one local register write by the leader, and
// at least one remote register read per follower metered at the leader's
// node. It reports what disqualified the span otherwise.
func steadyStateWindow(deltas []metrics.Delta, ldr core.ProcID) (bool, string) {
	var msgs int64
	for i := range deltas {
		msgs += deltas[i].Counters.Total(metrics.MsgSent)
	}
	if msgs != 0 {
		return false, fmt.Sprintf("%d messages sent in window", msgs)
	}
	ld := deltas[ldr].Counters
	if w := ld.Of(ldr, metrics.RegWriteLocal); w < 1 {
		return false, "leader recorded no local register writes"
	}
	for i := range deltas {
		p := core.ProcID(i)
		if p == ldr {
			continue
		}
		if r := ld.Of(p, metrics.RegReadRemote); r < 1 {
			return false, fmt.Sprintf("follower %v: no remote reads metered at leader's node", p)
		}
		if c := deltas[i].Counters.Of(p, metrics.RPCIssued); c < 1 {
			return false, fmt.Sprintf("follower %v: no RPCs issued from its own node", p)
		}
	}
	return true, ""
}

// TestLeaderSteadyStateObservableOverTCP is the empirical read of Theorem
// 5.1 through the observability layer: it runs the Fig. 5 leader election
// (shared-memory notifier) as three OS-level nodes over loopback TCP, waits
// for a stable leader, then samples every node's registry over a growing
// span until it shows the steady-state communication pattern — zero
// messages on any link, the leader refreshing its own register locally, and
// each follower's read of the leader's register arriving at the leader's
// node as a remote register operation over the RPC plane.
//
// The follower read period is not knowable in advance: heartbeat timers
// count the follower's LOCAL steps, adapt upward with every false
// accusation during pre-convergence churn, and on a starved machine (one
// CPU, the leader's spin loop monopolizing it) followers advance only tens
// of steps per second — reads can be seconds apart. So instead of fixed
// windows the test grows one continuous sampling span: every tick extends
// the span with fresh samples, any message anywhere restarts it, and the
// span succeeds the moment its cumulative deltas show the steady-state
// shape. The theorem promises such a span eventually exists; churn only
// delays it.
//
// The election timeout is lowered from the default so the follower read
// period stays test-sized; a short timer is safe here because the leader's
// heartbeat advances by thousands between two follower reads, so no false
// accusations result.
func TestLeaderSteadyStateObservableOverTCP(t *testing.T) {
	g := graph.Complete(3)
	alg := leader.New(leader.Config{Notifier: leader.SharedMemoryNotifier, InitialTimeout: 8})
	hosts, _ := newTCPHosts(t, g, 3, alg, tcp.Config{})
	for _, h := range hosts {
		h.Start()
	}
	// No separate wait for a stable leader: the span loop below already
	// treats "no common leader yet" as churn and keeps re-anchoring, so
	// convergence shares the one generous deadline instead of a second,
	// tighter one.

	samplers := make([]*metrics.Sampler, len(hosts))
	for i, h := range hosts {
		samplers[i] = metrics.NewSampler(h.Registry(), 0, 16) // manual sampling
		defer samplers[i].Stop()
	}

	spanStart := make([]metrics.Sample, len(hosts))
	spanLeader := core.NoProc
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		ldr := exposedCommonLeader(hosts)
		if ldr == core.NoProc || ldr != spanLeader {
			// No agreed leader, or leadership moved: anchor a new span.
			spanLeader = ldr
			for i, s := range samplers {
				spanStart[i] = s.SampleNow()
			}
			time.Sleep(500 * time.Millisecond)
			continue
		}
		time.Sleep(500 * time.Millisecond)
		deltas := make([]metrics.Delta, len(hosts))
		for i, s := range samplers {
			deltas[i] = metrics.DeltaOf(spanStart[i], s.SampleNow())
		}
		steady, why := steadyStateWindow(deltas, ldr)
		if !steady {
			var msgs int64
			for i := range deltas {
				msgs += deltas[i].Counters.Total(metrics.MsgSent)
			}
			if msgs != 0 {
				// A message broke the span — not steady state yet.
				// Restart the span on the next tick.
				spanLeader = core.NoProc
			}
			t.Logf("span of %v not steady yet: %s", deltas[0].Interval().Round(time.Millisecond), why)
			continue
		}
		// The remote reads must also have been timed: each follower's
		// remote-read histogram is fed by its own RPC round trips.
		for i := range hosts {
			if core.ProcID(i) == ldr {
				continue
			}
			if c := hosts[i].Registry().Histogram(metrics.HistRemoteRead).Count(); c == 0 {
				t.Errorf("follower %d: remote-read latency histogram is empty", i)
			}
		}
		t.Logf("steady state observed over %v under leader %v: 0 msgs, %d leader writes, follower reads at leader node",
			deltas[0].Interval().Round(time.Millisecond), ldr, deltas[ldr].Counters.Of(ldr, metrics.RegWriteLocal))
		return
	}
	t.Fatal("no zero-message steady-state span observed within deadline")
}
