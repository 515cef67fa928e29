package leader

import (
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/sim"
)

func TestMsgOmegaStabilizesWithTimelyLinks(t *testing.T) {
	// Under immediate delivery and fair scheduling (the baseline's
	// required synchrony), the classic Ω stabilizes on the smallest
	// correct id.
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Edgeless(5), Seed: 1},
		MaxSteps:  1_000_000,
		StopWhen:  StableLeaderCondition(stableWindow),
	}, NewMsgOmega(MsgOmegaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("no stabilization: %+v", res)
	}
	if l, _ := CommonLeader(r); l != 0 {
		t.Errorf("leader = %v, want p0 (smallest trusted id)", l)
	}
}

func TestMsgOmegaFailover(t *testing.T) {
	stable := StableLeaderCondition(stableWindow)
	const crashAt = 60_000
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Edgeless(4), Seed: 3},
		MaxSteps:  2_000_000,
		Crashes:   []sim.Crash{{Proc: 0, AtStep: crashAt}},
		StopWhen:  func(r *sim.Runner) bool { return r.GlobalStep() > crashAt && stable(r) },
	}, NewMsgOmega(MsgOmegaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("no failover: %+v", res)
	}
	if l, _ := CommonLeader(r); l != 1 {
		t.Errorf("post-crash leader = %v, want p1", l)
	}
}

func TestMsgOmegaNeverGoesSilent(t *testing.T) {
	// The baseline's steady state keeps sending heartbeats — the cost the
	// m&m algorithms remove (Theorem 5.1's contrast).
	counters := metrics.NewCounters(3)
	var before, after int64
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Edgeless(3), Seed: 2},
		Counters:  counters,
		MaxSteps:  400_000,
		StopWhen: func(r *sim.Runner) bool {
			if r.GlobalStep() == 200_000 {
				before = counters.Total(metrics.MsgSent)
			}
			if r.GlobalStep() >= 300_000 {
				after = counters.Total(metrics.MsgSent)
				return true
			}
			return false
		},
	}, NewMsgOmega(MsgOmegaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	sent := after - before
	if sent < 1000 {
		t.Errorf("baseline sent only %d messages in a 100k-step steady window — should be streaming heartbeats", sent)
	}
}

// delayFrom holds all messages for `hold` ticks — a legal m&m adversary
// (no link timeliness is assumed), lethal to the heartbeat baseline.
type delayAll struct{ hold uint64 }

func (d delayAll) Deliverable(_, _ core.ProcID, sentAt, now uint64) bool {
	return now >= sentAt+d.hold
}

func TestMsgOmegaBreaksUnderLinkDelay(t *testing.T) {
	// Recurring message-hold bursts: every message is delivered (at the
	// next open window — legal for reliable links, and the m&m model
	// assumes no link timeliness anyway), but the classic fixed-timeout
	// heartbeat monitor suspects its leader in every burst, so a stable
	// common leader never lasts a full observation window.
	policy := policyDelay(func(sentAt, now uint64) bool {
		return now%5_000 >= 4_200 // 4200 of every 5000 ticks silent
	})
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Edgeless(4), Seed: 4},
		Delivery:  policy,
		MaxSteps:  250_000,
		StopWhen:  StableLeaderCondition(stableWindow),
	}, NewMsgOmega(MsgOmegaConfig{InitialTimeout: 300, DisableAdaptation: true}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped {
		t.Fatal("fixed-timeout heartbeat Ω stabilized despite recurring holds longer than its timeout")
	}
	// The m&m algorithm under the *same* delivery adversary stabilizes:
	// its monitoring never touches the network.
	r2, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Complete(4), Seed: 4},
		Delivery:  policy,
		MaxSteps:  1_000_000,
		StopWhen:  StableLeaderCondition(stableWindow),
	}, New(Config{Notifier: SharedMemoryNotifier}))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stopped {
		t.Fatal("m&m leader election failed under link delays it should not even notice")
	}
}

type policyDelay func(sentAt, now uint64) bool

func (f policyDelay) Deliverable(_, _ core.ProcID, sentAt, now uint64) bool {
	return f(sentAt, now)
}

var _ msgnet.DeliveryPolicy = (policyDelay)(nil)
var _ msgnet.DeliveryPolicy = delayAll{}
