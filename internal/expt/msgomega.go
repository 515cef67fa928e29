package expt

import (
	"fmt"
	"io"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/sim"
)

// burstHold blocks ALL message delivery during recurring hold windows:
// within every period of Period ticks, the first Hold ticks are silent.
// Every message is still delivered (at the next open window), so the
// policy is legal for reliable links — and trivially legal in the m&m
// model, which assumes nothing about link timeliness. A heartbeat monitor
// with a timeout below Hold suspects its leader in every single window,
// forever.
type burstHold struct {
	// Period is the cycle length in ticks.
	Period uint64
	// Hold is the silent prefix of each cycle.
	Hold uint64
}

func (b burstHold) Deliverable(_, _ core.ProcID, _, now uint64) bool {
	return now%b.Period >= b.Hold
}

// msgOmegaExperiment is LE3: the m&m leader elections against the
// classical message-passing Ω baseline, on the two axes the paper claims —
// steady-state communication and required synchrony.
func msgOmegaExperiment() Experiment {
	e := Experiment{
		ID:    "LE3",
		Title: "m&m leader election vs the classic message-passing Ω",
		Paper: "§5 (steady-state silence; only process timeliness required)",
	}
	e.Run = func(w io.Writer, p Params) error {
		header(w, e)
		observe := uint64(100_000)
		budget := uint64(4_000_000)
		if p.Quick {
			observe = 30_000
			budget = 1_200_000
		}

		// alg is a constructor so that pooled trials never share an
		// Algorithm value between concurrently running simulations.
		type system struct {
			name string
			gsm  *graph.Graph
			alg  func() core.Algorithm
		}
		systems := []system{
			{"classic msg-Ω (heartbeat broadcast)", graph.Edgeless(5),
				func() core.Algorithm { return leader.NewMsgOmega(leader.MsgOmegaConfig{}) }},
			{"m&m Fig 3+4 (message notifier)", graph.Complete(5),
				func() core.Algorithm { return leader.New(leader.Config{Notifier: leader.MessageNotifier}) }},
			{"m&m Fig 3+5 (register notifier)", graph.Complete(5),
				func() core.Algorithm { return leader.New(leader.Config{Notifier: leader.SharedMemoryNotifier}) }},
		}

		// Part 1: steady-state traffic under friendly conditions.
		rows := make([][]any, len(systems))
		err := forEach(p, len(systems), func(i int) error {
			s := systems[i]
			counters := metrics.NewCounters(5)
			stable := leader.StableLeaderCondition(3_000)
			var baseline *metrics.Snapshot
			var target uint64
			var delta metrics.Snapshot
			r, err := sim.New(sim.Config{
				RunConfig: sim.RunConfig{GSM: s.gsm, Seed: p.Seed + 2},
				Counters:  counters,
				MaxSteps:  budget,
				StopWhen: func(r *sim.Runner) bool {
					if baseline == nil {
						if stable(r) {
							snap := counters.Snapshot(r.GlobalStep())
							baseline = &snap
							target = r.GlobalStep() + observe
						}
						return false
					}
					if r.GlobalStep() >= target {
						delta = counters.Snapshot(r.GlobalStep()).Sub(*baseline)
						return true
					}
					return false
				},
			}, s.alg())
			if err != nil {
				return err
			}
			res, err := r.Run()
			if err != nil {
				return err
			}
			scale := float64(100_000) / float64(observe)
			regOps := delta.Total(metrics.RegReadLocal) + delta.Total(metrics.RegReadRemote) +
				delta.Total(metrics.RegWriteLocal) + delta.Total(metrics.RegWriteRemote)
			rows[i] = []any{s.name, mark(res.Stopped),
				fmt.Sprintf("%.0f", float64(delta.Total(metrics.MsgSent))*scale),
				fmt.Sprintf("%.0f", float64(regOps)*scale)}
			return nil
		})
		if err != nil {
			return err
		}
		t := newTable(w)
		t.row("system", "stabilized", "steady msgs/100k steps", "steady reg ops/100k steps")
		for _, r := range rows {
			t.row(r...)
		}
		t.flush()

		// Part 2: the synchrony axis — recurring message-hold bursts
		// (every message is delivered, but every 6500-step cycle starts
		// with 5000 silent ticks). Heartbeat monitoring with the classic
		// fixed timeout flaps in every cycle; the m&m algorithms monitor
		// through registers and never notice.
		burstSystems := []system{
			{"classic msg-Ω (fixed timeout)", graph.Edgeless(5),
				func() core.Algorithm {
					return leader.NewMsgOmega(leader.MsgOmegaConfig{InitialTimeout: 300, DisableAdaptation: true})
				}},
			systems[1],
			systems[2],
		}
		part2Budget := uint64(600_000)
		if p.Quick {
			part2Budget = 250_000
		}
		burstRows := make([][]any, len(burstSystems))
		err = forEach(p, len(burstSystems), func(i int) error {
			s := burstSystems[i]
			r, err := sim.New(sim.Config{
				RunConfig: sim.RunConfig{GSM: s.gsm, Seed: p.Seed + 5},
				Delivery:  burstHold{Period: 6_000, Hold: 5_000},
				MaxSteps:  part2Budget,
				StopWhen:  leader.StableLeaderCondition(3_000),
			}, s.alg())
			if err != nil {
				return err
			}
			res, err := r.Run()
			if err != nil {
				return err
			}
			burstRows[i] = []any{s.name, mark(res.Stopped)}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nunder recurring message-hold bursts (5000 of every 6000 ticks silent):")
		t = newTable(w)
		t.row("system", "stabilized within budget")
		for _, r := range burstRows {
			t.row(r...)
		}
		t.flush()

		fmt.Fprintln(w, "\nexpected: the classic Ω streams heartbeats forever (Θ(n²) per period)")
		fmt.Fprintln(w, "and flaps in every hold burst — it monitors through the network, so it")
		fmt.Fprintln(w, "needs link timeliness. Both m&m algorithms go message-silent after")
		fmt.Fprintln(w, "stabilization and hold their leader straight through the bursts: only")
		fmt.Fprintln(w, "process timeliness matters (§5).")
		return nil
	}
	return e
}
