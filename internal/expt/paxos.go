package expt

import (
	"fmt"
	"io"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/paxos"
	"github.com/mnm-model/mnm/internal/sim"
)

// paxosExperiment compares the two routes to m&m consensus the paper sets
// up: HBO (randomized; no synchrony at all) versus Ω-driven shared-memory
// Paxos (deterministic; needs the one-timely-process assumption of §5).
// Both tolerate n−1 crashes on a complete G_SM; they trade randomness for
// synchrony.
func paxosExperiment() Experiment {
	e := Experiment{
		ID:    "PAX",
		Title: "two routes to m&m consensus: randomized HBO vs Ω-driven Paxos",
		Paper: "§4 vs §5 (Ω 'is used in … Paxos, Raft, and CT')",
	}
	e.Run = func(w io.Writer, p Params) error {
		header(w, e)
		const n = 5
		budget := uint64(6_000_000)
		if p.Quick {
			budget = 2_000_000
		}
		inputs := make([]core.Value, n)
		binInputs := make([]benor.Val, n)
		for i := range inputs {
			binInputs[i] = benor.Val(i % 2)
			inputs[i] = binInputs[i]
		}

		// One pooled trial per crash count (each yields an HBO row and a
		// Paxos row); the lossy-links headline run is the extra index.
		fs := []int{0, 2, 4}
		rows := make([][][]any, len(fs))
		var (
			lossyStopped bool
			lossySteps   uint64
			lossyMsgs    int64
			lossyRegOps  int64
		)
		err := forEach(p, len(fs)+1, func(i int) error {
			if i == len(fs) {
				// Over fair-lossy links with the Figure-5 notifier, the
				// whole Paxos stack is message-free.
				counters := metrics.NewCounters(n)
				r, err := sim.New(sim.Config{
					RunConfig: sim.RunConfig{GSM: graph.Complete(n), Seed: p.Seed + 31, Links: msgnet.FairLossy, Drop: msgnet.NewRandomDrop(0.6, p.Seed+2)},
					Counters:  counters,
					Scheduler: timelySched(1, p.Seed+3),
					MaxSteps:  budget,
					StopWhen:  func(r *sim.Runner) bool { return sim.AllCorrectExposed(r, paxos.DecisionKey) },
				}, paxos.New(paxos.Config{
					Inputs: inputs,
					Leader: leader.Config{Notifier: leader.SharedMemoryNotifier},
				}))
				if err != nil {
					return err
				}
				res, err := r.Run()
				if err != nil {
					return err
				}
				lossyStopped, lossySteps = res.Stopped, res.Steps
				lossyMsgs = counters.Total(metrics.MsgSent)
				lossyRegOps = counters.Total(metrics.RegReadLocal) + counters.Total(metrics.RegReadRemote) +
					counters.Total(metrics.RegWriteLocal) + counters.Total(metrics.RegWriteRemote)
				return nil
			}

			f := fs[i]
			crashes := make([]sim.Crash, f)
			for i := range crashes {
				crashes[i] = sim.Crash{Proc: core.ProcID(i), AtStep: 0}
			}

			hboOut, err := runHBOOnce(graph.Complete(n), p.Seed+int64(f), crashes, budget, nil)
			if err != nil {
				return err
			}

			counters := metrics.NewCounters(n)
			// The timely process must survive the crash plan.
			timelyProc := core.ProcID(f % n)
			if f < n {
				timelyProc = core.ProcID(f)
			}
			r, err := sim.New(sim.Config{
				RunConfig: sim.RunConfig{GSM: graph.Complete(n), Seed: p.Seed + int64(f) + 7},
				Counters:  counters,
				Scheduler: timelySched(timelyProc, p.Seed+int64(f)+1),
				MaxSteps:  budget,
				Crashes:   append([]sim.Crash(nil), crashes...),
				StopWhen:  func(r *sim.Runner) bool { return sim.AllCorrectExposed(r, paxos.DecisionKey) },
			}, paxos.New(paxos.Config{Inputs: inputs}))
			if err != nil {
				return err
			}
			res, err := r.Run()
			if err != nil {
				return err
			}
			for pid, perr := range res.Errors {
				return fmt.Errorf("paxos f=%d process %v: %w", f, pid, perr)
			}
			regOps := counters.Total(metrics.RegReadLocal) + counters.Total(metrics.RegReadRemote) +
				counters.Total(metrics.RegWriteLocal) + counters.Total(metrics.RegWriteRemote)
			rows[i] = [][]any{
				{f, "HBO (randomized)", mark(hboOut.terminated), hboOut.steps, hboOut.msgs, hboOut.regOps, "none (coins)"},
				{f, "Ω-Paxos (deterministic)", mark(res.Stopped), res.Steps,
					counters.Total(metrics.MsgSent), regOps, "one timely process"},
			}
			return nil
		})
		if err != nil {
			return err
		}
		t := newTable(w)
		t.row("crashes f", "algorithm", "terminated", "steps", "msgs", "reg ops", "assumption used")
		for _, pair := range rows {
			for _, r := range pair {
				t.row(r...)
			}
		}
		t.flush()

		fmt.Fprintf(w, "\nΩ-Paxos over 60%%-lossy links (Figure-5 notifier): terminated=%v, "+
			"steps=%d, messages sent=%d (accusations only), register ops=%d\n",
			lossyStopped, lossySteps, lossyMsgs, lossyRegOps)

		fmt.Fprintln(w, "\nexpected: both algorithms decide at every crash count up to n−1; Paxos")
		fmt.Fprintln(w, "trades HBO's coins for the §5 synchrony assumption and works even when")
		fmt.Fprintln(w, "most messages are lost, because consensus state lives in registers.")
		return nil
	}
	return e
}
