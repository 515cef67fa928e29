// Lossy-consensus example: the full §5 stack in action. Ω with the
// Figure-5 shared-register notifier needs no reliable links, and
// shared-memory Paxos on top of it keeps all consensus state in registers
// — so the system decides even when the network drops 70% of all
// messages, and in the steady state it sends none at all.
package main

import (
	"fmt"
	"os"

	"github.com/mnm-model/mnm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "lossyconsensus: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 5
	inputs := []mnm.Value{"ship-v1", "ship-v2", "rollback", "ship-v1", "hold"}
	counters := mnm.NewCounters(n)

	r, err := mnm.NewSim(mnm.SimConfig{
		RunConfig: mnm.RunConfig{GSM: mnm.CompleteGraph(n), Seed: 11, Links: mnm.FairLossy, Drop: mnm.NewRandomDrop(0.7, 5)},
		Counters:  counters,
		// 70% of messages vanish
		Scheduler: mnm.TimelyScheduler(2, 4, 6),
		MaxSteps:  10_000_000,
		StopWhen:  mnm.AllDecided(mnm.PaxosDecisionKey),
	}, mnm.NewPaxos(mnm.PaxosConfig{
		Inputs: inputs,
		Leader: mnm.LeaderConfig{Notifier: mnm.SharedMemoryNotifier},
	}))
	if err != nil {
		return err
	}
	res, err := r.Run()
	if err != nil {
		return err
	}
	for p, e := range res.Errors {
		return fmt.Errorf("process %v: %w", p, e)
	}
	if !res.Stopped {
		return fmt.Errorf("no decision in %d steps", res.Steps)
	}

	fmt.Printf("decided in %d steps with 70%% message loss\n\n", res.Steps)
	for p := mnm.ProcID(0); int(p) < n; p++ {
		fmt.Printf("  %v proposed %-10q decided %q\n", p, inputs[p], r.Exposed(p, mnm.PaxosDecisionKey))
	}
	fmt.Printf("\nmessages sent: %d  dropped: %d  register ops: %d\n",
		counters.Total(mnm.MsgSent),
		counters.Total(mnm.MsgDropped),
		counters.Total(mnm.RegReadLocal)+counters.Total(mnm.RegReadRemote)+
			counters.Total(mnm.RegWriteLocal)+counters.Total(mnm.RegWriteRemote))
	fmt.Println("\nconsensus state lives in shared registers, which cannot be dropped;")
	fmt.Println("the only messages are Ω accusations, and losing them merely delays things.")
	return nil
}
