// Leader election example: elect a leader, crash it, watch the failover —
// and verify the paper's steady-state claim (Theorem 5.1): after
// stabilization, no messages at all; the leader writes one register, the
// others read it.
package main

import (
	"fmt"
	"os"

	"github.com/mnm-model/mnm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "leaderelection: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n        = 5
		crashAt  = 120_000
		maxSteps = 400_000
		window   = 40_000
	)
	counters := mnm.NewCounters(n)
	r, err := mnm.NewSim(mnm.SimConfig{
		RunConfig:     mnm.RunConfig{GSM: mnm.CompleteGraph(n), Seed: 3},
		Counters:      counters,
		Scheduler:     mnm.TimelyScheduler(1, 4, 9),
		MaxSteps:      maxSteps,
		SnapshotEvery: window,
		Crashes:       []mnm.Crash{{Proc: 0, AtStep: crashAt}},
	}, mnm.NewLeaderElection(mnm.LeaderConfig{Notifier: mnm.MessageNotifier}))
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

	fmt.Println("communication per 40k-step window (process 0 crashes at 120k):")
	fmt.Println("window          msgs   reg writes   reg reads")
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i].Step == res.Series[i-1].Step {
			continue
		}
		d := res.Series[i].Sub(res.Series[i-1])
		fmt.Printf("%6d–%-7d %6d %10d %11d\n",
			res.Series[i-1].Step, res.Series[i].Step,
			d.Total(mnm.MsgSent),
			d.Total(mnm.RegWriteLocal)+d.Total(mnm.RegWriteRemote),
			d.Total(mnm.RegReadLocal)+d.Total(mnm.RegReadRemote))
	}

	fmt.Println("\nfinal leader outputs:")
	for p := mnm.ProcID(0); int(p) < n; p++ {
		if r.Crashed(p) {
			fmt.Printf("  %v: crashed\n", p)
			continue
		}
		fmt.Printf("  %v: leader = %v\n", p, r.Exposed(p, mnm.LeaderKey))
	}
	fmt.Println("\nmessages burst only at startup and around the crash; in steady state")
	fmt.Println("the only traffic is the leader's heartbeat write and the others' reads.")
	return nil
}
