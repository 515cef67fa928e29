// Replicated log example: the downstream system the paper's primitives
// serve. An Ω leader (Figure 3) sequences client commands into a shared
// log whose slots are CAS registers striped across the hosts — the
// RDMA-shared-log design of systems like DARE, APUS and Mu — and every
// replica applies the same prefix.
//
// The run crashes the initial leader mid-way; the others elect a new
// sequencer and finish replication.
package main

import (
	"fmt"
	"os"

	"github.com/mnm-model/mnm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "replicatedlog: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n        = 4
		commands = 3
		crashAt  = 100 // p0 leads by then, and the log is about half done
	)
	total := n * commands
	r, err := mnm.NewSim(mnm.SimConfig{
		RunConfig: mnm.RunConfig{GSM: mnm.CompleteGraph(n), Seed: 7},
		Scheduler: mnm.RandomScheduler(9),
		MaxSteps:  8_000_000,
		Crashes:   []mnm.Crash{{Proc: 0, AtStep: crashAt}},
		StopWhen: func(r *mnm.SimRunner) bool {
			for p := 0; p < n; p++ {
				id := mnm.ProcID(p)
				if r.Crashed(id) {
					continue
				}
				applied, _ := r.Exposed(id, mnm.RSMAppliedKey).(int)
				if r.Exposed(id, mnm.RSMDoneKey) != true || applied < total-commands {
					return false
				}
			}
			return true
		},
	}, mnm.NewReplicatedLog(mnm.RSMConfig{CommandsPerProcess: commands}))
	if err != nil {
		return err
	}
	res, err := r.Run()
	if err != nil {
		return err
	}
	for p, e := range res.Errors {
		return fmt.Errorf("replica %v: %w", p, e)
	}
	if !res.Stopped {
		return fmt.Errorf("replication did not converge in %d steps", res.Steps)
	}

	fmt.Printf("replication finished in %d steps (leader p0 crashed at step %d)\n\n", res.Steps, crashAt)
	fmt.Println("replica state:")
	for p := mnm.ProcID(0); int(p) < n; p++ {
		if r.Crashed(p) {
			fmt.Printf("  %v: crashed\n", p)
			continue
		}
		fmt.Printf("  %v: applied=%v state-hash=%x\n",
			p, r.Exposed(p, mnm.RSMAppliedKey), r.Exposed(p, mnm.RSMHashKey))
	}

	fmt.Println("\ncommitted log prefix (slot registers survive the crash):")
	applied := 0
	for p := mnm.ProcID(0); int(p) < n; p++ {
		if a, ok := r.Exposed(p, mnm.RSMAppliedKey).(int); ok && a > applied {
			applied = a
		}
	}
	for s := 0; s < applied; s++ {
		v, ok := r.Memory().Peek(mnm.RSMSlotRef(s, n))
		if !ok {
			break
		}
		fmt.Printf("  slot %2d @ host %v: %v\n", s, mnm.RSMSlotRef(s, n).Owner, v)
	}
	fmt.Println("\nall live replicas report identical state hashes: the log is agreed.")
	return nil
}
