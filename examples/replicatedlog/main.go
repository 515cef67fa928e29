// Replicated log example: the downstream system the paper's primitives
// serve. An Ω leader (Figure 3) sequences client commands into a shared
// log whose slots are CAS registers striped across the hosts — the
// RDMA-shared-log design of systems like DARE, APUS and Mu — and every
// replica applies the same prefix. Each slot holds a batch: every command
// the leader held when it appended.
//
// The run crashes the initial leader mid-way; the others elect a new
// sequencer and finish replication. The crash step comes from a crash-free
// dry run of the same seed (the simulator is deterministic up to the
// crash): the middle of the steps at which p0 leads while the other
// replicas have not all applied the log. The example fails if p0 did not
// crash before the run completed.
package main

import (
	"errors"
	"fmt"
	"os"

	"github.com/mnm-model/mnm"
)

const (
	n        = 4
	commands = 3
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "replicatedlog: %v\n", err)
		os.Exit(1)
	}
}

// finished reports whether every live replica from..n-1 committed its own
// commands and applied the log of all survivors' commands.
func finished(r *mnm.SimRunner, from int) bool {
	for p := from; p < n; p++ {
		id := mnm.ProcID(p)
		if r.Crashed(id) {
			continue
		}
		applied, _ := r.Exposed(id, mnm.RSMAppliedKey).(int)
		if r.Exposed(id, mnm.RSMDoneKey) != true || applied < (n-1)*commands {
			return false
		}
	}
	return true
}

// simulate runs the replicated log with p0 crashed at crashAt (0: no
// crash), calling observe before each step's stop check.
func simulate(crashAt uint64, observe func(*mnm.SimRunner)) (*mnm.SimRunner, error) {
	cfg := mnm.SimConfig{
		RunConfig: mnm.RunConfig{GSM: mnm.CompleteGraph(n), Seed: 7},
		Scheduler: mnm.RandomScheduler(9),
		MaxSteps:  8_000_000,
		StopWhen: func(r *mnm.SimRunner) bool {
			observe(r)
			return finished(r, 0)
		},
	}
	if crashAt > 0 {
		cfg.Crashes = []mnm.Crash{{Proc: 0, AtStep: crashAt}}
	}
	r, err := mnm.NewSim(cfg, mnm.NewReplicatedLog(mnm.RSMConfig{CommandsPerProcess: commands}))
	if err != nil {
		return nil, err
	}
	res, err := r.Run()
	if err != nil {
		return nil, err
	}
	for p, e := range res.Errors {
		return nil, fmt.Errorf("replica %v: %w", p, e)
	}
	if !res.Stopped {
		return nil, fmt.Errorf("replication did not converge in %d steps", res.Steps)
	}
	return r, nil
}

func run() error {
	var leading []uint64
	if _, err := simulate(0, func(r *mnm.SimRunner) {
		if r.Exposed(0, mnm.LeaderKey) == mnm.ProcID(0) && !finished(r, 1) {
			leading = append(leading, r.GlobalStep())
		}
	}); err != nil {
		return fmt.Errorf("dry run: %w", err)
	}
	if len(leading) == 0 {
		return errors.New("dry run: p0 never led while the log was unfinished")
	}
	crashAt := leading[len(leading)/2]

	midRun := false
	r, err := simulate(crashAt, func(r *mnm.SimRunner) {
		if r.GlobalStep() == crashAt {
			midRun = r.Crashed(0) && !finished(r, 1)
		}
	})
	if err != nil {
		return err
	}
	if !midRun {
		return fmt.Errorf("leader p0 did not crash at step %d before the log was complete", crashAt)
	}

	fmt.Printf("replication finished in %d steps (leader p0 crashed at step %d)\n\n", r.GlobalStep(), crashAt)
	fmt.Println("replica state:")
	for p := mnm.ProcID(0); int(p) < n; p++ {
		if r.Crashed(p) {
			fmt.Printf("  %v: crashed\n", p)
			continue
		}
		fmt.Printf("  %v: applied=%v state-hash=%x\n",
			p, r.Exposed(p, mnm.RSMAppliedKey), r.Exposed(p, mnm.RSMHashKey))
	}

	fmt.Println("\ncommitted log, one batch per slot (slot registers survive the crash):")
	for s := 0; ; s++ {
		v, ok := r.Memory().Peek(mnm.RSMSlotRef(s, n))
		if !ok {
			break
		}
		fmt.Printf("  slot %2d @ host %v: %v\n", s, mnm.RSMSlotRef(s, n).Owner, v)
	}
	fmt.Println("\nall live replicas report identical state hashes: the log is agreed.")
	return nil
}
