// Mutex example: the paper's §1 motivating scenario. Two ticket locks with
// identical FIFO semantics — one pure shared-memory (waiters spin on a
// register), one m&m (waiters sleep on their mailbox and are woken by a
// message) — run the same contended workload; the metrics show the spin
// disappear.
package main

import (
	"fmt"
	"os"

	"github.com/mnm-model/mnm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mutex: %v\n", err)
		os.Exit(1)
	}
}

const (
	procs  = 6
	rounds = 5
)

func run() error {
	fmt.Printf("%d processes × %d critical sections each:\n\n", procs, rounds)
	fmt.Println("lock   reg reads   reg writes   messages")

	mnmLock := mnm.NewMnMLock(0, "demo")
	reads, writes, msgs, err := measure(func(env mnm.Env, in *mnm.Inbox) error {
		for i := 0; i < rounds; i++ {
			tk, err := mnmLock.Acquire(env, in)
			if err != nil {
				return err
			}
			env.Yield() // critical section
			if err := mnmLock.Release(env, tk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("m&m  %10d %12d %10d\n", reads, writes, msgs)

	spinLock := mnm.NewSpinLock(0, "demo")
	reads, writes, msgs, err = measure(func(env mnm.Env, _ *mnm.Inbox) error {
		for i := 0; i < rounds; i++ {
			tk, err := spinLock.Acquire(env)
			if err != nil {
				return err
			}
			env.Yield()
			if err := spinLock.Release(env, tk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("spin %10d %12d %10d\n", reads, writes, msgs)

	fmt.Println("\nwaiters in the m&m lock perform no register reads while blocked —")
	fmt.Println("the releaser's message wakes them (\"react to data without spinning\", §1).")
	return nil
}

func measure(body func(mnm.Env, *mnm.Inbox) error) (reads, writes, msgs int64, err error) {
	counters := mnm.NewCounters(procs)
	alg := mnm.AlgorithmFunc(func(id mnm.ProcID) mnm.Process {
		return func(env mnm.Env) error {
			var in mnm.Inbox
			return body(env, &in)
		}
	})
	r, err := mnm.NewSim(mnm.SimConfig{
		RunConfig: mnm.RunConfig{GSM: mnm.CompleteGraph(procs), Seed: 5},
		Counters:  counters,
		Scheduler: mnm.RandomScheduler(8),
		MaxSteps:  5_000_000,
	}, alg)
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := r.Run()
	if err != nil {
		return 0, 0, 0, err
	}
	for p, e := range res.Errors {
		return 0, 0, 0, fmt.Errorf("process %v: %w", p, e)
	}
	if len(res.Halted) != procs {
		return 0, 0, 0, fmt.Errorf("lock deadlocked: %d of %d halted", len(res.Halted), procs)
	}
	reads = counters.Total(mnm.RegReadLocal) + counters.Total(mnm.RegReadRemote)
	writes = counters.Total(mnm.RegWriteLocal) + counters.Total(mnm.RegWriteRemote)
	msgs = counters.Total(mnm.MsgSent)
	return reads, writes, msgs, nil
}
