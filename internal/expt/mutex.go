package expt

import (
	"fmt"
	"io"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/mutex"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/sim"
)

// mutexExperiment is the §1 motivating example quantified: shared-memory
// reads per lock acquisition for the spinning baseline vs. the m&m lock
// that sleeps on its mailbox.
func mutexExperiment() Experiment {
	e := Experiment{
		ID:    "MUTEX",
		Title: "no-spin m&m mutual exclusion vs. shared-memory spinning",
		Paper: "§1 (motivating example)",
	}
	e.Run = func(w io.Writer, p Params) error {
		header(w, e)
		rounds := 6
		if p.Quick {
			rounds = 3
		}
		sizes := []int{2, 4, 8}
		kinds := []string{"m&m", "spin", "bakery"}
		// Flatten the (system size, lock kind) sweep into one pooled trial
		// per cell; every trial builds its own lock and simulator.
		rows := make([][]any, len(sizes)*len(kinds))
		err := forEach(p, len(rows), func(i int) error {
			n := sizes[i/len(kinds)]
			kind := kinds[i%len(kinds)]
			acqs := int64(n * rounds)
			counters := metrics.NewCounters(n)
			var alg core.Algorithm
			switch kind {
			case "m&m":
				l := mutex.NewMnMLock(0, "x")
				alg = lockWorkload(rounds, func(env core.Env, in *core.Inbox) (mutex.Ticket, error) {
					return l.Acquire(env, in)
				}, l.Release)
			case "spin":
				l := mutex.NewSpinLock(0, "x")
				alg = lockWorkload(rounds, func(env core.Env, _ *core.Inbox) (mutex.Ticket, error) {
					return l.Acquire(env)
				}, l.Release)
			default:
				l := mutex.NewBakery("x")
				alg = lockWorkload(rounds, func(env core.Env, _ *core.Inbox) (mutex.Ticket, error) {
					return mutex.Ticket{}, l.Acquire(env)
				}, func(env core.Env, _ mutex.Ticket) error {
					return l.Release(env)
				})
			}
			r, err := sim.New(sim.Config{
				RunConfig: sim.RunConfig{GSM: graph.Complete(n), Seed: p.Seed + int64(n)},
				Counters:  counters,
				Scheduler: sched.NewRandom(p.Seed + int64(n) + 1),
				MaxSteps:  8_000_000,
			}, alg)
			if err != nil {
				return err
			}
			res, err := r.Run()
			if err != nil {
				return err
			}
			for pid, perr := range res.Errors {
				return fmt.Errorf("n=%d %s lock, process %v: %w", n, kind, pid, perr)
			}
			if len(res.Halted) != n {
				return fmt.Errorf("n=%d %s lock deadlocked (halted %d of %d)", n, kind, len(res.Halted), n)
			}
			reads := counters.Total(metrics.RegReadLocal) + counters.Total(metrics.RegReadRemote)
			writes := counters.Total(metrics.RegWriteLocal) + counters.Total(metrics.RegWriteRemote)
			msgs := counters.Total(metrics.MsgSent)
			rows[i] = []any{n, kind,
				fmt.Sprintf("%.1f", float64(reads)/float64(acqs)),
				fmt.Sprintf("%.1f", float64(writes)/float64(acqs)),
				fmt.Sprintf("%.1f", float64(msgs)/float64(acqs)),
				res.Steps}
			return nil
		})
		if err != nil {
			return err
		}
		t := newTable(w)
		t.row("n", "lock", "reads/acq", "writes/acq", "msgs/acq", "steps total")
		for _, r := range rows {
			t.row(r...)
		}
		t.flush()
		fmt.Fprintln(w, "\nexpected: the m&m lock's reads per acquisition stay O(1) as contention")
		fmt.Fprintln(w, "grows (waiters sleep on their mailbox); the CAS spin lock's — and even")
		fmt.Fprintln(w, "more so the read/write-only bakery's (§1's named example) — grow with")
		fmt.Fprintln(w, "waiting time. Only the m&m lock sends (wakeup) messages.")
		return nil
	}
	return e
}

// lockWorkload has every process acquire/release the lock `rounds` times
// with a short critical section.
func lockWorkload(rounds int, acquire func(core.Env, *core.Inbox) (mutex.Ticket, error), release func(core.Env, mutex.Ticket) error) core.Algorithm {
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			var in core.Inbox
			for i := 0; i < rounds; i++ {
				tk, err := acquire(env, &in)
				if err != nil {
					return err
				}
				env.Yield() // critical section work
				if err := release(env, tk); err != nil {
					return err
				}
			}
			return nil
		}
	})
}
