package mutex

import (
	"fmt"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/sim"
)

// csAlg builds an algorithm where each process performs rounds critical
// sections guarded by the lock built by acquire/release, verifying mutual
// exclusion through a shared occupancy register.
func csAlg(rounds int, acquire func(core.Env, *core.Inbox) (Ticket, error), release func(core.Env, Ticket) error) core.Algorithm {
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			var in core.Inbox
			occupancy := core.Reg(0, "cs-occupancy")
			for i := 0; i < rounds; i++ {
				tk, err := acquire(env, &in)
				if err != nil {
					return err
				}
				// Critical section: occupancy must be free, then held by
				// us across a few steps, then freed.
				raw, err := env.Read(occupancy)
				if err != nil {
					return err
				}
				if raw != nil && raw != core.NoProc {
					return fmt.Errorf("mutual exclusion violated: %v found %v in CS", env.ID(), raw)
				}
				if err := env.Write(occupancy, env.ID()); err != nil {
					return err
				}
				env.Yield()
				env.Yield()
				raw, err = env.Read(occupancy)
				if err != nil {
					return err
				}
				if raw != env.ID() {
					return fmt.Errorf("mutual exclusion violated: %v saw %v mid-CS", env.ID(), raw)
				}
				if err := env.Write(occupancy, core.NoProc); err != nil {
					return err
				}
				if err := release(env, tk); err != nil {
					return err
				}
			}
			env.Expose("done", true)
			return nil
		}
	})
}

func runLock(t *testing.T, alg core.Algorithm, n int, seed int64, counters *metrics.Counters) *sim.Result {
	t.Helper()
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Complete(n), Seed: seed},
		Counters:  counters,
		Scheduler: sched.NewRandom(seed * 3),
		MaxSteps:  3_000_000,
	}, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for p, e := range res.Errors {
		t.Fatalf("process %v: %v", p, e)
	}
	if len(res.Halted) != n {
		t.Fatalf("only %v halted; lock deadlocked? (timedout=%v)", res.Halted, res.TimedOut)
	}
	return res
}

func TestMnMLockMutualExclusion(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		lock := NewMnMLock(0, "t")
		alg := csAlg(4, lock.Acquire, lock.Release)
		runLock(t, alg, 5, seed, nil)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		lock := NewSpinLock(0, "t")
		alg := csAlg(4, func(env core.Env, _ *core.Inbox) (Ticket, error) {
			return lock.Acquire(env)
		}, lock.Release)
		runLock(t, alg, 5, seed, nil)
	}
}

func TestMnMLockNoSpinning(t *testing.T) {
	// The intro's claim: while waiting, the m&m lock performs no
	// shared-memory reads, so its reads per acquisition are O(1), while
	// the spin lock's grow with contention/waiting time.
	const n, rounds = 6, 5

	mnm := metrics.NewCounters(n)
	lock := NewMnMLock(0, "t")
	runLock(t, csAlg(rounds, lock.Acquire, lock.Release), n, 42, mnm)

	spin := metrics.NewCounters(n)
	sl := NewSpinLock(0, "t")
	runLock(t, csAlg(rounds, func(env core.Env, _ *core.Inbox) (Ticket, error) {
		return sl.Acquire(env)
	}, sl.Release), n, 42, spin)

	mnmReads := mnm.Total(metrics.RegReadLocal) + mnm.Total(metrics.RegReadRemote)
	spinReads := spin.Total(metrics.RegReadLocal) + spin.Total(metrics.RegReadRemote)
	t.Logf("reads: m&m=%d spin=%d", mnmReads, spinReads)
	if spinReads < 3*mnmReads {
		t.Errorf("spin lock reads (%d) not dominating m&m reads (%d): spin baseline broken", spinReads, mnmReads)
	}
	// And the m&m lock must actually use messages for wakeups.
	if mnm.Total(metrics.MsgSent) == 0 {
		t.Error("m&m lock sent no wakeup messages")
	}
	if spin.Total(metrics.MsgSent) != 0 {
		t.Error("spin lock sent messages")
	}
}

func TestTicketFIFO(t *testing.T) {
	// Order of CS entry must follow ticket order; record entries in a
	// shared append-only log register.
	lock := NewMnMLock(0, "t")
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			var in core.Inbox
			tk, err := lock.Acquire(env, &in)
			if err != nil {
				return err
			}
			logReg := core.Reg(0, "entry-log")
			raw, err := env.Read(logReg)
			if err != nil {
				return err
			}
			var entries []int
			if raw != nil {
				entries = raw.([]int)
			}
			next := make([]int, len(entries)+1)
			copy(next, entries)
			next[len(entries)] = tk.seq
			if err := env.Write(logReg, next); err != nil {
				return err
			}
			return lock.Release(env, tk)
		}
	})
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Complete(5), Seed: 7},
		Scheduler: sched.NewRandom(11),
		MaxSteps:  1_000_000,
	}, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for p, e := range res.Errors {
		t.Fatalf("process %v: %v", p, e)
	}
	raw, ok := r.Memory().Peek(core.Reg(0, "entry-log"))
	if !ok {
		t.Fatal("no entry log")
	}
	entries := raw.([]int)
	if len(entries) != 5 {
		t.Fatalf("entry log %v, want 5 entries", entries)
	}
	for i, s := range entries {
		if s != i {
			t.Errorf("CS entry order %v not FIFO by ticket", entries)
			break
		}
	}
}

func TestDistinctLocksIndependent(t *testing.T) {
	a := NewMnMLock(0, "a")
	b := NewMnMLock(0, "b")
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			var in core.Inbox
			l := a
			if int(env.ID())%2 == 1 {
				l = b
			}
			tk, err := l.Acquire(env, &in)
			if err != nil {
				return err
			}
			env.Expose("ticket", tk.seq)
			return l.Release(env, tk)
		}
	})
	r, err := sim.New(sim.Config{RunConfig: sim.RunConfig{GSM: graph.Complete(4)}, MaxSteps: 500_000}, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for p, e := range res.Errors {
		t.Fatalf("process %v: %v", p, e)
	}
	// Two locks each dispensed tickets 0 and 1 independently.
	if r.Exposed(0, "ticket") != 0 || r.Exposed(1, "ticket") != 0 {
		t.Errorf("first users got tickets %v, %v, want 0, 0",
			r.Exposed(0, "ticket"), r.Exposed(1, "ticket"))
	}
}

func BenchmarkMnMLockUncontended(b *testing.B) {
	lock := NewMnMLock(0, "b")
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			var in core.Inbox
			for i := 0; i < b.N; i++ {
				tk, err := lock.Acquire(env, &in)
				if err != nil {
					return err
				}
				if err := lock.Release(env, tk); err != nil {
					return err
				}
			}
			return nil
		}
	})
	r, err := sim.New(sim.Config{RunConfig: sim.RunConfig{GSM: graph.Complete(1)}, MaxSteps: ^uint64(0)}, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if res, err := r.Run(); err != nil || len(res.Errors) > 0 {
		b.Fatalf("err=%v procErrs=%v", err, res.Errors)
	}
}
