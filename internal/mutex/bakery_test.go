package mutex

import (
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/sim"
)

func TestBakeryMutualExclusion(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		b := NewBakery("t")
		alg := csAlg(3, func(env core.Env, _ *core.Inbox) (Ticket, error) {
			return Ticket{}, b.Acquire(env)
		}, func(env core.Env, _ Ticket) error {
			return b.Release(env)
		})
		runLock(t, alg, 4, seed, nil)
	}
}

func TestBakeryUsesOnlyReadsAndWrites(t *testing.T) {
	// The bakery must never touch CAS (it is the read/write-register
	// baseline). There is no CAS counter, so assert structurally: a run
	// under a domain that counts operations shows only reads and writes,
	// and the ticket counter register families of the CAS locks stay
	// absent from memory.
	b := NewBakery("t")
	// Plain acquire/release loop (no shared occupancy register, which
	// would itself be a remote write by non-owners).
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			for i := 0; i < 2; i++ {
				if err := b.Acquire(env); err != nil {
					return err
				}
				env.Yield()
				if err := b.Release(env); err != nil {
					return err
				}
			}
			return nil
		}
	})
	counters := metrics.NewCounters(3)
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Complete(3), Seed: 3},
		Counters:  counters,
		Scheduler: sched.NewRandom(4),
		MaxSteps:  2_000_000,
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
	if len(res.Halted) != 3 {
		t.Fatalf("bakery deadlocked: %v", res.Halted)
	}
	if counters.Total(metrics.MsgSent) != 0 {
		t.Error("bakery sent messages")
	}
	// Registers are striped across owners (single-writer): each process
	// wrote only its own registers.
	for p := core.ProcID(0); p < 3; p++ {
		if counters.Of(p, metrics.RegWriteRemote) != 0 {
			t.Errorf("process %v wrote remote registers (bakery is SWMR)", p)
		}
	}
}

func TestBakeryFCFS(t *testing.T) {
	// First-come-first-served: a process that completes its doorway
	// before another starts must enter first. Run p0 far ahead via a
	// priority scheduler, then check it got the first CS entry.
	b := NewBakery("t")
	var order []core.ProcID
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if err := b.Acquire(env); err != nil {
				return err
			}
			order = append(order, env.ID())
			return b.Release(env)
		}
	})
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Complete(3)},
		Scheduler: &sched.Prioritize{
			Procs: []core.ProcID{2},
			K:     200,
			Inner: &sched.RoundRobin{},
		},
		MaxSteps: 2_000_000,
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
	if len(order) != 3 {
		t.Fatalf("entries = %v", order)
	}
	if order[0] != 2 {
		t.Errorf("first entrant = %v, want the head-started p2 (FCFS)", order[0])
	}
}

func TestBakerySpinsGrowWithContention(t *testing.T) {
	// The §1 point, measured against the bakery itself: its reads per
	// acquisition grow with n, unlike the m&m lock's.
	readsPerAcq := func(n int) float64 {
		b := NewBakery("t")
		alg := csAlg(3, func(env core.Env, _ *core.Inbox) (Ticket, error) {
			return Ticket{}, b.Acquire(env)
		}, func(env core.Env, _ Ticket) error {
			return b.Release(env)
		})
		counters := metrics.NewCounters(n)
		r, err := sim.New(sim.Config{
			RunConfig: sim.RunConfig{GSM: graph.Complete(n), Seed: 7},
			Counters:  counters,
			Scheduler: sched.NewRandom(9),
			MaxSteps:  8_000_000,
		}, alg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Halted) != n {
			t.Fatalf("n=%d: bakery deadlocked", n)
		}
		reads := counters.Total(metrics.RegReadLocal) + counters.Total(metrics.RegReadRemote)
		return float64(reads) / float64(3*n)
	}
	small, big := readsPerAcq(2), readsPerAcq(8)
	t.Logf("bakery reads/acq: n=2 → %.1f, n=8 → %.1f", small, big)
	if big < 2*small {
		t.Errorf("bakery reads/acq did not grow with contention: %.1f → %.1f", small, big)
	}
}
