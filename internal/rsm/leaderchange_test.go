package rsm

import (
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/sim"
)

// distinctLogged returns how many distinct commands the committed log
// holds.
func distinctLogged(r *sim.Runner) int {
	seen := make(map[Command]bool)
	for s := 0; ; s++ {
		raw, ok := r.Memory().Peek(SlotRef(s, r.N()))
		if !ok {
			return len(seen)
		}
		for _, cmd := range raw.(Batch) {
			seen[cmd] = true
		}
	}
}

// The leader changes mid-submit: process 0, the leader Ω settles on first
// (every badness counter starts at 0 and ties go to the lowest id), crashes
// while it leads and the log is unfinished — a step a dry run of the same
// seed finds — over reliable and over fair-lossy links. Forwarding each
// command once per leader plus the oldest-first stall resend must still
// commit every survivor's commands, and every survivor must apply each
// logged command exactly once.
func TestReplicationSurvivesLeaderChanges(t *testing.T) {
	const n, k = 4, 16
	for _, lossy := range []bool{false, true} {
		for seed := int64(0); seed < 16; seed++ {
			mk := func() sim.Config {
				rc := sim.RunConfig{GSM: graph.Complete(n), Seed: seed}
				if lossy {
					rc.Links, rc.Drop = msgnet.FairLossy, msgnet.NewRandomDrop(0.3, seed+100)
				}
				return sim.Config{
					RunConfig: rc,
					Scheduler: sched.NewRandom(seed*5 + 2),
					MaxSteps:  8_000_000,
					StopWhen: func(r *sim.Runner) bool {
						return allDoneAndConverged(r) && r.Exposed(1, AppliedKey) == distinctLogged(r)
					},
				}
			}
			alg := New(Config{
				CommandsPerProcess: k,
				Leader:             leader.Config{Notifier: leader.SharedMemoryNotifier},
			})
			crashAt := leaderCrashStep(t, mk, alg)
			ledAtCrash, doneAtCrash := false, false
			cfg := mk()
			stop := cfg.StopWhen
			cfg.Crashes = []sim.Crash{{Proc: 0, AtStep: crashAt}}
			cfg.StopWhen = func(r *sim.Runner) bool {
				if r.GlobalStep() == crashAt {
					ledAtCrash = r.Exposed(0, LeaderKey) == core.ProcID(0)
					doneAtCrash = allDoneAndConverged(r)
				}
				return stop(r)
			}
			r, err := sim.New(cfg, alg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			for p, e := range res.Errors {
				t.Fatalf("lossy=%v seed %d: replica %v: %v", lossy, seed, p, e)
			}
			if !res.Stopped {
				t.Fatalf("lossy=%v seed %d (crash at %d): survivors did not all apply the whole log: %+v",
					lossy, seed, crashAt, res)
			}
			if !ledAtCrash || doneAtCrash {
				t.Errorf("lossy=%v seed %d: the crash at step %d hit no running leader (led by p0: %v, log done: %v)",
					lossy, seed, crashAt, ledAtCrash, doneAtCrash)
			}
			checkReplicaHashesEqual(t, r)
			for p := core.ProcID(1); p < n; p++ {
				if got := r.Exposed(p, AppliedKey).(int); got < (n-1)*k {
					t.Errorf("lossy=%v seed %d: replica %v applied %d commands, want >= %d",
						lossy, seed, p, got, (n-1)*k)
				}
			}
		}
	}
}

// forwardCounter counts one replica's submit messages, the commands they
// carry, and the other processes it has reported as leader.
type forwardCounter struct {
	core.Env
	msgs     int // submitMsg sends
	cmds     int // commands forwarded, over all submitMsg sends
	leaders  map[core.ProcID]bool
	lastSend uint64 // LocalSteps at the latest forward
}

func (e *forwardCounter) Send(to core.ProcID, payload core.Value) error {
	if sub, ok := payload.(submitMsg); ok {
		e.msgs++
		e.cmds += len(sub.Cmds)
		e.lastSend = e.LocalSteps()
	}
	return e.Env.Send(to, payload)
}

func (e *forwardCounter) Expose(name string, v core.Value) {
	if l, ok := v.(core.ProcID); ok && name == LeaderKey && l != e.ID() && l != core.NoProc {
		e.leaders[l] = true
	}
	e.Env.Expose(name, v)
}

// Over reliable links a proposer sends each other leader it saw one submit
// message, carrying each uncommitted command once, plus its stall resends
// of one command each. Stall resends are at least ResendInterval steps
// apart, so a proposer whose last forward was at local step t made at most
// t/ResendInterval of them.
func TestForwardingIsBounded(t *testing.T) {
	const n, k = 4, 32
	cfg := Config{CommandsPerProcess: k}
	cfg.setDefaults()
	for seed := int64(0); seed < 4; seed++ {
		counters := make([]*forwardCounter, n)
		alg := New(cfg)
		counted := core.AlgorithmFunc(func(id core.ProcID) core.Process {
			proc := alg.ProcessFor(id)
			return func(env core.Env) error {
				counters[id] = &forwardCounter{Env: env, leaders: map[core.ProcID]bool{}}
				return proc(counters[id])
			}
		})
		r, err := sim.New(sim.Config{
			RunConfig: sim.RunConfig{GSM: graph.Complete(n), Seed: seed},
			Scheduler: sched.NewRandom(seed*7 + 3),
			MaxSteps:  4_000_000,
			StopWhen:  allDoneAndConverged,
		}, counted)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatalf("seed %d: replication did not converge: %+v", seed, res)
		}
		for p, c := range counters {
			stalls := int(c.lastSend / cfg.ResendInterval)
			if bound := len(c.leaders) + stalls; c.msgs > bound {
				t.Errorf("seed %d: replica %d sent %d submit messages, want <= %d (%d other leaders + %d stall resends)",
					seed, p, c.msgs, bound, len(c.leaders), stalls)
			}
			if bound := k*len(c.leaders) + stalls; c.cmds > bound {
				t.Errorf("seed %d: replica %d forwarded %d commands, want <= %d (%d commands x %d other leaders + %d stall resends)",
					seed, p, c.cmds, bound, k, len(c.leaders), stalls)
			}
		}
	}
}
