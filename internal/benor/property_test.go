package benor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/sim"
)

// TestQuickSafetyRandomized property-checks validity and uniform agreement
// over random inputs, crash plans, schedules and delays. Termination is
// not asserted (crashes may exceed F); decided values are judged as-is.
func TestQuickSafetyRandomized(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		f := (n - 1) / 2
		inputs := make([]Val, n)
		zeros, ones := false, false
		for i := range inputs {
			inputs[i] = Val(rng.Intn(2))
			if inputs[i] == V0 {
				zeros = true
			} else {
				ones = true
			}
		}
		var crashes []sim.Crash
		for _, v := range rng.Perm(n)[:rng.Intn(n)] {
			crashes = append(crashes, sim.Crash{Proc: core.ProcID(v), AtStep: uint64(rng.Intn(1500))})
		}
		r, err := sim.New(sim.Config{
			RunConfig: sim.RunConfig{GSM: graph.Edgeless(n), Seed: seed},
			Scheduler: sched.NewRandom(seed + 2),
			Delivery:  msgnet.RandomDelay{Max: uint64(rng.Intn(15)), Seed: uint64(seed)},
			MaxSteps:  50_000,
			Crashes:   crashes,
			StopWhen:  func(r *sim.Runner) bool { return sim.AllCorrectExposed(r, DecisionKey) },
		}, New(Config{F: f, Inputs: inputs}))
		if err != nil {
			return false
		}
		res, err := r.Run()
		if err != nil {
			return false
		}
		if len(res.Errors) != 0 {
			return false
		}
		var agreed *Val
		for p := 0; p < n; p++ {
			raw := r.Exposed(core.ProcID(p), DecisionKey)
			if raw == nil {
				continue
			}
			v := raw.(Val)
			if v == V0 && !zeros {
				return false
			}
			if v == V1 && !ones {
				return false
			}
			if v != V0 && v != V1 {
				return false
			}
			if agreed == nil {
				agreed = &v
			} else if *agreed != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMessageComplexityPerRound checks Ben-Or's O(n²)-messages-per-round
// shape: each process broadcasts twice (phase R + phase P) per round, so a
// failure-free unanimous run (which decides in round 1) sends roughly
// 2·n² + n² messages (round 1 fully, plus the start of round 2 before the
// stop condition fires).
func TestMessageComplexityPerRound(t *testing.T) {
	const n = 6
	inputs := make([]Val, n)
	for i := range inputs {
		inputs[i] = V1
	}
	counters := metrics.NewCounters(n)
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Edgeless(n), Seed: 1},
		Counters:  counters,
		MaxSteps:  200_000,
		StopWhen:  func(r *sim.Runner) bool { return sim.AllCorrectExposed(r, DecisionKey) },
	}, New(Config{F: 2, Inputs: inputs}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("unanimous run did not decide")
	}
	msgs := counters.Total(metrics.MsgSent)
	// Lower bound: the two broadcasts of round 1 = 2n². Upper bound:
	// loose 6n² (stragglers may enter round 2 or 3 before the global
	// stop fires).
	if msgs < 2*n*n || msgs > 6*n*n {
		t.Errorf("unanimous decide sent %d messages, want within [%d, %d]", msgs, 2*n*n, 6*n*n)
	}
	// Every correct process decided in round 1.
	for p := 0; p < n; p++ {
		if got := r.Exposed(core.ProcID(p), RoundKey); got != 1 && got != 2 {
			t.Errorf("process %d reached round %v on a unanimous run", p, got)
		}
	}
}

// TestOneProcessMessagesHeld holds every message from process 0 for a long
// prefix. Ben-Or with F=2 must still decide among the other 5 (quorum 4),
// and process 0 must decide after release.
func TestOneProcessMessagesHeld(t *testing.T) {
	held := core.ProcID(0)
	policy := policyFunc(func(from, to core.ProcID, sentAt, now uint64) bool {
		return from != held || now > 30_000
	})
	inputs := []Val{V0, V1, V0, V1, V0, V1}
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Edgeless(6), Seed: 5},
		Delivery:  policy,
		MaxSteps:  3_000_000,
		StopWhen:  func(r *sim.Runner) bool { return sim.AllCorrectExposed(r, DecisionKey) },
	}, New(Config{F: 2, Inputs: inputs}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatalf("no termination: %+v", res)
	}
	checkAgreement(t, decisions(r, 6), inputs)
}

type policyFunc func(from, to core.ProcID, sentAt, now uint64) bool

func (f policyFunc) Deliverable(from, to core.ProcID, sentAt, now uint64) bool {
	return f(from, to, sentAt, now)
}
