package rt

import (
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/mutex"
	"github.com/mnm-model/mnm/internal/paxos"
)

// TestPaxosRealtime runs Ω-driven Paxos under true goroutine concurrency:
// the Go scheduler provides the (practically always sufficient) fairness,
// and agreement must hold for whatever interleaving occurs.
func TestPaxosRealtime(t *testing.T) {
	inputs := []core.Value{"a", "b", "c", "d"}
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(4), Seed: 3}},
		paxos.New(paxos.Config{Inputs: inputs, HaltAfterDecide: true}))
	h.Start()
	errs := h.Wait().Errors
	for p, e := range errs {
		t.Fatalf("process %v: %v", p, e)
	}
	var agreed core.Value
	for p := core.ProcID(0); p < 4; p++ {
		v := h.Exposed(p, paxos.DecisionKey)
		if v == nil {
			t.Fatalf("process %v undecided", p)
		}
		if agreed == nil {
			agreed = v
		} else if agreed != v {
			t.Fatalf("disagreement: %v vs %v", agreed, v)
		}
	}
}

// TestBakeryRealtime hammers the bakery lock with real concurrency; a
// shared plain counter guarded by the lock must end exactly at the total
// increment count (mutual exclusion makes the unsynchronized increments
// safe — and -race agrees only if the lock really works... note the
// counter lives in lock-protected shared registers to stay race-clean).
func TestBakeryRealtime(t *testing.T) {
	const perProc = 20
	b := mutex.NewBakery("rt")
	counterRef := core.Reg(0, "counter")
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			for i := 0; i < perProc; i++ {
				if err := b.Acquire(env); err != nil {
					return err
				}
				raw, err := env.Read(counterRef)
				if err != nil {
					return err
				}
				cur := 0
				if raw != nil {
					cur = raw.(int)
				}
				if err := env.Write(counterRef, cur+1); err != nil {
					return err
				}
				if err := b.Release(env); err != nil {
					return err
				}
			}
			return nil
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(4), Seed: 9}}, alg)
	h.Start()
	errs := h.Wait().Errors
	for p, e := range errs {
		t.Fatalf("process %v: %v", p, e)
	}
	raw, _ := h.Memory().Peek(counterRef)
	if raw != 4*perProc {
		t.Errorf("counter = %v, want %d (lost updates ⇒ mutual exclusion broken)", raw, 4*perProc)
	}
}

// TestMnMLockRealtime does the same for the m&m lock (wakeups by message
// under real concurrency).
func TestMnMLockRealtime(t *testing.T) {
	const perProc = 20
	l := mutex.NewMnMLock(0, "rt")
	counterRef := core.Reg(0, "counter")
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			var in core.Inbox
			for i := 0; i < perProc; i++ {
				tk, err := l.Acquire(env, &in)
				if err != nil {
					return err
				}
				raw, err := env.Read(counterRef)
				if err != nil {
					return err
				}
				cur := 0
				if raw != nil {
					cur = raw.(int)
				}
				if err := env.Write(counterRef, cur+1); err != nil {
					return err
				}
				if err := l.Release(env, tk); err != nil {
					return err
				}
			}
			return nil
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(4), Seed: 2}}, alg)
	h.Start()
	errs := h.Wait().Errors
	for p, e := range errs {
		t.Fatalf("process %v: %v", p, e)
	}
	raw, _ := h.Memory().Peek(counterRef)
	if raw != 4*perProc {
		t.Errorf("counter = %v, want %d", raw, 4*perProc)
	}
}

// TestMsgOmegaRealtime runs the classic heartbeat Ω on the real-time host
// (in-process channels are timely links, so it should stabilize).
func TestMsgOmegaRealtime(t *testing.T) {
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Edgeless(4), Seed: 4}},
		leader.NewMsgOmega(leader.MsgOmegaConfig{}))
	h.Start()
	defer h.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if l, ok := commonLeader(h, 4); ok {
			time.Sleep(30 * time.Millisecond)
			if l2, ok2 := commonLeader(h, 4); ok2 && l2 == l {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("classic Ω did not stabilize on the real-time host")
}
