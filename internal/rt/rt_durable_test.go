package rt

import (
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
)

// A durable host's registers must survive a full stop-and-rebuild cycle:
// the first incarnation writes, the second recovers the values from disk
// before any process runs. This is the in-process half of the kill -9
// acceptance scenario (cmd/mnmnode tests the cross-process half).
func TestDurableRegistersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	const n = 3

	writer := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if err := env.Write(core.Reg(env.ID(), "epoch"), int(env.ID())*100); err != nil {
				return err
			}
			swapped, _, err := env.CompareAndSwap(core.RegI(env.ID(), "slot", 1), nil, "cas-value")
			if err != nil {
				return err
			}
			if !swapped {
				return nil
			}
			return env.Write(core.Reg(env.ID(), "epoch"), int(env.ID())*100+1)
		}
	})

	store, err := durable.OpenRegisters(dir, durable.RegistersOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := openLocal(t, GroupConfig{
		RunConfig: RunConfig{GSM: graph.Complete(n)},
		Durable:   store,
	}, writer)
	h.Start()
	if err := h.Wait().Err(); err != nil {
		t.Fatal(err)
	}
	h.Stop() // closes the store

	// Second incarnation: a do-nothing algorithm over the recovered store.
	store2, err := durable.OpenRegisters(dir, durable.RegistersOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idle := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error { return nil }
	})
	reg := metrics.NewRegistry(n)
	h2 := openLocal(t, GroupConfig{
		RunConfig: RunConfig{GSM: graph.Complete(n)},
		Registry:  reg,
		Durable:   store2,
	}, idle)
	defer h2.Stop()
	for p := core.ProcID(0); p < n; p++ {
		if v, ok := h2.Memory().Peek(core.Reg(p, "epoch")); !ok || v != int(p)*100+1 {
			t.Errorf("proc %v epoch = %v (present=%v), want %d", p, v, ok, int(p)*100+1)
		}
		if v, ok := h2.Memory().Peek(core.RegI(p, "slot", 1)); !ok || v != "cas-value" {
			t.Errorf("proc %v slot = %v (present=%v), want cas-value", p, v, ok)
		}
		if got := reg.Counters().Of(p, metrics.RecoveredRegisters); got != 2 {
			t.Errorf("proc %v recovered_registers = %d, want 2", p, got)
		}
	}
}
