package rsm

import (
	"errors"
	"reflect"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/sim"
)

func TestRecoveredLog(t *testing.T) {
	const n = 4
	cmd := func(p core.ProcID, seq int) Command {
		return Command{Proposer: p, Seq: seq, Op: "x"}
	}
	regs := map[core.Ref]core.Value{
		SlotRef(0, n): Batch{cmd(1, 0), cmd(3, 0)},
		SlotRef(1, n): Batch{cmd(2, 0)},
		SlotRef(5, n): Batch{cmd(2, 1), cmd(2, 1)},
		// Noise a recovered register dump will also contain:
		core.Reg(0, "STATE"):        uint64(9),        // different family
		core.RegI(2, logReg, 3):     cmd(1, 1),        // a bare Command, not a Batch
		core.RegI(3, logReg, 6):     Batch{cmd(0, 1)}, // wrong stripe owner (6%4 = 2)
		core.RegIJ(1, logReg, 1, 1): Batch{cmd(0, 2)}, // sub-indexed, not a slot
		core.RegI(0, logReg+"X", 0): Batch{cmd(0, 3)}, // prefixed family
	}
	got := RecoveredLog(regs, n)
	want := map[int]Batch{0: {cmd(1, 0), cmd(3, 0)}, 1: {cmd(2, 0)}, 5: {cmd(2, 1), cmd(2, 1)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RecoveredLog = %v, want %v", got, want)
	}
}

// With memory that dies with its process (the crash-stop ablation), a
// replica reading the dead process's slots gets ErrMemoryFailed, and the
// replica unwinds with it: the log has no mode that swallows a memory
// fault, because on the crash-recovery runtime a remote register op waits
// for its owner rather than failing.
func TestMemoryFailureEndsReplica(t *testing.T) {
	r, err := sim.New(sim.Config{
		RunConfig:            sim.RunConfig{GSM: graph.Complete(4), Seed: 5},
		Scheduler:            sched.NewRandom(13),
		MaxSteps:             400_000,
		Crashes:              []sim.Crash{{Proc: 0, AtStep: 10_000}},
		MemoryFailsWithCrash: true,
	}, New(Config{CommandsPerProcess: 2}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	died := 0
	for p, e := range res.Errors {
		if p == 0 {
			continue
		}
		if errors.Is(e, core.ErrMemoryFailed) {
			died++
		}
	}
	if died == 0 {
		t.Fatalf("no survivor died of ErrMemoryFailed; errors = %v", res.Errors)
	}
}
