package rsm

import "github.com/mnm-model/mnm/internal/core"

// RecoveredLog extracts the committed log slots held in a recovered
// register map (durable.Registers.Recovered() shape): slot number to
// batch, for every register of the LOG family that is placed on its
// striping owner and holds a Batch. Because the log lives in registers
// and slots are written exactly once, register durability is log
// durability — this is the assertion hook for recovery tests and the
// restart walkthrough, not something replicas need (they re-read the log
// from shared memory as usual).
func RecoveredLog(regs map[core.Ref]core.Value, n int) map[int]Batch {
	out := make(map[int]Batch)
	for ref, v := range regs {
		if ref.Name != logReg || ref.J != 0 || ref != SlotRef(ref.I, n) {
			continue
		}
		if b, ok := v.(Batch); ok {
			out[ref.I] = b
		}
	}
	return out
}
