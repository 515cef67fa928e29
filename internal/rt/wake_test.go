package rt

import (
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
)

// idleAlg yields forever; each process closes its exited channel when its
// body unwinds, so a test can time the unwind.
func idleAlg(exited []chan struct{}) core.Algorithm {
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			defer close(exited[id])
			for {
				env.Yield()
			}
		}
	})
}

// startIdle starts n idle processes and waits until each has parked at
// least once.
func startIdle(t *testing.T, n int) (*Group, []chan struct{}) {
	t.Helper()
	exited := make([]chan struct{}, n)
	for i := range exited {
		exited[i] = make(chan struct{})
	}
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(n)}}, idleAlg(exited))
	h.Start()
	deadline := time.Now().Add(5 * time.Second)
	for p := 0; p < n; p++ {
		for h.Counters().Of(core.ProcID(p), metrics.Steps) < 2 {
			if !time.Now().Before(deadline) {
				t.Fatalf("process %d never stepped", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return h, exited
}

// TestWakeIdleProcessStepsAtTickRate pins the step rate the §5 timers
// rely on: with nothing to wake it, a process in a Yield loop takes about
// one step per yieldTick — neither spinning nor stalled.
func TestWakeIdleProcessStepsAtTickRate(t *testing.T) {
	h, _ := startIdle(t, 1)
	before := h.Counters().Of(0, metrics.Steps)
	time.Sleep(200 * time.Millisecond)
	steps := h.Counters().Of(0, metrics.Steps) - before
	if steps < 100 || steps > 400 {
		t.Fatalf("idle process took %d steps in 200ms, want 100..400 (one per %v)", steps, yieldTick)
	}
}

// TestWakeStopUnwindsParkedYield checks Stop reaches a process parked in
// Yield directly rather than at its next tick.
func TestWakeStopUnwindsParkedYield(t *testing.T) {
	h, exited := startIdle(t, 1)
	start := time.Now()
	h.Stop()
	<-exited[0]
	if d := time.Since(start); d > 5*time.Millisecond {
		t.Fatalf("Stop took %v to unwind a parked process, want < 5ms", d)
	}
}

// TestWakeCrashUnwindsParkedYield is the same for Crash, which leaves the
// rest of the group running.
func TestWakeCrashUnwindsParkedYield(t *testing.T) {
	h, exited := startIdle(t, 2)
	start := time.Now()
	h.Crash(0)
	select {
	case <-exited[0]:
	case <-time.After(time.Second):
		t.Fatal("crashed process did not unwind")
	}
	if d := time.Since(start); d > 5*time.Millisecond {
		t.Fatalf("Crash took %v to unwind a parked process, want < 5ms", d)
	}
	select {
	case <-exited[1]:
		t.Fatal("crashing p0 unwound p1")
	default:
	}
}

// TestWakeRegisterWritesSignalParked checks the register half of the
// wake-up: a local write, a successful CAS and their RPC-served forms hand
// every hosted process a token while some process is parked, and cost
// nothing otherwise.
func TestWakeRegisterWritesSignalParked(t *testing.T) {
	// Never started: the test plays both the parked process and the writer.
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}, noop)
	defer h.Stop()
	ref := core.Reg(0, "X")
	// tokens takes every pending wake-up token and counts them.
	tokens := func() int {
		n := 0
		for _, ps := range h.procs {
			select {
			case <-ps.wake:
				n++
			default:
			}
		}
		return n
	}
	for _, tc := range []struct {
		name string
		op   func(v int) error
	}{
		{"write", func(v int) error { return h.writeReg(0, ref, v, nil) }},
		{"cas", func(v int) error {
			swapped, _, err := h.casReg(0, ref, v-1, v, nil)
			if err == nil && !swapped {
				t.Fatalf("CAS %d→%d did not swap", v-1, v)
			}
			return err
		}},
		{"served-write", func(v int) error {
			_, err := h.serveMem(1, memWriteReq{Ref: ref, Val: v})
			return err
		}},
		{"served-cas", func(v int) error {
			_, err := h.serveMem(1, memCASReq{Ref: ref, Expected: v - 1, Desired: v})
			return err
		}},
	} {
		v, _ := h.mem.Read(0, ref)
		next, _ := v.(int)
		next++
		if err := tc.op(next); err != nil {
			t.Fatalf("%s with nobody parked: %v", tc.name, err)
		}
		if n := tokens(); n != 0 {
			t.Fatalf("%s with nobody parked left %d tokens", tc.name, n)
		}
		h.parked.Add(1)
		if err := tc.op(next + 1); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h.parked.Add(-1)
		if n := tokens(); n != len(h.procs) {
			t.Fatalf("%s woke %d of %d processes", tc.name, n, len(h.procs))
		}
	}
}
