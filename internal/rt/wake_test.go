package rt

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
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
		{"write", func(v int) error {
			_, err := h.regOp(0, memOp{Kind: opWrite, Ref: ref, Val: v}, nil)
			return err
		}},
		{"cas", func(v int) error {
			r, err := h.regOp(0, memOp{Kind: opCAS, Ref: ref, Expected: v - 1, Val: v}, nil)
			if err == nil && !r.Swapped {
				t.Fatalf("CAS %d→%d did not swap", v-1, v)
			}
			return err
		}},
		{"served-write", func(v int) error {
			_, err := h.serveMem(1, memOp{Kind: opWrite, Ref: ref, Val: v})
			return err
		}},
		{"served-cas", func(v int) error {
			_, err := h.serveMem(1, memOp{Kind: opCAS, Ref: ref, Expected: v - 1, Val: v})
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

// wakeRecorder stands in for a group's RPC plane: it records the
// processes Wake is called for and serves no call.
type wakeRecorder struct {
	transport.SpanRPC
	mu    sync.Mutex
	woken []core.ProcID
}

func (w *wakeRecorder) Wake(to core.ProcID) {
	w.mu.Lock()
	w.woken = append(w.woken, to)
	w.mu.Unlock()
}

// take returns and forgets the recorded wakes.
func (w *wakeRecorder) take() []core.ProcID {
	w.mu.Lock()
	defer w.mu.Unlock()
	woken := w.woken
	w.woken = nil
	return woken
}

// TestWakeWatchersOnFirstWrite checks the owner's half of a remote
// reader's wake-up: a served read that finds a register empty watches it
// for the reader, and each of the four write forms — local write, local
// CAS, served write, served CAS — then wakes the reader at its node
// exactly once, metered as RemoteWakes. A second write sends nothing,
// the writer is never woken even when it watched too, a CAS that does
// not swap wakes nobody, and a read that finds a value watches nothing.
func TestWakeWatchersOnFirstWrite(t *testing.T) {
	// Never started: the test plays the remote reader and the writers.
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(3)}}, noop)
	defer h.Stop()
	rec := &wakeRecorder{}
	h.rpc = rec
	const reader, writer core.ProcID = 2, 1
	read := func(p core.ProcID, ref core.Ref) core.Value {
		t.Helper()
		resp, err := h.serveMem(p, memOp{Kind: opRead, Ref: ref})
		if err != nil {
			t.Fatalf("served read of %v by %v: %v", ref, p, err)
		}
		return resp.(memResult).Val
	}
	for i, tc := range []struct {
		name string
		op   func(ref core.Ref, v int) error
	}{
		{"write", func(ref core.Ref, v int) error {
			_, err := h.regOp(writer, memOp{Kind: opWrite, Ref: ref, Val: v}, nil)
			return err
		}},
		{"cas", func(ref core.Ref, v int) error {
			_, err := h.regOp(writer, memOp{Kind: opCAS, Ref: ref, Val: v}, nil)
			return err
		}},
		{"served-write", func(ref core.Ref, v int) error {
			_, err := h.serveMem(writer, memOp{Kind: opWrite, Ref: ref, Val: v})
			return err
		}},
		{"served-cas", func(ref core.Ref, v int) error {
			_, err := h.serveMem(writer, memOp{Kind: opCAS, Ref: ref, Expected: nil, Val: v})
			return err
		}},
	} {
		ref := core.RegI(0, "slot", i)
		if v := read(reader, ref); v != nil {
			t.Fatalf("%s: fresh register read %v", tc.name, v)
		}
		read(reader, ref) // a repeated poll watches once
		read(writer, ref)
		if _, err := h.serveMem(writer, memOp{Kind: opCAS, Ref: ref, Expected: -1, Val: -2}); err != nil {
			t.Fatalf("%s: failing CAS: %v", tc.name, err)
		}
		if woken := rec.take(); len(woken) != 0 {
			t.Fatalf("%s: a CAS that did not swap woke %v", tc.name, woken)
		}
		before := h.Counters().Of(reader, metrics.RemoteWakes)
		if err := tc.op(ref, 1); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if woken := rec.take(); !slices.Equal(woken, []core.ProcID{reader}) {
			t.Fatalf("%s: first write woke %v, want [%v] once and never the writer", tc.name, woken, reader)
		}
		if d := h.Counters().Of(reader, metrics.RemoteWakes) - before; d != 1 {
			t.Fatalf("%s: RemoteWakes rose by %d, want 1", tc.name, d)
		}
		if _, err := h.regOp(writer, memOp{Kind: opWrite, Ref: ref, Val: 2}, nil); err != nil {
			t.Fatal(err)
		}
		if woken := rec.take(); len(woken) != 0 {
			t.Fatalf("%s: second write woke %v", tc.name, woken)
		}
		if v := read(reader, ref); v != 2 {
			t.Fatalf("%s: read %v after the writes, want 2", tc.name, v)
		}
		if n := h.watch.n.Load(); n != 0 {
			t.Fatalf("%s: %d watches left after a read that found a value", tc.name, n)
		}
	}
}

// TestWakeWatchRacesWrite races a served read of an empty register
// against its first write: a read that answers nil must leave its reader
// woken exactly once, whichever of the two goes first; a read that
// answers the value may draw at most one stray wake.
func TestWakeWatchRacesWrite(t *testing.T) {
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}, noop)
	defer h.Stop()
	rec := &wakeRecorder{}
	h.rpc = rec
	for i := 0; i < 2000; i++ {
		ref := core.RegI(0, "race", i)
		var wg sync.WaitGroup
		var got core.Value
		wg.Add(2)
		go func() {
			defer wg.Done()
			resp, err := h.serveMem(1, memOp{Kind: opRead, Ref: ref})
			if err == nil {
				got = resp.(memResult).Val
			}
		}()
		go func() {
			defer wg.Done()
			h.regOp(0, memOp{Kind: opWrite, Ref: ref, Val: i}, nil)
		}()
		wg.Wait()
		switch woken := len(rec.take()); {
		case got == nil && woken != 1:
			t.Fatalf("round %d: the read answered nil and the write woke the reader %d times, want 1", i, woken)
		case woken > 1:
			t.Fatalf("round %d: the reader was woken %d times", i, woken)
		}
	}
	if n := h.watch.n.Load(); n != 0 {
		t.Fatalf("%d watches left after every register was written", n)
	}
}
