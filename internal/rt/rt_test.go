package rt

import (
	"math/rand"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/regcons"
)

// openLocal opens cfg as group 0 on a fresh transport-less node, which is
// closed when the test ends.
func openLocal(tb testing.TB, cfg GroupConfig, alg core.Algorithm) *Group {
	tb.Helper()
	nd, err := NewNode(NodeConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nd.Close() })
	g, err := nd.OpenGroup(0, cfg, alg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// noop is an algorithm whose processes return at once, for tests that
// drive a group's memory or transport themselves.
var noop = core.AlgorithmFunc(func(core.ProcID) core.Process { return func(core.Env) error { return nil } })

func TestHaltingAlgorithmWaits(t *testing.T) {
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if err := env.Write(core.Reg(env.ID(), "done"), true); err != nil {
				return err
			}
			env.Expose("done", true)
			return nil
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(4)}}, alg)
	h.Start()
	errs := h.Wait().Errors
	for p, e := range errs {
		t.Errorf("process %v: %v", p, e)
	}
	for p := core.ProcID(0); p < 4; p++ {
		if h.Exposed(p, "done") != true {
			t.Errorf("process %v did not finish", p)
		}
		if v, ok := h.Memory().Peek(core.Reg(p, "done")); !ok || v != true {
			t.Errorf("register of %v missing", p)
		}
	}
}

// TestRandSeededOnFirstUse checks that a process's random source is
// built only when its body asks for it, and that it then draws the stream
// the per-process seed formula gives.
func TestRandSeededOnFirstUse(t *testing.T) {
	const seed, draws = 42, 4
	got := make([]int64, draws)
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if id == 1 {
				for i := range got {
					got[i] = env.Rand().Int63()
				}
			}
			return nil
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(3), Seed: seed}}, alg)
	h.Start()
	for p, e := range h.Wait().Errors {
		t.Errorf("process %v: %v", p, e)
	}
	for _, p := range []core.ProcID{0, 2} {
		if h.procs[p].rng != nil {
			t.Errorf("process %v never called Rand but has a seeded source", p)
		}
	}
	want := rand.New(rand.NewSource(seed ^ (0x9e3779b9 * int64(1+1))))
	for i, v := range got {
		if w := want.Int63(); v != w {
			t.Errorf("draw %d = %d, want %d", i, v, w)
		}
	}
}

// TestWaitWithoutStartReleasesGate is the regression test for the Wait
// deadlock: calling Wait before Start used to park forever because every
// process goroutine was still blocked on the start gate. Wait must release
// the gate (like Stop) and then block only until the bodies return.
func TestWaitWithoutStartReleasesGate(t *testing.T) {
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			env.Expose("done", true)
			return nil
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(3)}}, alg)
	done := make(chan map[core.ProcID]error, 1)
	go func() { done <- h.Wait().Errors }()
	select {
	case errs := <-done:
		for p, e := range errs {
			t.Errorf("process %v: %v", p, e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait() without Start() deadlocked")
	}
	for p := core.ProcID(0); p < 3; p++ {
		if h.Exposed(p, "done") != true {
			t.Errorf("process %v never ran", p)
		}
	}
}

func TestStopUnwindsInfiniteLoops(t *testing.T) {
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			for {
				env.Yield()
			}
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(8)}}, alg)
	h.Start()
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		h.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not terminate the host")
	}
	if errs := h.Errors(); len(errs) != 0 {
		t.Errorf("stop produced process errors: %v", errs)
	}
}

func TestCrashStopsOneProcess(t *testing.T) {
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			for {
				env.Expose("steps", env.LocalSteps())
				env.Yield()
			}
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}, alg)
	h.Start()
	time.Sleep(10 * time.Millisecond)
	h.Crash(0)
	time.Sleep(10 * time.Millisecond)
	frozen := h.Exposed(0, "steps")
	time.Sleep(10 * time.Millisecond)
	if h.Exposed(0, "steps") != frozen {
		t.Error("crashed process kept stepping")
	}
	h.Stop()
}

func TestPanicContainment(t *testing.T) {
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if env.ID() == 1 {
				panic("bug")
			}
			return nil
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(2)}}, alg)
	h.Start()
	errs := h.Wait().Errors
	if errs[1] == nil {
		t.Error("panic not recorded")
	}
	if errs[0] != nil {
		t.Errorf("healthy process got error: %v", errs[0])
	}
}

func TestBenOrRealtime(t *testing.T) {
	inputs := []benor.Val{benor.V0, benor.V1, benor.V0, benor.V1, benor.V0}
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Edgeless(5), Seed: 3}},
		benor.New(benor.Config{F: 2, Inputs: inputs, HaltAfterDecide: true}))
	h.Start()
	errs := h.Wait().Errors
	for p, e := range errs {
		t.Fatalf("process %v: %v", p, e)
	}
	var agreed *benor.Val
	for p := core.ProcID(0); p < 5; p++ {
		raw := h.Exposed(p, benor.DecisionKey)
		v, ok := raw.(benor.Val)
		if !ok {
			t.Fatalf("process %v did not decide (got %v)", p, raw)
		}
		if agreed == nil {
			agreed = &v
		} else if *agreed != v {
			t.Fatalf("disagreement: %v vs %v", *agreed, v)
		}
	}
}

func TestHBORealtime(t *testing.T) {
	inputs := []benor.Val{benor.V1, benor.V0, benor.V1, benor.V0, benor.V1}
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Cycle(5), Seed: 8}},
		hbo.New(hbo.Config{Inputs: inputs, HaltAfterDecide: true}))
	h.Start()
	errs := h.Wait().Errors
	for p, e := range errs {
		t.Fatalf("process %v: %v", p, e)
	}
	var agreed *benor.Val
	for p := core.ProcID(0); p < 5; p++ {
		v, ok := h.Exposed(p, hbo.DecisionKey).(benor.Val)
		if !ok {
			t.Fatalf("process %v did not decide", p)
		}
		if agreed == nil {
			agreed = &v
		} else if *agreed != v {
			t.Fatalf("disagreement: %v vs %v", *agreed, v)
		}
	}
}

func TestLeaderElectionRealtime(t *testing.T) {
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(4), Seed: 5}},
		leader.New(leader.Config{Notifier: SharedKind()}))
	h.Start()
	defer h.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if l, ok := commonLeader(h, 4); ok {
			// Require it to stay stable for a moment.
			time.Sleep(50 * time.Millisecond)
			if l2, ok2 := commonLeader(h, 4); ok2 && l2 == l {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no stable leader within 10s of wall clock")
}

// SharedKind avoids importing the leader constant twice in the test body.
func SharedKind() leader.NotifierKind { return leader.SharedMemoryNotifier }

func commonLeader(h *Group, n int) (core.ProcID, bool) {
	common := core.NoProc
	for p := core.ProcID(0); int(p) < n; p++ {
		l, ok := h.Exposed(p, leader.LeaderKey).(core.ProcID)
		if !ok {
			return core.NoProc, false
		}
		if common == core.NoProc {
			common = l
		} else if common != l {
			return core.NoProc, false
		}
	}
	return common, common != core.NoProc
}

func TestConsensusObjectsRealtime(t *testing.T) {
	// True concurrency hammering one racing object: agreement must hold.
	obj, err := regcons.NewRacing(core.Reg(0, "obj"), benor.Domain())
	if err != nil {
		t.Fatal(err)
	}
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			v, err := obj.Propose(env, benor.Val(int(env.ID())%2))
			if err != nil {
				return err
			}
			env.Expose("out", v)
			return nil
		}
	})
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(8), Seed: 2}}, alg)
	h.Start()
	errs := h.Wait().Errors
	for p, e := range errs {
		t.Fatalf("process %v: %v", p, e)
	}
	var agreed core.Value
	for p := core.ProcID(0); p < 8; p++ {
		v := h.Exposed(p, "out")
		if v == nil {
			t.Fatalf("process %v got no value", p)
		}
		if agreed == nil {
			agreed = v
		} else if agreed != v {
			t.Fatalf("disagreement: %v vs %v", agreed, v)
		}
	}
}

func BenchmarkRTRegisterWrite(b *testing.B) {
	done := make(chan error, 1)
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			var err error
			for i := 0; i < b.N; i++ {
				if err = env.Write(core.Reg(0, "hot"), i); err != nil {
					break
				}
			}
			done <- err
			return err
		}
	})
	h := openLocal(b, GroupConfig{RunConfig: RunConfig{GSM: graph.Complete(1)}}, alg)
	b.ReportAllocs()
	b.ResetTimer()
	h.Start()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	h.Stop()
}
