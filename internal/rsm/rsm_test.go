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

// allDoneAndConverged fires when every correct replica committed its own
// commands and all correct replicas applied the same prefix length.
func allDoneAndConverged(r *sim.Runner) bool {
	return doneAndConvergedFrom(r, 0)
}

// doneAndConvergedFrom is allDoneAndConverged over replicas from..n-1.
func doneAndConvergedFrom(r *sim.Runner, from int) bool {
	first := -1
	for p := from; p < r.N(); p++ {
		id := core.ProcID(p)
		if r.Crashed(id) {
			continue
		}
		if r.Exposed(id, DoneKey) != true {
			return false
		}
		applied, ok := r.Exposed(id, AppliedKey).(int)
		if !ok {
			return false
		}
		if first == -1 {
			first = applied
		} else if applied != first {
			return false
		}
	}
	return first > 0
}

func checkReplicaHashesEqual(t *testing.T, r *sim.Runner) {
	t.Helper()
	var hash *uint64
	for p := 0; p < r.N(); p++ {
		id := core.ProcID(p)
		if r.Crashed(id) {
			continue
		}
		h, ok := r.Exposed(id, HashKey).(uint64)
		if !ok {
			t.Fatalf("replica %v has no hash", id)
		}
		if hash == nil {
			hash = &h
		} else if *hash != h {
			t.Fatalf("replica state divergence: %x vs %x", *hash, h)
		}
	}
}

func TestReplicationConverges(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r, err := sim.New(sim.Config{
			RunConfig: sim.RunConfig{GSM: graph.Complete(4), Seed: seed},
			Scheduler: sched.NewRandom(seed*3 + 1),
			MaxSteps:  4_000_000,
			StopWhen:  allDoneAndConverged,
		}, New(Config{CommandsPerProcess: 3}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		for p, e := range res.Errors {
			t.Fatalf("seed %d: replica %v: %v", seed, p, e)
		}
		if !res.Stopped {
			t.Fatalf("seed %d: replication did not converge: %+v", seed, res)
		}
		checkReplicaHashesEqual(t, r)
		// Every committed slot holds a well-formed batch, the log holds
		// all 12 distinct commands, and each was applied exactly once
		// however many times it was logged.
		seen := make(map[Command]bool)
		slots := 0
		for ; ; slots++ {
			raw, ok := r.Memory().Peek(SlotRef(slots, 4))
			if !ok {
				break
			}
			for _, cmd := range raw.(Batch) {
				seen[cmd] = true
			}
		}
		if len(seen) != 12 {
			t.Errorf("seed %d: %d distinct commands committed, want 12", seed, len(seen))
		}
		if applied := r.Exposed(0, AppliedKey).(int); applied != 12 {
			t.Errorf("seed %d: applied %d commands from %d slots, want 12", seed, applied, slots)
		}
	}
}

// leaderCrashStep dry-runs the configuration mk builds, which must plan
// no crash, and returns a step at which p0 leads (it exposes itself as
// its leader) while the log is unfinished for replicas 1..n-1: the middle
// one of all such steps. The sim is deterministic up to a crash, so a run
// of the same configuration that crashes p0 at that step crashes a
// running sequencer mid-log.
func leaderCrashStep(t *testing.T, mk func() sim.Config, alg core.Algorithm) uint64 {
	t.Helper()
	cfg := mk()
	var steps []uint64
	stop := cfg.StopWhen
	cfg.StopWhen = func(r *sim.Runner) bool {
		if r.Exposed(0, LeaderKey) == core.ProcID(0) && !doneAndConvergedFrom(r, 1) {
			steps = append(steps, r.GlobalStep())
		}
		return stop(r)
	}
	r, err := sim.New(cfg, alg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := r.Run(); err != nil || !res.Stopped {
		t.Fatalf("crash-free dry run: err=%v, stopped=%v", err, res.Stopped)
	}
	if len(steps) == 0 {
		t.Fatal("crash-free dry run: p0 never led while the log was unfinished")
	}
	return steps[len(steps)/2]
}

func TestReplicationSurvivesLeaderCrash(t *testing.T) {
	// Crash the initial leader mid-run, at a step a dry run of the same
	// seed shows p0 leading an unfinished log: the remaining replicas must
	// still commit all their commands.
	mk := func() sim.Config {
		return sim.Config{
			RunConfig: sim.RunConfig{GSM: graph.Complete(5), Seed: 3},
			Scheduler: sched.NewRandom(7),
			MaxSteps:  8_000_000,
			StopWhen:  allDoneAndConverged,
		}
	}
	alg := New(Config{CommandsPerProcess: 2})
	crashAt := leaderCrashStep(t, mk, alg)
	cfg := mk()
	cfg.Crashes = []sim.Crash{{Proc: 0, AtStep: crashAt}}
	r, err := sim.New(cfg, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for p, e := range res.Errors {
		t.Fatalf("replica %v: %v", p, e)
	}
	if !res.Stopped || !r.Crashed(0) {
		t.Fatalf("replication did not converge after a leader crash at step %d (p0 crashed: %v): %+v",
			crashAt, r.Crashed(0), res)
	}
	checkReplicaHashesEqual(t, r)
}

func TestReplicationOverFairLossyLinks(t *testing.T) {
	r, err := sim.New(sim.Config{
		RunConfig: sim.RunConfig{GSM: graph.Complete(4), Seed: 9, Links: msgnet.FairLossy, Drop: msgnet.NewRandomDrop(0.3, 5)},
		Scheduler: sched.NewRandom(11),
		MaxSteps:  8_000_000,
		StopWhen:  allDoneAndConverged,
	}, New(Config{
		CommandsPerProcess: 2,
		Leader:             leader.Config{Notifier: leader.SharedMemoryNotifier},
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for p, e := range res.Errors {
		t.Fatalf("replica %v: %v", p, e)
	}
	if !res.Stopped {
		t.Fatalf("replication did not converge over fair-lossy links: %+v", res)
	}
	checkReplicaHashesEqual(t, r)
}

func TestSlotStriping(t *testing.T) {
	if SlotRef(0, 4).Owner != 0 || SlotRef(5, 4).Owner != 1 || SlotRef(7, 4).Owner != 3 {
		t.Error("slots not striped round-robin across owners")
	}
	if SlotRef(3, 4).I != 3 {
		t.Error("slot index not preserved")
	}
}

func TestCommandString(t *testing.T) {
	c := Command{Proposer: 2, Seq: 5, Op: "x"}
	if got, want := c.String(), "p2/5:x"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func BenchmarkReplicationConverge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := sim.New(sim.Config{
			RunConfig: sim.RunConfig{GSM: graph.Complete(4), Seed: int64(i)},
			MaxSteps:  8_000_000,
			StopWhen:  allDoneAndConverged,
		}, New(Config{CommandsPerProcess: 2}))
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run()
		if err != nil || !res.Stopped {
			b.Fatalf("err=%v stopped=%v", err, res.Stopped)
		}
	}
}

// The hash chain is what replicas, the kill -9 recovery check and recorded
// runs compare, so its value over a fixed log must never move.
func TestChainValuePinned(t *testing.T) {
	log := []Command{
		{Proposer: 0, Seq: 0, Op: "op-p0-0"},
		{Proposer: 2, Seq: 7, Op: "put k v"},
		{Proposer: 11, Seq: 1234, Op: ""},
	}
	h := fnv1aInit
	for _, c := range log {
		h = chain(h, c)
	}
	if want := uint64(0x32ed9e2f6b42f915); h != want {
		t.Errorf("chain over the fixed log = %#x, want %#x", h, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { h = chain(h, log[1]) }); allocs != 0 {
		t.Errorf("chain allocates %v times per call, want 0", allocs)
	}
}
