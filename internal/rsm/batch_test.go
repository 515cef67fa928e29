package rsm

import (
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/sim"
)

// idEnv is the slice of core.Env that applyNext uses.
type idEnv struct {
	core.Env
	id core.ProcID
}

func (e idEnv) ID() core.ProcID    { return e.id }
func (e idEnv) LocalSteps() uint64 { return 0 }

// newTestReplica returns the state of replica id of n, with k own commands,
// before it applied anything.
func newTestReplica(id core.ProcID, n, k int) *replica {
	r := &replica{
		chainHash: fnv1aInit,
		applied:   newAppliedSet(n, k),
	}
	for s := 0; s < k; s++ {
		r.ownCommands = append(r.ownCommands, Command{Proposer: id, Seq: s, Op: "own"})
	}
	return r
}

// A command repeated within a batch or across batches is applied once, at
// its first occurrence: the hash is the chain over first occurrences in
// log order, and the applied count is the number of distinct commands.
func TestApplyBatchesExactlyOnce(t *testing.T) {
	r := newTestReplica(0, 3, 2)
	own0, own1 := r.ownCommands[0], r.ownCommands[1]
	b := Command{Proposer: 1, Seq: 0, Op: "b"}
	c := Command{Proposer: 2, Seq: 3, Op: "c"}
	log := []Batch{{own1, b, own1}, {b, c}, {c}, {own0, own1, c, own0}}
	env := idEnv{id: 0}
	for _, batch := range log {
		if err := r.applyNext(env, batch); err != nil {
			t.Fatal(err)
		}
	}
	want := fnv1aInit
	for _, cmd := range []Command{own1, b, c, own0} {
		want = chain(want, cmd)
	}
	if r.chainHash != want {
		t.Errorf("hash = %#x, want %#x (the chain over first occurrences)", r.chainHash, want)
	}
	if r.applied.n != 4 || r.slot != len(log) {
		t.Errorf("applied %d distinct commands from %d slots, want 4 from %d", r.applied.n, r.slot, len(log))
	}
	if r.ownNext != 2 {
		t.Errorf("ownNext = %d after both own commands committed, want 2", r.ownNext)
	}
	if err := r.applyNext(env, b); err == nil {
		t.Error("a slot holding a bare Command applied without error")
	}
}

// pickBatch sequences forwarded commands oldest first, then uncommitted
// own ones, skips applied ones and stops at maxBatch.
func TestPickBatch(t *testing.T) {
	r := newTestReplica(0, 2, 3)
	if got := r.pickBatch(); len(got) != 3 || got[0] != r.ownCommands[0] {
		t.Fatalf("own-only batch = %v, want the 3 own commands", got)
	}
	for s := 0; s < maxBatch+10; s++ {
		r.pending = append(r.pending, Command{Proposer: 1, Seq: s})
	}
	r.applied.add(r.pending[0])
	r.applied.add(r.ownCommands[1])
	got := r.pickBatch()
	if len(got) != maxBatch || got[0].Seq != 1 || got[maxBatch-1].Seq != maxBatch {
		t.Fatalf("batch of %d starting %v, want %d forwarded commands from seq 1", len(got), got[0], maxBatch)
	}
	r.pending = r.pending[:3]
	r.applied.add(r.pending[1])
	want := Batch{r.pending[0], r.pending[2], r.ownCommands[0], r.ownCommands[2]}
	got = r.pickBatch()
	if len(got) != len(want) {
		t.Fatalf("batch = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch = %v, want %v", got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.pickBatch() }); allocs != 1 {
		t.Errorf("pickBatch allocates %v times per call, want 1 (the batch)", allocs)
	}
}

// A reliable, crash-free run commits each leader's whole backlog in a few
// CASes: 128 commands fill at most 8 slots, none over maxBatch.
func TestBatchingFillsFewSlots(t *testing.T) {
	const n, k = 4, 32
	for seed := int64(0); seed < 4; seed++ {
		r, err := sim.New(sim.Config{
			RunConfig: sim.RunConfig{GSM: graph.Complete(n), Seed: seed},
			Scheduler: sched.NewRandom(seed*11 + 5),
			MaxSteps:  4_000_000,
			StopWhen:  allDoneAndConverged,
		}, New(Config{CommandsPerProcess: k}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil || !res.Stopped {
			t.Fatalf("seed %d: err=%v, stopped=%v", seed, err, res.Stopped)
		}
		checkReplicaHashesEqual(t, r)
		slots := 0
		for ; ; slots++ {
			raw, ok := r.Memory().Peek(SlotRef(slots, n))
			if !ok {
				break
			}
			if l := len(raw.(Batch)); l > maxBatch {
				t.Errorf("seed %d: slot %d holds %d commands, want <= %d", seed, slots, l, maxBatch)
			}
		}
		if slots > 8 {
			t.Errorf("seed %d: %d commands filled %d slots, want <= 8", seed, n*k, slots)
		}
		if got := r.Exposed(0, AppliedKey); got != n*k || distinctLogged(r) != n*k {
			t.Errorf("seed %d: applied %v, logged %d distinct commands, want %d", seed, got, distinctLogged(r), n*k)
		}
		t.Logf("seed %d: %d slots in %d steps", seed, slots, res.Steps)
	}
}
