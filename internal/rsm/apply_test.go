package rsm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/leader"
)

// mapModel is the reference for a replica's apply path: the applied set as
// a map[Command]bool, and own commits read back from it.
type mapModel struct {
	n         int
	applied   map[Command]bool
	chainHash uint64
	own       []Command
	ownNext   int
	pending   []Command
}

func (m *mapModel) valid(cmd Command) bool {
	return cmd.Proposer >= 0 && int(cmd.Proposer) < m.n && cmd.Seq >= 0
}

func (m *mapModel) consume(cmds []Command) {
	for _, cmd := range cmds {
		if m.valid(cmd) && !m.applied[cmd] {
			m.pending = append(m.pending, cmd)
		}
	}
}

func (m *mapModel) apply(batch Batch) {
	for _, cmd := range batch {
		if m.applied[cmd] {
			continue
		}
		m.applied[cmd] = true
		m.chainHash = chain(m.chainHash, cmd)
		for m.ownNext < len(m.own) && m.applied[m.own[m.ownNext]] {
			m.ownNext++
		}
	}
}

func (m *mapModel) pickBatch() Batch {
	m.pending = slices.DeleteFunc(m.pending, func(cmd Command) bool { return m.applied[cmd] })
	batch := Batch{}
	for _, cmd := range m.pending {
		if len(batch) < maxBatch {
			batch = append(batch, cmd)
		}
	}
	for _, cmd := range m.own[m.ownNext:] {
		if len(batch) < maxBatch && !m.applied[cmd] {
			batch = append(batch, cmd)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	return batch
}

// modelCommand returns command (p, s) in the form replicas submit it: Op
// is a function of (Proposer, Seq), as Command's uniqueness promises.
func modelCommand(p, s int) Command {
	return Command{Proposer: core.ProcID(p), Seq: s, Op: fmt.Sprintf("op-p%d-%d", p, s)}
}

// The dense applied set behaves as a map[Command]bool: over seeded random
// slots that repeat commands within and across batches, come from every
// proposer, arrive out of Seq order and reach past CommandsPerProcess, the
// replica and the map model agree on the hash chain, the applied count,
// ownNext and every pickBatch, with forwarded commands (a few of no
// proposer among them) queued in between.
func TestApplyMatchesMapModel(t *testing.T) {
	const n, k = 3, 8
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		me := core.ProcID(seed % n)
		r := newTestReplica(me, n, k)
		r.ownCommands = ownCommands(me, k)
		r.det = &leader.Detector{}
		m := &mapModel{n: n, applied: make(map[Command]bool), chainHash: fnv1aInit, own: r.ownCommands}
		env := idEnv{id: me}
		randomCmds := func(max int) []Command {
			cmds := make([]Command, rng.Intn(max))
			for i := range cmds {
				cmds[i] = modelCommand(rng.Intn(n), rng.Intn(2*k))
			}
			return cmds
		}
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0: // a committed slot from some other leader
				batch := Batch(randomCmds(12))
				if err := r.applyNext(env, batch); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				m.apply(batch)
			case 1: // a forwarded submission
				cmds := randomCmds(6)
				if rng.Intn(4) == 0 {
					cmds = append(cmds, Command{Proposer: n, Seq: 1}, Command{Proposer: 1, Seq: -1})
				}
				r.det.Foreign = append(r.det.Foreign, core.Message{From: 1, Payload: submitMsg{Cmds: cmds}})
				r.consumeForeign()
				m.consume(cmds)
			case 2: // this replica leads and wins the slot with its batch
				got, want := r.pickBatch(), m.pickBatch()
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: pickBatch = %v, the map model picks %v", seed, step, got, want)
				}
				if got != nil {
					if err := r.applyNext(env, got); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					m.apply(want)
				}
			}
			if r.chainHash != m.chainHash || r.applied.n != len(m.applied) || r.ownNext != m.ownNext {
				t.Fatalf("seed %d step %d: hash %#x, applied %d, ownNext %d; the map model has %#x, %d, %d",
					seed, step, r.chainHash, r.applied.n, r.ownNext, m.chainHash, len(m.applied), m.ownNext)
			}
		}
		if !slices.Equal(r.pickBatch(), m.pickBatch()) {
			t.Fatalf("seed %d: final pickBatch differs from the map model's", seed)
		}
	}
}

// Own commands keep the fmt.Sprintf("op-%v-%d", id, seq) form, so hash
// chains, WALs and recovered logs written before ops were built without
// fmt stay valid. The pinned hash also catches a change in chain itself.
func TestOwnOpsLikeSprintf(t *testing.T) {
	if op := ownCommands(0, 1)[0].Op; op != "op-p0-0" {
		t.Errorf("p0's first op = %q, want %q", op, "op-p0-0")
	}
	if op := ownCommands(1, 1)[0].Op; op != "op-p1-0" {
		t.Errorf("p1's first op = %q, want %q", op, "op-p1-0")
	}
	got, want := fnv1aInit, fnv1aInit
	for _, id := range []core.ProcID{0, 1, 12} {
		for s, cmd := range ownCommands(id, 1001) {
			sprintf := Command{Proposer: id, Seq: s, Op: fmt.Sprintf("op-%v-%d", id, s)}
			if cmd != sprintf {
				t.Fatalf("own command %v, want %v", cmd, sprintf)
			}
			got, want = chain(got, cmd), chain(want, sprintf)
		}
	}
	if got != want {
		t.Errorf("chain over own commands = %#x, over the fmt.Sprintf form %#x", got, want)
	}
	const pinned = uint64(0x72199da2a7d7009d)
	if got != pinned {
		t.Errorf("chain over own commands = %#x, pinned %#x", got, pinned)
	}
}

// A slot whose batch holds a command no proposer of the system can have
// issued ends the replica with an error, as a slot holding no Batch does,
// rather than indexing out of the applied set.
func TestApplyRejectsCommandOfNoProposer(t *testing.T) {
	for _, bad := range []Command{
		{Proposer: 3, Seq: 0},
		{Proposer: core.NoProc, Seq: 0},
		{Proposer: -7, Seq: 0},
		{Proposer: 1, Seq: -1},
	} {
		r := newTestReplica(0, 3, 2)
		if err := r.applyNext(idEnv{id: 0}, Batch{{Proposer: 1, Seq: 0}, bad}); err == nil {
			t.Errorf("a slot holding %v applied without error", bad)
		}
	}
}
