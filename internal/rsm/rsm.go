// Package rsm is a replicated state machine built on the m&m model — the
// kind of downstream system the paper's algorithms exist to serve (leader
// election "is used in several well-known consensus algorithms, such as
// Paxos, Raft, and CT", §5; RDMA shared logs such as DARE/APUS/Mu are the
// systems the model abstracts).
//
// Design:
//
//   - The log lives in shared memory: slot s is a register placed at
//     process s mod n, written exactly once through compare-and-swap. A
//     slot is *committed* when non-nil, and its value is a Batch: the
//     commands one leader sequenced into it, in order. A write-once CAS
//     register is a consensus object on any value: the first append wins,
//     and every process that touches the slot learns the same batch.
//   - Commit path. An Ω detector (the paper's Figure-3 algorithm,
//     embedded in steppable Detector form) selects a sequencer. The
//     leader walks the log at its apply cursor; holding work, it CASes
//     nil → every pending command it holds (forwarded ones oldest first,
//     then its own uncommitted ones, at most maxBatch) into that slot
//     directly. The CAS's outcome is the slot's decided value — the
//     leader's batch if it won, the occupant if it lost, in which case its
//     commands stay pending for the next slot — and the leader applies it
//     at once, so a batch costs one CAS: no read before it, no read back
//     after it. Followers read the slots in order and park when nothing
//     new is committed; the leader's CAS on the slot a follower found
//     empty wakes it, through the slot owner's wake-up when the owner is
//     on another node.
//   - Forwarding. A client sends its uncommitted commands to a leader, in
//     one message, the first time it sees that leader, and not again: a
//     replica's pending queue lives as long as the replica, so a leader
//     flapping away and back costs no message. When no own command
//     commits for a backoff (Config.ResendInterval steps, doubling up to
//     a cap, reset by each own commit), the client re-sends only its
//     oldest uncommitted command. That resend keeps the log live over
//     fair-lossy links and past a leader restarted without its queue.
//   - The log is at-least-once — a command forwarded to two leaders, or
//     re-sent after a stall, can appear in two slots or twice in one
//     batch — but apply is exactly-once per command: every replica
//     applies committed batches in slot order, one command at a time,
//     skips any command it already applied, and keeps a hash chain over
//     what it applied. Equal applied counts imply equal hashes on every
//     replica. A command's identity is (Proposer, Seq), and Op is not part
//     of it: the applied set is dense, one row per proposer indexed by
//     Seq, so a membership test hashes nothing. A slot holding a command
//     no proposer of the system can have issued (Proposer outside [0, n)
//     or a negative Seq) is an error, like a slot holding no Batch.
//   - Faults. A register or link error ends the replica. The registers do
//     not fail (§3): over rt a remote op waits for its owner, across a
//     restart, until the replica's own group stops.
package rsm

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/leader"
)

// logReg is the register family of log slots.
const logReg = "LOG"

// Expose keys published by replicas.
const (
	// AppliedKey carries the number of distinct commands applied (int).
	AppliedKey = "applied"
	// HashKey carries the hash-chain value over the applied prefix
	// (uint64).
	HashKey = "hash"
	// DoneKey is true once all of the replica's own commands committed.
	DoneKey = "done"
	// LeaderKey mirrors the embedded detector's leader output.
	LeaderKey = "rsm-leader"
)

// Command is one client command. Commands are comparable (CAS-able) and
// globally unique through (Proposer, Seq). Replicas rely on that
// uniqueness: they track applied commands by (Proposer, Seq) alone, so two
// commands that share it but differ in Op count as one, and only the first
// applied is hashed.
type Command struct {
	// Proposer is the client that issued the command.
	Proposer core.ProcID
	// Seq is the per-proposer sequence number, starting at 0.
	Seq int
	// Op is the state-machine operation.
	Op string
}

// String implements fmt.Stringer.
func (c Command) String() string {
	return fmt.Sprintf("%v/%d:%s", c.Proposer, c.Seq, c.Op)
}

// Batch is the value of one committed log slot: the commands its leader
// sequenced into it, in order. A batch may repeat a command that an
// earlier slot or an earlier position in it holds; apply skips the repeat.
type Batch []Command

// maxBatch caps the commands a leader sequences into one slot.
const maxBatch = 256

// submitMsg forwards commands to the sender's current leader.
type submitMsg struct {
	Cmds []Command
}

// Config parameterizes the replicated log.
type Config struct {
	// CommandsPerProcess is how many commands each process submits.
	CommandsPerProcess int
	// ResendInterval is the initial stall backoff: how many local steps a
	// client waits, while another process leads and none of its own
	// commands commits, before re-sending its oldest uncommitted command.
	// Each such resend doubles the wait, up to maxResendBackoff times this
	// value; each own commit resets it. Defaults to 256.
	ResendInterval uint64
	// Leader configures the embedded Ω detector.
	Leader leader.Config
}

// maxResendBackoff caps the stall backoff at this multiple of
// Config.ResendInterval.
const maxResendBackoff = 16

func (c *Config) setDefaults() {
	if c.ResendInterval == 0 {
		c.ResendInterval = 256
	}
}

// ownCommands returns the k commands process id submits. Op of command s
// is "op-<id>-<s>", the fmt.Sprintf("op-%v-%d", id, s) form, built without
// fmt.
func ownCommands(id core.ProcID, k int) []Command {
	cmds := make([]Command, k)
	buf := []byte("op-" + id.String() + "-")
	prefix := len(buf)
	for s := range cmds {
		buf = strconv.AppendInt(buf[:prefix], int64(s), 10)
		cmds[s] = Command{Proposer: id, Seq: s, Op: string(buf)}
	}
	return cmds
}

// appliedSet is the set of distinct commands a replica applied, keyed by
// (Proposer, Seq): seqs[p][s] marks command (p, s). Each row starts at
// CommandsPerProcess entries and grows only for a larger Seq.
type appliedSet struct {
	seqs [][]bool
	n    int // commands in the set
}

func newAppliedSet(n, k int) appliedSet {
	seqs := make([][]bool, n)
	for p := range seqs {
		seqs[p] = make([]bool, k)
	}
	return appliedSet{seqs: seqs}
}

// valid reports whether cmd's proposer is a process of the system and its
// Seq is non-negative: whether the set can hold it.
func (a *appliedSet) valid(cmd Command) bool {
	return cmd.Proposer >= 0 && int(cmd.Proposer) < len(a.seqs) && cmd.Seq >= 0
}

// has reports whether the valid command cmd is in the set.
func (a *appliedSet) has(cmd Command) bool {
	row := a.seqs[cmd.Proposer]
	return cmd.Seq < len(row) && row[cmd.Seq]
}

// add inserts the valid command cmd and reports whether it was absent.
func (a *appliedSet) add(cmd Command) bool {
	row := a.seqs[cmd.Proposer]
	if cmd.Seq >= len(row) {
		row = append(row, make([]bool, cmd.Seq+1-len(row))...)
		a.seqs[cmd.Proposer] = row
	}
	if row[cmd.Seq] {
		return false
	}
	row[cmd.Seq] = true
	a.n++
	return true
}

// SlotRef returns the register holding log slot s in an n-process system.
// Slots are striped across processes so no single host owns the log.
func SlotRef(s, n int) core.Ref {
	return core.RegI(core.ProcID(s%n), logReg, s)
}

// New returns the replicated-log algorithm. The shared-memory graph must
// be complete (the log is striped across all hosts and the embedded
// Figure-3 detector requires it).
func New(cfg Config) core.Algorithm {
	cfg.setDefaults()
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			return run(env, cfg)
		}
	})
}

// replica is the per-process state.
type replica struct {
	cfg Config
	det *leader.Detector

	slot      int        // next log slot to apply
	applied   appliedSet // the distinct commands applied so far
	chainHash uint64

	ownCommands []Command
	ownNext     int // lowest own seq not yet committed

	// pending queues forwarded commands, in arrival order, for this
	// replica to sequence while leader. Only applied entries ever leave
	// (pickBatch drops them), so a leader needs to be sent a command only
	// once.
	pending []Command

	forwarded []bool // forwarded[q]: q was sent every uncommitted own command
	lastSend  uint64 // LocalSteps at the last own commit or send
	backoff   uint64 // stall steps before the next resend
}

func run(env core.Env, cfg Config) error {
	det, err := leader.NewDetector(env, cfg.Leader)
	if err != nil {
		return err
	}
	r := &replica{
		cfg:         cfg,
		det:         det,
		chainHash:   fnv1aInit,
		applied:     newAppliedSet(env.N(), cfg.CommandsPerProcess),
		ownCommands: ownCommands(env.ID(), cfg.CommandsPerProcess),
		forwarded:   make([]bool, env.N()),
		backoff:     cfg.ResendInterval,
	}

	// AppliedKey, HashKey and DoneKey change only when a command applies,
	// so they are exposed on the first iteration, before any park, and
	// afterwards only by an iteration that applied something.
	applied := -1
	for {
		stepsAtTop, slotAtTop := env.LocalSteps(), r.slot
		if err := r.tick(env); err != nil {
			return err
		}
		if r.applied.n != applied {
			applied = r.applied.n
			env.Expose(AppliedKey, applied)
			env.Expose(HashKey, r.chainHash)
			env.Expose(DoneKey, r.ownNext == len(r.ownCommands))
		}
		// Every iteration costs at least one step. A follower that applied
		// nothing parks too, until a delivery, a write in its domain (the
		// leader's CAS on a slot it owns), the first write of the remote
		// slot it found empty, or the host's tick; the leader never parks.
		if env.LocalSteps() == stepsAtTop || (r.det.Leader() != env.ID() && r.slot == slotAtTop) {
			env.Yield()
		}
	}
}

// tick is one iteration of the replica loop. An error from any phase ends
// the replica (see Faults in the package doc).
func (r *replica) tick(env core.Env) error {
	prev := r.det.Leader()
	if err := r.det.Tick(env); err != nil {
		return err
	}
	// The first Tick moves the leader off NoProc, so the key is exposed
	// once before any park.
	if ldr := r.det.Leader(); ldr != prev {
		env.Expose(LeaderKey, ldr)
	}
	r.consumeForeign()
	if err := r.advance(env); err != nil {
		return err
	}
	return r.forward(env)
}

// consumeForeign queues forwarded commands from the detector's foreign
// buffer, minus those already applied (a resend that crossed the commit,
// or a restarted replica's) and those no proposer can have issued.
func (r *replica) consumeForeign() {
	for _, m := range r.det.Foreign {
		sub, ok := m.Payload.(submitMsg)
		if !ok {
			continue
		}
		for _, cmd := range sub.Cmds {
			if r.applied.valid(cmd) && !r.applied.has(cmd) {
				r.pending = append(r.pending, cmd)
			}
		}
	}
	r.det.Foreign = r.det.Foreign[:0]
}

// advance applies committed slots in order, at most a handful per tick so
// the detector stays responsive. A leader holding work CASes a batch of
// it into the next slot instead of reading the slot: the CAS probes the
// slot and, when it is empty, decides it, and either way its outcome is
// the slot's value.
func (r *replica) advance(env core.Env) error {
	const maxPerTick = 4
	leading := r.det.Leader() == env.ID()
	for i := 0; i < maxPerTick; i++ {
		ref := SlotRef(r.slot, env.N())
		var batch Batch
		if leading {
			batch = r.pickBatch()
		}
		var (
			val core.Value
			err error
		)
		if batch != nil {
			var swapped bool
			swapped, val, err = env.CompareAndSwap(ref, nil, batch)
			if swapped {
				val = batch
			}
		} else {
			val, err = env.Read(ref)
		}
		if err != nil || val == nil {
			return err
		}
		if err := r.applyNext(env, val); err != nil {
			return err
		}
	}
	return nil
}

// applyNext applies val, the committed batch of slot r.slot, one command
// at a time, and moves on to the next slot. A command applied before, in
// an earlier slot or earlier in this batch, changes nothing.
func (r *replica) applyNext(env core.Env, val core.Value) error {
	batch, ok := val.(Batch)
	if !ok {
		return fmt.Errorf("rsm: slot %d holds %T", r.slot, val)
	}
	for _, cmd := range batch {
		if !r.applied.valid(cmd) {
			return fmt.Errorf("rsm: slot %d holds command %v of no proposer", r.slot, cmd)
		}
		if !r.applied.add(cmd) {
			continue
		}
		r.chainHash = chain(r.chainHash, cmd)
		if cmd.Proposer == env.ID() && cmd.Seq < len(r.ownCommands) {
			// Own commands commit out of order: skip every committed one.
			for r.ownNext < len(r.ownCommands) && r.applied.has(r.ownCommands[r.ownNext]) {
				r.ownNext++
			}
			r.lastSend, r.backoff = env.LocalSteps(), r.cfg.ResendInterval
		}
	}
	r.slot++
	return nil
}

// pickBatch returns what a leader sequences into its next slot: the
// forwarded commands not yet applied, oldest first, then its uncommitted
// own commands, at most maxBatch in all; nil when it holds no work.
// Forwarded commands go first so followers see theirs commit early and
// rarely stall. pickBatch drops applied commands from pending. The batch
// is a fresh slice because a won CAS stores it in the slot as is.
func (r *replica) pickBatch() Batch {
	r.pending = slices.DeleteFunc(r.pending, r.applied.has)
	n := min(len(r.pending)+len(r.ownCommands)-r.ownNext, maxBatch)
	if n == 0 {
		return nil
	}
	batch := append(make(Batch, 0, n), r.pending[:min(len(r.pending), n)]...)
	return r.appendUncommitted(batch, n)
}

// appendUncommitted appends uncommitted own commands to dst, lowest seq
// first, until dst holds limit commands.
func (r *replica) appendUncommitted(dst []Command, limit int) []Command {
	for seq := r.ownNext; seq < len(r.ownCommands) && len(dst) < limit; seq++ {
		if !r.applied.has(r.ownCommands[seq]) {
			dst = append(dst, r.ownCommands[seq])
		}
	}
	return dst
}

// forward hands uncommitted own commands to the current leader: all of
// them, in one message, the first time this replica sees that leader;
// afterwards only the oldest, once no own command has committed for
// r.backoff steps.
func (r *replica) forward(env core.Env) error {
	ldr, now := r.det.Leader(), env.LocalSteps()
	if ldr == env.ID() || ldr == core.NoProc {
		r.lastSend = now // the stall clock runs only while another process leads
		return nil
	}
	if r.ownNext == len(r.ownCommands) {
		return nil
	}
	if !r.forwarded[ldr] {
		remaining := len(r.ownCommands) - r.ownNext
		cmds := r.appendUncommitted(make([]Command, 0, remaining), remaining)
		if err := env.Send(ldr, submitMsg{Cmds: cmds}); err != nil {
			return err
		}
		r.forwarded[ldr] = true
		r.lastSend = now
		return nil
	}
	if now-r.lastSend < r.backoff {
		return nil
	}
	if err := env.Send(ldr, submitMsg{Cmds: r.ownCommands[r.ownNext : r.ownNext+1]}); err != nil {
		return err
	}
	r.lastSend = now
	r.backoff = min(2*r.backoff, maxResendBackoff*r.cfg.ResendInterval)
	return nil
}

const (
	fnv1aInit  = uint64(14695981039346656037)
	fnv1aPrime = uint64(1099511628211)
)

// chain extends the hash chain with one command: FNV-1a over the previous
// value's eight little-endian bytes, then cmd's String form
// p<id>/<seq>:<op>, assembled on the stack.
func chain(h uint64, cmd Command) uint64 {
	var buf [64]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], h)
	b = append(b, 'p')
	b = strconv.AppendInt(b, int64(cmd.Proposer), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(cmd.Seq), 10)
	b = append(b, ':')
	return fnv1a(fnv1a(fnv1aInit, b), cmd.Op)
}

// fnv1a folds s into the FNV-1a hash h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnv1aPrime
	}
	return h
}
