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
//     slot is *committed* when non-nil; CAS makes the first append win, so
//     log agreement is deterministic no matter how many processes try.
//   - An Ω detector (the paper's Figure-3 algorithm, embedded in steppable
//     Detector form) selects a sequencer. Clients forward their commands
//     to their current leader and retransmit until they see the command
//     committed, so leadership changes and fair-lossy links only cost
//     retries, never safety.
//   - The log is at-least-once — a command retransmitted across a leader
//     change or a replica restart can fill two slots — but apply is
//     exactly-once: every replica applies committed slots in order, skips
//     a slot whose command it already applied, and keeps a hash chain over
//     what it applied. Equal applied counts imply equal hashes on every
//     replica.
package rsm

import (
	"fmt"
	"hash/fnv"

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
// globally unique through (Proposer, Seq).
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

// submitMsg forwards a command to the sender's current leader.
type submitMsg struct {
	Cmd Command
}

// Config parameterizes the replicated log.
type Config struct {
	// CommandsPerProcess is how many commands each process submits.
	CommandsPerProcess int
	// ResendInterval is how many local steps a client waits before
	// re-forwarding an uncommitted command. Defaults to 256.
	ResendInterval uint64
	// Leader configures the embedded Ω detector.
	Leader leader.Config
	// TolerateMemFaults keeps the replica loop alive across errors from
	// shared-memory and link operations instead of unwinding on the first
	// one. With a distributed transport, a crashed-but-recovering peer
	// makes remote reads of its registers fail for the whole outage; a
	// crash-stop replica would die with it, a crash-recovery replica (this
	// mode) retries next tick and resumes when the peer returns.
	// Termination stays guaranteed: the hosts stop processes by
	// panic-unwind at the next env operation, not by error returns.
	TolerateMemFaults bool
}

func (c *Config) setDefaults() {
	if c.ResendInterval == 0 {
		c.ResendInterval = 256
	}
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

	slot      int              // next log slot to apply
	applied   map[Command]bool // the distinct commands applied so far
	chainHash uint64

	// committedOwn[seq] marks own commands seen in the applied prefix.
	committedOwn []bool
	ownDone      int // count of own committed commands

	// pending holds commands this process must sequence while leader,
	// keyed for dedup.
	pending     map[Command]bool
	nextFree    int // lowest slot not yet known-committed
	lastResend  uint64
	ownCommands []Command
}

func run(env core.Env, cfg Config) error {
	det, err := leader.NewDetector(env, cfg.Leader)
	if err != nil {
		return err
	}
	r := &replica{
		cfg:          cfg,
		det:          det,
		chainHash:    fnv1aInit,
		applied:      make(map[Command]bool),
		committedOwn: make([]bool, cfg.CommandsPerProcess),
		pending:      make(map[Command]bool),
	}
	for s := 0; s < cfg.CommandsPerProcess; s++ {
		r.ownCommands = append(r.ownCommands, Command{
			Proposer: env.ID(),
			Seq:      s,
			Op:       fmt.Sprintf("op-%v-%d", env.ID(), s),
		})
	}

	for {
		stepsAtTop := env.LocalSteps()
		if err := r.tick(env); err != nil && !cfg.TolerateMemFaults {
			return err
		}
		env.Expose(AppliedKey, len(r.applied))
		env.Expose(HashKey, r.chainHash)
		env.Expose(DoneKey, r.ownDone == r.cfg.CommandsPerProcess)
		if env.LocalSteps() == stepsAtTop {
			env.Yield()
		}
	}
}

// tick is one iteration of the replica loop. Each phase's error aborts the
// iteration; whether it also aborts the replica is the caller's call
// (Config.TolerateMemFaults).
func (r *replica) tick(env core.Env) error {
	if err := r.det.Tick(env); err != nil {
		return err
	}
	env.Expose(LeaderKey, r.det.Leader())
	r.consumeForeign(env)
	if err := r.applyCommitted(env); err != nil {
		return err
	}
	if r.det.Leader() == env.ID() {
		if err := r.sequenceOne(env); err != nil {
			return err
		}
	}
	return r.resendOwn(env)
}

// consumeForeign moves forwarded commands from the detector's foreign
// buffer into the pending set, minus those already applied (a client's
// retransmission that crossed the commit, or a restarted replica's).
func (r *replica) consumeForeign(env core.Env) {
	for _, m := range r.det.Foreign {
		if sub, ok := m.Payload.(submitMsg); ok && !r.applied[sub.Cmd] {
			r.pending[sub.Cmd] = true
		}
	}
	r.det.Foreign = r.det.Foreign[:0]
}

// applyCommitted applies at most a handful of committed slots per tick so
// the detector stays responsive.
func (r *replica) applyCommitted(env core.Env) error {
	const maxPerTick = 4
	for i := 0; i < maxPerTick; i++ {
		raw, err := env.Read(SlotRef(r.slot, env.N()))
		if err != nil {
			return err
		}
		if raw == nil {
			return nil
		}
		cmd, ok := raw.(Command)
		if !ok {
			return fmt.Errorf("rsm: slot %d holds %T", r.slot, raw)
		}
		r.slot++
		if r.slot > r.nextFree {
			r.nextFree = r.slot
		}
		delete(r.pending, cmd)
		if r.applied[cmd] {
			continue // a duplicate slot
		}
		r.applied[cmd] = true
		r.chainHash = chain(r.chainHash, cmd)
		if cmd.Proposer == env.ID() && cmd.Seq < len(r.committedOwn) {
			r.committedOwn[cmd.Seq] = true
			r.ownDone++
		}
	}
	return nil
}

// sequenceOne tries to commit one pending command (own or forwarded) into
// the lowest free slot.
func (r *replica) sequenceOne(env core.Env) error {
	cmd, ok := r.pickPending(env)
	if !ok {
		return nil
	}
	// Find the lowest free slot, then race a CAS for it. Losing only
	// means another sequencer committed something there; the slot scan
	// resumes from the loser.
	for {
		raw, err := env.Read(SlotRef(r.nextFree, env.N()))
		if err != nil {
			return err
		}
		if raw != nil {
			r.nextFree++
			continue
		}
		swapped, cur, err := env.CompareAndSwap(SlotRef(r.nextFree, env.N()), nil, cmd)
		if err != nil {
			return err
		}
		if swapped {
			r.nextFree++
			return nil
		}
		if cur != nil {
			r.nextFree++
		}
		return nil // Lost the race; retry on a later tick.
	}
}

// pickPending returns an uncommitted command to sequence: own commands
// first, then forwarded ones (deterministic by key order is not required —
// any choice is safe).
func (r *replica) pickPending(env core.Env) (Command, bool) {
	for seq, done := range r.committedOwn {
		if !done {
			return r.ownCommands[seq], true
		}
	}
	for cmd := range r.pending {
		return cmd, true
	}
	return Command{}, false
}

// resendOwn periodically re-forwards uncommitted own commands to the
// current leader (or keeps them local when this replica leads).
func (r *replica) resendOwn(env core.Env) error {
	if r.ownDone == r.cfg.CommandsPerProcess {
		return nil
	}
	if env.LocalSteps()-r.lastResend < r.cfg.ResendInterval && r.lastResend != 0 {
		return nil
	}
	r.lastResend = env.LocalSteps()
	ldr := r.det.Leader()
	for seq, done := range r.committedOwn {
		if done {
			continue
		}
		cmd := r.ownCommands[seq]
		if ldr == env.ID() || ldr == core.NoProc {
			r.pending[cmd] = true
			continue
		}
		if err := env.Send(ldr, submitMsg{Cmd: cmd}); err != nil {
			return err
		}
	}
	return nil
}

const fnv1aInit = uint64(14695981039346656037)

// chain extends the hash chain with one command.
func chain(h uint64, cmd Command) uint64 {
	f := fnv.New64a()
	var buf [8]byte
	buf[0] = byte(h)
	buf[1] = byte(h >> 8)
	buf[2] = byte(h >> 16)
	buf[3] = byte(h >> 24)
	buf[4] = byte(h >> 32)
	buf[5] = byte(h >> 40)
	buf[6] = byte(h >> 48)
	buf[7] = byte(h >> 56)
	_, _ = f.Write(buf[:])
	_, _ = f.Write([]byte(cmd.String()))
	return f.Sum64()
}
