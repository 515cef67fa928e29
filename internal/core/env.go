package core

import "math/rand"

// Env is the interface between a process and the m&m system it runs in. It
// exposes both communication methods of the model — message passing and
// shared memory — plus step accounting and a deterministic source of local
// coin flips.
//
// Step granularity follows the model: each Send, Broadcast, Read, Write and
// Yield is one atomic step of the calling process. TryRecv and the
// inspection methods are local bookkeeping and take no step. In the
// simulator host exactly one process executes at a time and the scheduler
// (the adversary) chooses who steps next; in the real-time host steps run
// truly concurrently.
type Env interface {
	// ID returns this process's identifier.
	ID() ProcID
	// N returns the number of processes in the system.
	N() int
	// Procs returns all process identifiers, 0..n-1. Callers must not
	// modify the returned slice.
	Procs() []ProcID
	// Neighbors returns this process's neighbors in the shared-memory
	// graph G_SM (not including itself). Callers must not modify the
	// returned slice.
	Neighbors() []ProcID

	// Send sends payload to process "to" over the directed link id→to.
	// One step. Delivery obeys the link's type (reliable or fair lossy).
	Send(to ProcID, payload Value) error
	// Broadcast sends payload to every process, including the sender
	// itself. One step (a single "send to all" as in Ben-Or's algorithm).
	Broadcast(payload Value) error
	// TryRecv pops the next delivered message from this process's
	// mailbox, if any. Local operation: takes no step.
	TryRecv() (Message, bool)

	// Read atomically reads a shared register. One step. A register that
	// was never written reads as nil. Read fails with ErrAccessDenied if
	// this process is outside the register's shared-memory domain.
	Read(ref Ref) (Value, error)
	// Write atomically writes a shared register. One step. Write fails
	// with ErrAccessDenied outside the register's domain.
	Write(ref Ref, v Value) error
	// CompareAndSwap atomically replaces the contents of ref with
	// desired if they currently equal expected (nil means "never
	// written"). One step. It returns whether the swap happened and the
	// value observed.
	//
	// CAS models the atomic verbs of RDMA NICs and is an extension of
	// the paper's read/write register model: the register-only
	// algorithms (HBO over regcons.Racing, both leader elections) never
	// call it. It exists for the hardware-primitive ablations.
	CompareAndSwap(ref Ref, expected, desired Value) (swapped bool, current Value, err error)

	// Yield takes one local step that performs no communication. Local
	// timers in the sense of the paper (footnote 5: "a counter that is
	// decremented at each step of p") are driven by LocalSteps.
	Yield()
	// LocalSteps returns how many steps this process has taken so far.
	LocalSteps() uint64

	// Expose publishes a named observable output of this process — its
	// decision value, its current leader estimate — for run monitors and
	// stop conditions. Observation is external to the model: exposing
	// takes no step and other processes cannot read exposed values.
	Expose(name string, v Value)

	// Rand returns this process's private deterministic randomness
	// source, seeded from the run seed and the process id. Algorithms use
	// it for local coin flips (e.g. Ben-Or's "v ← 0 or 1 randomly").
	Rand() *rand.Rand

	// Logf records a formatted debug event in the run trace, if tracing
	// is enabled. No step.
	Logf(format string, args ...any)
}

// WaitUntil repeatedly yields until cond holds. Each poll costs one step, so
// a waiting process stays schedulable (and accusable, timeable, crashable).
// On the real-time host each Yield also parks the process until a message
// or register write could have changed cond, or a short tick passes, so
// the wait costs steps at a bounded rate rather than a spinning core.
func WaitUntil(env Env, cond func() bool) {
	for !cond() {
		env.Yield()
	}
}

// Inbox is a small helper that drains an Env mailbox and buffers messages
// for later, keyed inspection. Round-based algorithms (Ben-Or, HBO) receive
// messages for future rounds ahead of time; Inbox lets them keep those
// without re-implementing buffering in each algorithm.
type Inbox struct {
	buf []Message
}

// DrainFrom moves every currently delivered message from env's mailbox into
// the inbox. Local operation, no step.
func (in *Inbox) DrainFrom(env Env) {
	for {
		m, ok := env.TryRecv()
		if !ok {
			return
		}
		in.buf = append(in.buf, m)
	}
}

// Len returns the number of buffered messages.
func (in *Inbox) Len() int { return len(in.buf) }

// Match returns the buffered messages for which pred holds, without
// removing them.
func (in *Inbox) Match(pred func(Message) bool) []Message {
	var out []Message
	for _, m := range in.buf {
		if pred(m) {
			out = append(out, m)
		}
	}
	return out
}

// Take removes and returns the buffered messages for which pred holds.
func (in *Inbox) Take(pred func(Message) bool) []Message {
	var out []Message
	rest := in.buf[:0]
	for _, m := range in.buf {
		if pred(m) {
			out = append(out, m)
		} else {
			rest = append(rest, m)
		}
	}
	in.buf = rest
	return out
}

// Drop discards every buffered message for which pred holds and reports how
// many were dropped.
func (in *Inbox) Drop(pred func(Message) bool) int {
	n := 0
	rest := in.buf[:0]
	for _, m := range in.buf {
		if pred(m) {
			n++
		} else {
			rest = append(rest, m)
		}
	}
	in.buf = rest
	return n
}
