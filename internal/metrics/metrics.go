// Package metrics counts the communication events the paper's efficiency
// theorems are about: messages sent, delivered and dropped, and shared
// register reads and writes split into local (owner) and remote accesses.
//
// The leader-election results (§5) are statements about these counters in
// the steady state — "eventually no messages are sent, and the only
// accesses to shared memory are the leader's periodic write and the other
// processes' reads" — so the experiment harness snapshots a Counters at
// intervals and reports deltas.
package metrics

import (
	"fmt"
	"sync/atomic"

	"github.com/mnm-model/mnm/internal/core"
)

// Kind enumerates counted events.
type Kind int

// Counter kinds. Register accesses are split by locality per §5.3: an
// access is local when the accessing process owns the register (the
// register lives at its host), remote otherwise.
const (
	MsgSent Kind = iota + 1
	MsgDelivered
	MsgDropped
	RegReadLocal
	RegReadRemote
	RegWriteLocal
	RegWriteRemote
	Steps
	// Transport-plane kinds, recorded by socket backends
	// (internal/transport/tcp). Frame counters cover sequenced frames
	// (data, RPC request, RPC response); acks are unsequenced control
	// traffic and are not counted. Node-level events that no single
	// process caused (reconnects, dial failures) are attributed to the
	// node's lowest hosted process.
	FrameSent
	FrameRetrans
	FrameAcked
	// FrameDropEncode counts frames refused because they cannot be
	// encoded (a payload type with no codec, or an oversized body), once
	// per remote copy, where the frame is created: such a frame never
	// enters the retransmission queue.
	FrameDropEncode
	// FrameBatches counts batch writes, each one batch of frames written
	// with a single syscall and counted as it is written, like its frames'
	// FrameSent (see HistBatchFrames for the batch size distribution).
	// FrameSent/FrameBatches is the average frames-per-syscall
	// amortization of the batched wire.
	FrameBatches
	Reconnects
	DialFailures
	// RPC-plane kinds: remote-register calls issued by a process and
	// calls that returned an error (transport failures and owner-side
	// rejections alike).
	RPCIssued
	RPCFailed
	// LeaderChanges counts observed changes of a process's leader output,
	// recorded by observers (cmd/mnmnode) rather than the algorithm.
	LeaderChanges
	// Durability kinds (internal/durable and the transport's frame log):
	// WALAppends counts fsync'd journal records; the Recovered* kinds count
	// state replayed from disk at startup — registers seeded into shared
	// memory, and unacked frames restored into peer retransmission queues.
	WALAppends
	RecoveredRegisters
	RecoveredFrames
	// RemoteWakes counts the wake-ups a register owner's node sends to
	// remote processes whose read found a register empty, once per wake
	// queued, when that register is first written (see internal/rt).
	RemoteWakes
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MsgSent:
		return "msg_sent"
	case MsgDelivered:
		return "msg_delivered"
	case MsgDropped:
		return "msg_dropped"
	case RegReadLocal:
		return "reg_read_local"
	case RegReadRemote:
		return "reg_read_remote"
	case RegWriteLocal:
		return "reg_write_local"
	case RegWriteRemote:
		return "reg_write_remote"
	case Steps:
		return "steps"
	case FrameSent:
		return "frame_sent"
	case FrameRetrans:
		return "frame_retrans"
	case FrameAcked:
		return "frame_acked"
	case FrameDropEncode:
		return "frame_drop_encode"
	case FrameBatches:
		return "frame_batches"
	case Reconnects:
		return "reconnects"
	case DialFailures:
		return "dial_failures"
	case RPCIssued:
		return "rpc_issued"
	case RPCFailed:
		return "rpc_failed"
	case LeaderChanges:
		return "leader_changes"
	case WALAppends:
		return "wal_appends"
	case RecoveredRegisters:
		return "recovered_registers"
	case RecoveredFrames:
		return "recovered_frames"
	case RemoteWakes:
		return "remote_wakes"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds returns all counter kinds in declaration order.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := Kind(1); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// cacheLineSize is the assumed coherence granularity. procCells pads each
// process's counter block to a multiple of it so that two processes
// recording events never write the same cache line (no false sharing).
const cacheLineSize = 64

// procCells is one process's counters: an atomic cell per Kind plus
// padding out to a cache-line multiple.
type procCells struct {
	v [numKinds]atomic.Int64
	_ [(cacheLineSize - (numKinds*8)%cacheLineSize) % cacheLineSize]byte
}

// Counters is a thread-safe per-process event counter. Record is a single
// lock-free atomic add on a cell owned (in the common, per-process-goroutine
// usage) by the caller, so counting never serializes the processes being
// measured. The zero value is not usable; call NewCounters.
type Counters struct {
	perProc []procCells
}

// NewCounters returns counters for n processes.
func NewCounters(n int) *Counters {
	return &Counters{perProc: make([]procCells, n)}
}

// Record adds delta to the (p, k) counter. Out-of-range processes and kinds
// are ignored rather than panicking, so instrumentation can never take down
// a run. Record is lock-free and safe for any number of concurrent callers.
func (c *Counters) Record(p core.ProcID, k Kind, delta int64) {
	if c == nil {
		return
	}
	if int(p) < 0 || int(p) >= len(c.perProc) || k <= 0 || k >= numKinds {
		return
	}
	c.perProc[p].v[k].Add(delta)
}

// Of returns the value of the (p, k) counter.
func (c *Counters) Of(p core.ProcID, k Kind) int64 {
	if c == nil || int(p) < 0 || int(p) >= len(c.perProc) || k <= 0 || k >= numKinds {
		return 0
	}
	return c.perProc[p].v[k].Load()
}

// Total returns the sum of the k counter over all processes.
func (c *Counters) Total(k Kind) int64 {
	if c == nil || k <= 0 || k >= numKinds {
		return 0
	}
	var sum int64
	for i := range c.perProc {
		sum += c.perProc[i].v[k].Load()
	}
	return sum
}

// Snapshot is an immutable copy of all counters at one instant, tagged with
// the global step at which it was taken.
type Snapshot struct {
	Step    uint64
	perProc [][numKinds]int64
}

// Snapshot copies the current counter state. Each cell is read with one
// atomic load, so a snapshot taken while writers are running is not a
// single linearization point across cells — but every cell is exact at the
// moment it is read and monotone under concurrent Adds, which is all the
// steady-state delta accounting (the LE experiment series) needs. A
// snapshot taken while no writer is mid-flight is exact.
func (c *Counters) Snapshot(step uint64) Snapshot {
	if c == nil {
		return Snapshot{Step: step}
	}
	cp := make([][numKinds]int64, len(c.perProc))
	for i := range c.perProc {
		for k := range cp[i] {
			cp[i][k] = c.perProc[i].v[k].Load()
		}
	}
	return Snapshot{Step: step, perProc: cp}
}

// Procs returns the number of processes the snapshot covers.
func (s Snapshot) Procs() int { return len(s.perProc) }

// Of returns the value of the (p, k) counter in the snapshot.
func (s Snapshot) Of(p core.ProcID, k Kind) int64 {
	if int(p) < 0 || int(p) >= len(s.perProc) || k <= 0 || k >= numKinds {
		return 0
	}
	return s.perProc[p][k]
}

// Total returns the snapshot-wide sum of the k counter.
func (s Snapshot) Total(k Kind) int64 {
	var sum int64
	for i := range s.perProc {
		sum += s.perProc[i][k]
	}
	return sum
}

// Sub returns a snapshot holding s - earlier, the event deltas between the
// two instants. The snapshots must cover the same process count.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	out := Snapshot{Step: s.Step, perProc: make([][numKinds]int64, len(s.perProc))}
	for i := range s.perProc {
		for k := range s.perProc[i] {
			var e int64
			if i < len(earlier.perProc) {
				e = earlier.perProc[i][k]
			}
			out.perProc[i][k] = s.perProc[i][k] - e
		}
	}
	return out
}

// String renders the non-zero totals, for debugging and experiment output.
func (s Snapshot) String() string {
	out := fmt.Sprintf("@%d", s.Step)
	for _, k := range Kinds() {
		if v := s.Total(k); v != 0 {
			out += fmt.Sprintf(" %s=%d", k, v)
		}
	}
	return out
}
