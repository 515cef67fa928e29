// Package trace holds one recorder per host. Recorder is the simulator's:
// a structured per-step event log of who did what (register op, send,
// broadcast, yield, crash, halt, expose) at which global step. Its traces
// serve debugging (mnmsim -trace), test assertions about operation
// patterns, and post-hoc schedule analysis (e.g. feeding
// sched.MinTimelinessBound). Flight (span.go) is the real-time host's: a
// per-node ring of causally linked spans, dumped as the JSONL format
// ReadSpans parses.
//
// Both are bounded rings: recording never allocates beyond the configured
// capacity and never fails, so tracing can stay on in long runs; the
// oldest entries are dropped and counted.
package trace

import (
	"fmt"
	"io"
	"sync"

	"github.com/mnm-model/mnm/internal/core"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	Yield Kind = iota + 1
	Send
	Broadcast
	RegRead
	RegWrite
	CAS
	Expose
	Crash
	Halt
	Log
	// Recv and Serve are span-only kinds (see span.go): the delivery of a
	// traced message, and the owner-side service of a remote register op.
	Recv
	Serve
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Yield:
		return "yield"
	case Send:
		return "send"
	case Broadcast:
		return "broadcast"
	case RegRead:
		return "read"
	case RegWrite:
		return "write"
	case CAS:
		return "cas"
	case Expose:
		return "expose"
	case Crash:
		return "crash"
	case Halt:
		return "halt"
	case Log:
		return "log"
	case Recv:
		return "recv"
	case Serve:
		return "serve"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindOf parses the String form back (dump readers); unknown strings
// yield the zero Kind.
func KindOf(s string) Kind {
	for k := Yield; k <= Serve; k++ {
		if k.String() == s {
			return k
		}
	}
	return 0
}

// Event is one recorded occurrence.
type Event struct {
	// Step is the global step at which the event happened.
	Step uint64
	// Proc is the acting process.
	Proc core.ProcID
	// Kind classifies the event.
	Kind Kind
	// Ref is the register involved (register events only).
	Ref core.Ref
	// To is the destination (Send only).
	To core.ProcID
	// Note is free-form detail (payload/value rendering, log text).
	Note string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case Send:
		return fmt.Sprintf("[%d] %v send→%v %s", e.Step, e.Proc, e.To, e.Note)
	case RegRead, RegWrite, CAS:
		return fmt.Sprintf("[%d] %v %s %v %s", e.Step, e.Proc, e.Kind, e.Ref, e.Note)
	default:
		return fmt.Sprintf("[%d] %v %s %s", e.Step, e.Proc, e.Kind, e.Note)
	}
}

// Recorder is a bounded, thread-safe event ring.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	start   int
	count   int
	dropped uint64
}

// NewRecorder returns a recorder keeping the most recent capacity events
// (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest if full. A nil recorder
// ignores the event, so call sites need no guards.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count < len(r.buf) {
		r.buf[(r.start+r.count)%len(r.buf)] = ev
		r.count++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Dropped returns how many events were evicted.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Schedule extracts the step-taking sequence (the acting process of every
// retained event that consumed a step), for timeliness analysis.
func (r *Recorder) Schedule() []core.ProcID {
	evs := r.Events()
	out := make([]core.ProcID, 0, len(evs))
	for _, e := range evs {
		switch e.Kind {
		case Yield, Send, Broadcast, RegRead, RegWrite, CAS:
			out = append(out, e.Proc)
		}
	}
	return out
}

// Filter returns the retained events matching pred, oldest first.
func (r *Recorder) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Events() {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// snapshot returns the retained events and the dropped count as one
// atomic observation. Dump paths must use this rather than calling
// Events and Dropped back to back: between two separate lock
// acquisitions a concurrent writer can evict more events, so the header
// would understate the drop count relative to the events actually
// rendered (the multi-group eviction drift).
func (r *Recorder) snapshot() ([]Event, uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out, r.dropped
}

// WriteTo dumps the retained events to w, oldest first, one Event.String
// line each, preceded by an "(N earlier events dropped)" line when the
// ring evicted events, and reports bytes written.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	events, dropped := r.snapshot()
	if dropped > 0 {
		n, err := fmt.Fprintf(w, "(%d earlier events dropped)\n", dropped)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for _, e := range events {
		n, err := fmt.Fprintln(w, e.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
