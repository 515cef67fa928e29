// Package transport abstracts the message path of the m&m model behind a
// backend-neutral interface.
//
// The Transport interface is the real-time host's (internal/rt) message
// path — Send, Broadcast, TryRecv plus link lifecycle — so the same
// algorithm code can run over different wires: the in-process Chan
// backend (this package) or real loopback/network TCP sockets
// (internal/transport/tcp). Both deliver into the same per-process
// mailbox type, queue.Mailbox.
//
// There is one send per link and one call per register owner. Send,
// Broadcast and SpanRPC.CallSpan each take a core.SpanContext that rides
// the message or request end to end; the zero context means untraced, so
// a caller cannot pick a variant that silently drops a trace.
//
// Whatever the backend, the link axioms of the paper (§3) must hold:
//
//   - Integrity: a message is delivered to q from p at most as many times
//     as p sent it — backends never duplicate or forge messages.
//   - No-loss (reliable links): every sent message is eventually
//     delivered. The TCP backend preserves this across connection faults
//     with sequence-numbered retransmission and receiver-side
//     deduplication.
//   - Fair-loss (fair-lossy links): a message sent infinitely often is
//     delivered infinitely often. Fair-lossy behaviour is layered over
//     any backend with the Lossy wrapper, which applies a msgnet
//     DropPolicy at send time.
package transport

import (
	"fmt"

	"github.com/mnm-model/mnm/internal/core"
)

// LinkState describes the liveness of one directed link.
type LinkState int

const (
	// LinkUnknown reports a link outside the transport's system.
	LinkUnknown LinkState = iota
	// LinkUp means the link can carry messages now.
	LinkUp
	// LinkConnecting means the backend is (re)establishing the link;
	// messages sent meanwhile are queued and retransmitted.
	LinkConnecting
	// LinkClosed means the transport has been closed.
	LinkClosed
)

// String implements fmt.Stringer.
func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkConnecting:
		return "connecting"
	case LinkClosed:
		return "closed"
	case LinkUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("linkstate(%d)", int(s))
	}
}

// Transport is the message path of an m&m host: n processes exchanging
// values over directed links. Implementations must be safe for concurrent
// use and must uphold the Integrity axiom.
type Transport interface {
	// N returns the number of processes in the system.
	N() int
	// Dial establishes the transport's links. It is idempotent, returns
	// once link setup has been initiated (backends may keep connecting
	// and retrying in the background), and must be called before Send.
	Dial() error
	// Send transmits payload over the directed link from→to. Payloads
	// must be treated as immutable. sc rides the message end to end (in
	// the wire frame header or the in-process mailbox entry) and comes
	// back out as Message.Span; the backend never interprets it, and the
	// zero SpanContext means untraced.
	Send(from, to core.ProcID, payload core.Value, sc core.SpanContext) error
	// Broadcast sends payload from from to every process, including
	// from itself ("send to all"). Every copy carries the same sc (the
	// fan-out edges of one send span).
	Broadcast(from core.ProcID, payload core.Value, sc core.SpanContext) error
	// TryRecv pops the next delivered message addressed to p, if any.
	TryRecv(p core.ProcID) (core.Message, bool)
	// SetWake registers ch as p's wake-up: after every delivery into p's
	// mailbox the backend makes one non-blocking send on ch, under the
	// lock that guards the mailbox. A receiver that gives ch a buffer of
	// one can therefore park on it between TryRecv polls without losing a
	// delivery that races the park. A nil ch unregisters; a p this
	// transport does not host is ignored.
	SetWake(p core.ProcID, ch chan<- struct{})
	// LinkState reports the liveness of the directed link from→to.
	LinkState(from, to core.ProcID) LinkState
	// Close drains queued outbound messages (bounded by the backend's
	// drain timeout) and releases the transport's resources. Sends after
	// Close fail with ErrClosed.
	Close() error
}

// SendSpan is t.Send. It is kept only because the bench module calls it.
func SendSpan(t Transport, from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	return t.Send(from, to, payload, sc)
}

// BroadcastSpan is t.Broadcast. It is kept only because the bench module
// calls it.
func BroadcastSpan(t Transport, from core.ProcID, payload core.Value, sc core.SpanContext) error {
	return t.Broadcast(from, payload, sc)
}

// SpanHandler is the server side of the RPC plane: it receives the
// caller's trace context alongside the request and returns the response
// context to ship back (typically the serve span's identity plus the
// server's Lamport clock at the response edge). A group gets its
// handler when it is opened (GroupConfig.Handler), so an open group
// serves from its first frame on. A socket backend runs it on the receive
// loop of the caller's connection, so it must return without blocking on
// the network: the frames behind the request, acks included, wait for it.
type SpanHandler func(from core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error)

// SpanRPC is the optional synchronous request/response plane of a
// transport. The real-time host uses it to reach shared registers homed
// on another OS process (the RDMA verbs of the model); backends that host
// all processes in one address space do not need it. CallSpan is its one
// call, and Wake its one signal, with which an owner wakes a remote
// process waiting on one of its registers; the interface and CallSpan
// keep their Span names only because the bench module calls them.
type SpanRPC interface {
	// CallSpan sends req from→to and blocks for the matching response;
	// to is a process hosted on another node (a caller applies its own
	// node's ops itself). The caller's context sc rides the request; the
	// handler's response context comes back with the answer. A call has
	// no timeout: it ends with the response, an encode error, or
	// ErrClosed when the caller's group or transport is closed.
	CallSpan(from, to core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error)
	// Wake hands remote process to a wake-up token at its node: one
	// non-blocking send on the channel to registered with SetWake there.
	// It delivers nothing, never blocks, and may be lost, so a process
	// waiting to be woken must not count on it.
	Wake(to core.ProcID)
}

// RPC installs a plain request handler. It is kept only because the bench
// module calls it; a group otherwise gets its handler from
// GroupConfig.Handler.
type RPC interface {
	// SetHandler replaces the group's GroupConfig.Handler with a plain
	// one: fn is invoked for every incoming request and its return value
	// is sent back to the caller. Like a SpanHandler it must not block on
	// the network.
	SetHandler(fn func(from core.ProcID, req core.Value) (core.Value, error))
}

// ErrClosed reports an operation on a closed transport.
var ErrClosed = fmt.Errorf("transport: closed")
