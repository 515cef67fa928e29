// Package transport abstracts the message path of the m&m model behind a
// backend-neutral interface.
//
// Historically the real-time host (internal/rt) delivered messages only
// through in-process channels (msgnet.Network in auto-deliver mode). The
// Transport interface extracts that message path — Send, Broadcast,
// TryRecv plus link lifecycle — so the same algorithm code can run over
// different wires: the in-process Chan backend (this package) or real
// loopback/network TCP sockets (internal/transport/tcp).
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
//
// The Delayed wrapper similarly layers a msgnet DeliveryPolicy (the
// asynchrony adversary) over any backend's receive path.
package transport

import (
	"fmt"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
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
	// must be treated as immutable.
	Send(from, to core.ProcID, payload core.Value) error
	// Broadcast sends payload from from to every process, including
	// from itself ("send to all").
	Broadcast(from core.ProcID, payload core.Value) error
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

// SpanCarrier is the trace plane of a transport: Send/Broadcast variants
// that carry a core.SpanContext with the message, end to end. Backends
// place the context in the wire frame header (wire v4) or the in-process
// mailbox entry and surface it again as Message.Span on the receive side;
// they never interpret it. Both shipped backends (tcp group views and
// Chan) and both adversary wrappers implement it, so sim/TCP
// symmetry holds; the rt host resolves the interface once at construction
// and falls back to the context-less methods for backends that don't.
type SpanCarrier interface {
	// SendSpan is Send with a trace context riding the message.
	SendSpan(from, to core.ProcID, payload core.Value, sc core.SpanContext) error
	// BroadcastSpan is Broadcast with one trace context shared by every
	// copy (the fan-out edges of one send span).
	BroadcastSpan(from core.ProcID, payload core.Value, sc core.SpanContext) error
}

// SendSpan sends via t's SpanCarrier plane when it has one, and plainly
// otherwise (the context is then dropped, never corrupted).
func SendSpan(t Transport, from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if c, ok := t.(SpanCarrier); ok {
		return c.SendSpan(from, to, payload, sc)
	}
	return t.Send(from, to, payload)
}

// BroadcastSpan is the broadcast analogue of SendSpan.
func BroadcastSpan(t Transport, from core.ProcID, payload core.Value, sc core.SpanContext) error {
	if c, ok := t.(SpanCarrier); ok {
		return c.BroadcastSpan(from, payload, sc)
	}
	return t.Broadcast(from, payload)
}

// SpanHandler is the span-aware server side of the RPC plane: it receives
// the caller's trace context alongside the request and returns the
// response context to ship back (typically the serve span's identity plus
// the server's Lamport clock at the response edge).
type SpanHandler func(from core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error)

// SpanRPC is the trace plane of the RPC interface, mirroring SpanCarrier:
// the request context rides the request frame, the handler's response
// context rides the response frame back to the caller.
type SpanRPC interface {
	// CallSpan is Call carrying the caller's context and returning the
	// server's response context.
	CallSpan(from, to core.ProcID, req core.Value, sc core.SpanContext) (core.Value, core.SpanContext, error)
	// SetSpanHandler installs the span-aware server side. It must be
	// installed before Dial, and it supersedes SetHandler.
	SetSpanHandler(fn SpanHandler)
}

// RPC is the optional synchronous request/response plane of a transport.
// The real-time host uses it to reach shared registers homed on another
// OS process (the RDMA verbs of the model); backends that host all
// processes in one address space do not need it.
type RPC interface {
	// Call sends req from→to and blocks for the matching response.
	Call(from, to core.ProcID, req core.Value) (core.Value, error)
	// SetHandler installs the server side: fn is invoked for every
	// incoming request and its return value is sent back to the caller.
	// It must be installed before Dial.
	SetHandler(fn func(from core.ProcID, req core.Value) (core.Value, error))
}

// Instrumentable is the optional observability plane of a transport:
// backends that implement it report into a metrics.Registry — message and
// frame counters under the registry's Counters, round-trip latencies under
// its named Histograms — so every backend exposes the same schema. The
// real-time host instruments its transport (after any adversary wrapping)
// with the run's registry; wrappers forward to their inner backend.
// Instrument must be safe to call while the transport is live: frames can
// already be flowing when the host attaches its registry.
type Instrumentable interface {
	Instrument(reg *metrics.Registry)
}

// ErrClosed reports an operation on a closed transport.
var ErrClosed = fmt.Errorf("transport: closed")
