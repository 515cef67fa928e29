package transport

import (
	"sync/atomic"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/msgnet"
)

// Chan is the in-process channel backend: a msgnet.Network in auto-deliver
// mode, exactly the message path the real-time host used before the
// Transport interface existed. Sends place the message directly in the
// destination mailbox under one mutex, so Integrity and No-loss hold
// trivially; fair-lossy behaviour comes from msgnet's native DropPolicy
// support (or the Lossy wrapper).
type Chan struct {
	net    *msgnet.Network
	closed atomic.Bool
}

var _ Transport = (*Chan)(nil)

// NewChan returns an in-process transport among n processes with links of
// the given kind. The msgnet options (drop policy, counters) are applied
// to the underlying network; auto-deliver mode is always enabled.
func NewChan(n int, kind msgnet.LinkKind, opts ...msgnet.NetOption) *Chan {
	opts = append([]msgnet.NetOption{msgnet.WithAutoDeliver()}, opts...)
	return &Chan{net: msgnet.NewNetwork(n, kind, opts...)}
}

// N implements Transport.
func (c *Chan) N() int { return c.net.N() }

// Dial implements Transport. In-process links need no setup.
func (c *Chan) Dial() error { return nil }

// Send implements Transport: the context rides the msgnet mailbox entry
// and comes back out as Message.Span.
func (c *Chan) Send(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.net.Send(from, to, payload, sc, 0)
}

// Broadcast implements Transport.
func (c *Chan) Broadcast(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.net.Broadcast(from, payload, sc, 0)
}

// TryRecv implements Transport.
func (c *Chan) TryRecv(p core.ProcID) (core.Message, bool) {
	return c.net.Recv(p)
}

// SetWake implements Transport.
func (c *Chan) SetWake(p core.ProcID, ch chan<- struct{}) { c.net.SetWake(p, ch) }

// LinkState implements Transport. In-process links are always up.
func (c *Chan) LinkState(from, to core.ProcID) LinkState {
	if c.closed.Load() {
		return LinkClosed
	}
	if int(from) < 0 || int(from) >= c.net.N() || int(to) < 0 || int(to) >= c.net.N() {
		return LinkUnknown
	}
	return LinkUp
}

// Close implements Transport. There is nothing to drain: every accepted
// send has already been delivered.
func (c *Chan) Close() error {
	c.closed.Store(true)
	return nil
}
