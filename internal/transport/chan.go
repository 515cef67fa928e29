package transport

import (
	"fmt"
	"sync/atomic"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/queue"
)

// Chan is the in-process backend: one queue.Mailbox per process, the
// same mailbox type a tcp group gives each hosted process. A send pushes
// the message straight into its destination's mailbox, under that
// mailbox's lock alone, so Integrity and No-loss hold trivially and an
// empty TryRecv is one atomic load. Its links are reliable; fair-lossy
// ones come from wrapping it in Lossy.
type Chan struct {
	mailboxes []queue.Mailbox[core.Message]
	counters  *metrics.Counters // nil is inert
	closed    atomic.Bool
}

var _ Transport = (*Chan)(nil)

// NewChan returns an in-process transport among n processes that meters
// MsgSent and MsgDelivered into c, once per copy.
func NewChan(n int, c *metrics.Counters) *Chan {
	return &Chan{mailboxes: make([]queue.Mailbox[core.Message], n), counters: c}
}

// N implements Transport.
func (c *Chan) N() int { return len(c.mailboxes) }

// Dial implements Transport. In-process links need no setup.
func (c *Chan) Dial() error { return nil }

// isProc reports whether p is a process of the system, 0 ≤ p < n.
func (c *Chan) isProc(p core.ProcID) bool { return p >= 0 && int(p) < len(c.mailboxes) }

// Send implements Transport: the context rides the mailbox entry and
// comes back out as Message.Span.
func (c *Chan) Send(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if !c.isProc(from) || !c.isProc(to) {
		return fmt.Errorf("%w: send %v→%v", core.ErrUnknownProc, from, to)
	}
	c.counters.Record(from, metrics.MsgSent, 1)
	c.mailboxes[to].Push(core.Message{From: from, Payload: payload, Span: sc})
	c.counters.Record(to, metrics.MsgDelivered, 1)
	return nil
}

// Broadcast implements Transport: one Send per process, from included.
func (c *Chan) Broadcast(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	for to := range c.mailboxes {
		if err := c.Send(from, core.ProcID(to), payload, sc); err != nil {
			return err
		}
	}
	return nil
}

// TryRecv implements Transport.
func (c *Chan) TryRecv(p core.ProcID) (core.Message, bool) {
	if !c.isProc(p) {
		return core.Message{}, false
	}
	return c.mailboxes[p].Pop()
}

// SetWake implements Transport.
func (c *Chan) SetWake(p core.ProcID, ch chan<- struct{}) {
	if c.isProc(p) {
		c.mailboxes[p].SetWake(ch)
	}
}

// LinkState implements Transport. In-process links are always up.
func (c *Chan) LinkState(from, to core.ProcID) LinkState {
	if c.closed.Load() {
		return LinkClosed
	}
	if !c.isProc(from) || !c.isProc(to) {
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
