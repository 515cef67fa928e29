package transport

import (
	"sync"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
)

// Lossy turns any backend into a fair-lossy transport: a msgnet.DropPolicy
// decides at send time whether each message is silently discarded before
// it reaches the inner backend. The policy's Fair-loss contract (a message
// sent infinitely often is delivered infinitely often) carries over
// unchanged, because every non-dropped message is handed to the inner
// transport, which delivers it under its own No-loss/Integrity guarantees.
//
// Dropped messages are metered as MsgSent + MsgDropped into Counters (the
// same accounting msgnet performs natively), so experiment tables stay
// comparable across backends.
type Lossy struct {
	// Inner is the wrapped backend.
	Inner Transport
	// Policy decides the drops. A nil policy never drops.
	Policy msgnet.DropPolicy
	// Counters, if non-nil, receives MsgSent/MsgDropped for dropped
	// messages. Delivered messages are metered by the inner backend.
	Counters *metrics.Counters
}

var (
	_ Transport   = (*Lossy)(nil)
	_ SpanCarrier = (*Lossy)(nil)
)

// NewLossy wraps inner with the given drop policy.
func NewLossy(inner Transport, policy msgnet.DropPolicy, counters *metrics.Counters) *Lossy {
	return &Lossy{Inner: inner, Policy: policy, Counters: counters}
}

// N implements Transport.
func (l *Lossy) N() int { return l.Inner.N() }

// Dial implements Transport.
func (l *Lossy) Dial() error { return l.Inner.Dial() }

// Send implements Transport. The drop decision happens here, before the
// message reaches the wire.
func (l *Lossy) Send(from, to core.ProcID, payload core.Value) error {
	return l.SendSpan(from, to, payload, core.SpanContext{})
}

// SendSpan implements SpanCarrier. Dropping a traced message drops its
// context with it — the trace simply shows the send edge without a matching
// receive, which is exactly what happened.
func (l *Lossy) SendSpan(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if l.Policy != nil && l.Policy.Drop(from, to, payload) {
		l.Counters.Record(from, metrics.MsgSent, 1)
		l.Counters.Record(from, metrics.MsgDropped, 1)
		return nil
	}
	return SendSpan(l.Inner, from, to, payload, sc)
}

// Broadcast implements Transport. The drop policy is consulted per link,
// as in msgnet: a broadcast may reach some destinations and not others.
func (l *Lossy) Broadcast(from core.ProcID, payload core.Value) error {
	return l.BroadcastSpan(from, payload, core.SpanContext{})
}

// BroadcastSpan implements SpanCarrier, consulting the drop policy per
// link like Broadcast.
func (l *Lossy) BroadcastSpan(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	for to := 0; to < l.Inner.N(); to++ {
		if err := l.SendSpan(from, core.ProcID(to), payload, sc); err != nil {
			return err
		}
	}
	return nil
}

// TryRecv implements Transport.
func (l *Lossy) TryRecv(p core.ProcID) (core.Message, bool) { return l.Inner.TryRecv(p) }

// SetWake implements Transport.
func (l *Lossy) SetWake(p core.ProcID, ch chan<- struct{}) { l.Inner.SetWake(p, ch) }

// Instrument implements Instrumentable: drop accounting adopts the
// registry's counters when none were supplied, and the registry is
// forwarded to the wrapped backend.
func (l *Lossy) Instrument(reg *metrics.Registry) {
	if l.Counters == nil {
		l.Counters = reg.Counters()
	}
	if in, ok := l.Inner.(Instrumentable); ok {
		in.Instrument(reg)
	}
}

// LinkState implements Transport.
func (l *Lossy) LinkState(from, to core.ProcID) LinkState { return l.Inner.LinkState(from, to) }

// Close implements Transport.
func (l *Lossy) Close() error { return l.Inner.Close() }

// Delayed layers a msgnet.DeliveryPolicy — the asynchrony adversary — over
// any backend's receive path. Messages flow through the inner transport
// normally; on arrival at p they are held in a buffer stamped with p's
// local poll tick, and TryRecv releases a held message only once the
// policy allows it. Per-link FIFO order is preserved the same way
// msgnet.Network.Tick preserves it: once one message of a link is held,
// later messages of that link wait behind it.
//
// The tick driving the policy is the per-destination TryRecv poll count,
// which makes the wrapper usable over real-time backends where no global
// step counter exists. On the rt host an idle process parks between polls,
// so there the clock advances once per wake-up (an inner delivery or a
// register write) or per yield tick.
type Delayed struct {
	inner  Transport
	policy msgnet.DeliveryPolicy

	mu   sync.Mutex
	now  []uint64    // per-destination poll tick
	held [][]heldMsg // per-destination hold buffer, FIFO
}

type heldMsg struct {
	msg       core.Message
	arrivedAt uint64
}

var (
	_ Transport   = (*Delayed)(nil)
	_ SpanCarrier = (*Delayed)(nil)
)

// NewDelayed wraps inner with the given delivery policy. A nil policy
// delivers immediately.
func NewDelayed(inner Transport, policy msgnet.DeliveryPolicy) *Delayed {
	n := inner.N()
	return &Delayed{
		inner:  inner,
		policy: policy,
		now:    make([]uint64, n),
		held:   make([][]heldMsg, n),
	}
}

// N implements Transport.
func (d *Delayed) N() int { return d.inner.N() }

// Dial implements Transport.
func (d *Delayed) Dial() error { return d.inner.Dial() }

// Send implements Transport.
func (d *Delayed) Send(from, to core.ProcID, payload core.Value) error {
	return d.inner.Send(from, to, payload)
}

// SendSpan implements SpanCarrier. Held messages keep their context: the
// hold buffer stores whole core.Messages, Span field included.
func (d *Delayed) SendSpan(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	return SendSpan(d.inner, from, to, payload, sc)
}

// Broadcast implements Transport.
func (d *Delayed) Broadcast(from core.ProcID, payload core.Value) error {
	return d.inner.Broadcast(from, payload)
}

// BroadcastSpan implements SpanCarrier.
func (d *Delayed) BroadcastSpan(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	return BroadcastSpan(d.inner, from, payload, sc)
}

// TryRecv implements Transport. Each call advances p's local tick, drains
// newly arrived inner messages into the hold buffer, and returns the first
// held message the policy allows (blocking the rest of its link behind it
// if it is still held).
func (d *Delayed) TryRecv(p core.ProcID) (core.Message, bool) {
	if int(p) < 0 || int(p) >= d.inner.N() {
		return core.Message{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now[p]++
	now := d.now[p]
	for {
		m, ok := d.inner.TryRecv(p)
		if !ok {
			break
		}
		d.held[p] = append(d.held[p], heldMsg{msg: m, arrivedAt: now})
	}
	if d.policy == nil {
		if len(d.held[p]) == 0 {
			return core.Message{}, false
		}
		m := d.held[p][0].msg
		d.held[p] = d.held[p][1:]
		return m, true
	}
	blocked := make(map[core.ProcID]bool)
	for i, h := range d.held[p] {
		if blocked[h.msg.From] {
			continue
		}
		if d.policy.Deliverable(h.msg.From, p, h.arrivedAt, now) {
			d.held[p] = append(d.held[p][:i], d.held[p][i+1:]...)
			return h.msg, true
		}
		blocked[h.msg.From] = true
	}
	return core.Message{}, false
}

// SetWake implements Transport: the inner delivery wakes p, and the poll
// that follows moves the message into the hold buffer.
func (d *Delayed) SetWake(p core.ProcID, ch chan<- struct{}) { d.inner.SetWake(p, ch) }

// LinkState implements Transport.
func (d *Delayed) LinkState(from, to core.ProcID) LinkState { return d.inner.LinkState(from, to) }

// Instrument implements Instrumentable by forwarding to the wrapped
// backend: delaying delivery adds no events of its own.
func (d *Delayed) Instrument(reg *metrics.Registry) {
	if in, ok := d.inner.(Instrumentable); ok {
		in.Instrument(reg)
	}
}

// Close implements Transport.
func (d *Delayed) Close() error { return d.inner.Close() }
