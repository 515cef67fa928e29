package transport

import (
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
// same accounting the simulator's msgnet performs), so experiment tables
// stay comparable across backends.
type Lossy struct {
	// Inner is the wrapped backend.
	Inner Transport
	// Policy decides the drops. A nil policy never drops.
	Policy msgnet.DropPolicy
	// Counters, if non-nil, receives MsgSent/MsgDropped for dropped
	// messages. Delivered messages are metered by the inner backend.
	Counters *metrics.Counters
}

var _ Transport = (*Lossy)(nil)

// NewLossy wraps inner with the given drop policy.
func NewLossy(inner Transport, policy msgnet.DropPolicy, counters *metrics.Counters) *Lossy {
	return &Lossy{Inner: inner, Policy: policy, Counters: counters}
}

// N implements Transport.
func (l *Lossy) N() int { return l.Inner.N() }

// Dial implements Transport.
func (l *Lossy) Dial() error { return l.Inner.Dial() }

// Send implements Transport. The drop decision happens here, before the
// message reaches the wire. Dropping a traced message drops its context
// with it — the trace simply shows the send edge without a matching
// receive, which is exactly what happened.
func (l *Lossy) Send(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if l.Policy != nil && l.Policy.Drop(from, to, payload) {
		l.Counters.Record(from, metrics.MsgSent, 1)
		l.Counters.Record(from, metrics.MsgDropped, 1)
		return nil
	}
	return l.Inner.Send(from, to, payload, sc)
}

// Broadcast implements Transport. The drop policy is consulted per link,
// as in msgnet: a broadcast may reach some destinations and not others.
func (l *Lossy) Broadcast(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	for to := 0; to < l.Inner.N(); to++ {
		if err := l.Send(from, core.ProcID(to), payload, sc); err != nil {
			return err
		}
	}
	return nil
}

// TryRecv implements Transport.
func (l *Lossy) TryRecv(p core.ProcID) (core.Message, bool) { return l.Inner.TryRecv(p) }

// SetWake implements Transport.
func (l *Lossy) SetWake(p core.ProcID, ch chan<- struct{}) { l.Inner.SetWake(p, ch) }

// LinkState implements Transport.
func (l *Lossy) LinkState(from, to core.ProcID) LinkState { return l.Inner.LinkState(from, to) }

// Close implements Transport.
func (l *Lossy) Close() error { return l.Inner.Close() }
