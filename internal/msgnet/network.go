package msgnet

import (
	"fmt"
	"sync"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/queue"
)

// Network is a fully connected set of directed links among n processes,
// with per-process FIFO mailboxes: the simulator's network. It is safe
// for concurrent use.
//
// Sent messages are queued in flight, and Tick(now) moves every message
// the DeliveryPolicy allows into its destination mailbox. The simulator
// calls Tick after every scheduler step, which makes message asynchrony
// part of the adversary's schedule. (The real-time host's in-process
// backend, transport.Chan, delivers at Send instead.)
type Network struct {
	n        int
	kind     LinkKind
	drop     DropPolicy
	delivery DeliveryPolicy
	counters *metrics.Counters

	mu        sync.Mutex
	inflight  []flight
	mailboxes []queue.Ring[core.Message]
	sendSeq   uint64
}

type flight struct {
	from   core.ProcID
	to     core.ProcID
	pay    core.Value
	span   core.SpanContext
	sentAt uint64
	seq    uint64
}

// NetOption configures a Network.
type NetOption func(*Network)

// WithDropPolicy installs the fair-loss drop policy. Ignored for reliable
// networks (reliable links never drop).
func WithDropPolicy(p DropPolicy) NetOption {
	return func(n *Network) { n.drop = p }
}

// WithDeliveryPolicy installs the asynchrony adversary.
func WithDeliveryPolicy(p DeliveryPolicy) NetOption {
	return func(n *Network) { n.delivery = p }
}

// WithNetCounters meters sends, deliveries and drops into c.
func WithNetCounters(c *metrics.Counters) NetOption {
	return func(n *Network) { n.counters = c }
}

// NewNetwork returns a network among n processes with links of the given
// kind.
func NewNetwork(n int, kind LinkKind, opts ...NetOption) *Network {
	net := &Network{
		n:         n,
		kind:      kind,
		drop:      NoDrop{},
		delivery:  Immediate{},
		mailboxes: make([]queue.Ring[core.Message], n),
	}
	for _, o := range opts {
		o(net)
	}
	if net.kind == Reliable {
		net.drop = NoDrop{}
	}
	return net
}

// Send sends payload from→to at tick now: unless the drop policy drops
// it, the message is in flight until a Tick delivers it. The trace context
// sc rides the in-flight entry and is surfaced on the delivered
// core.Message, exactly as the TCP backend carries it in the wire frame
// header; the network never interprets it, and the zero context means
// untraced.
func (net *Network) Send(from, to core.ProcID, payload core.Value, sc core.SpanContext, now uint64) error {
	if int(to) < 0 || int(to) >= net.n {
		return fmt.Errorf("%w: send to %v", core.ErrUnknownProc, to)
	}
	if int(from) < 0 || int(from) >= net.n {
		return fmt.Errorf("%w: send from %v", core.ErrUnknownProc, from)
	}
	net.counters.Record(from, metrics.MsgSent, 1)
	if net.kind == FairLossy && net.drop.Drop(from, to, payload) {
		net.counters.Record(from, metrics.MsgDropped, 1)
		return nil
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	net.sendSeq++
	net.inflight = append(net.inflight, flight{
		from:   from,
		to:     to,
		pay:    payload,
		span:   sc,
		sentAt: now,
		seq:    net.sendSeq,
	})
	return nil
}

// Broadcast sends payload from every-link of from, including the self link
// (Ben-Or style "send to all"), every copy carrying sc. It counts as a
// single send operation of the process but one message per link.
func (net *Network) Broadcast(from core.ProcID, payload core.Value, sc core.SpanContext, now uint64) error {
	for to := 0; to < net.n; to++ {
		if err := net.Send(from, core.ProcID(to), payload, sc, now); err != nil {
			return err
		}
	}
	return nil
}

func (net *Network) deliverLocked(f flight) {
	net.mailboxes[f.to].Push(core.Message{From: f.from, Payload: f.pay, Span: f.span})
	net.counters.Record(f.to, metrics.MsgDelivered, 1)
}

// Tick delivers every in-flight message the delivery policy allows at tick
// now, preserving per-link send order (links are FIFO in this
// implementation; the model does not require it, but determinism does).
func (net *Network) Tick(now uint64) {
	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.inflight) == 0 {
		return
	}
	// A message may only overtake another on the same link if the policy
	// holds the earlier one; to keep links FIFO we block a link once one
	// of its messages is held this tick.
	blocked := make(map[[2]core.ProcID]bool)
	rest := net.inflight[:0]
	for _, f := range net.inflight {
		link := [2]core.ProcID{f.from, f.to}
		if !blocked[link] && net.delivery.Deliverable(f.from, f.to, f.sentAt, now) {
			net.deliverLocked(f)
			continue
		}
		blocked[link] = true
		rest = append(rest, f)
	}
	net.inflight = rest
}

// Recv pops the next message from p's mailbox. Mailboxes are ring
// buffers: the pop is O(1) whatever the queue depth, and the vacated slot
// is zeroed so the buffer does not pin delivered payloads.
func (net *Network) Recv(p core.ProcID) (core.Message, bool) {
	if int(p) < 0 || int(p) >= net.n {
		return core.Message{}, false
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	return net.mailboxes[p].Pop()
}
