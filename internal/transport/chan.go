package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
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
	kind   msgnet.LinkKind
	closed atomic.Bool
	reg    atomic.Pointer[metrics.Registry]

	mu     sync.Mutex
	groups map[GroupID]*chanGroup
}

var (
	_ Transport      = (*Chan)(nil)
	_ SpanCarrier    = (*Chan)(nil)
	_ Instrumentable = (*Chan)(nil)
	_ Sharded        = (*Chan)(nil)
	_ SpanCarrier    = (*chanGroup)(nil)
)

// NewChan returns an in-process transport among n processes with links of
// the given kind. The msgnet options (drop policy, counters) are applied
// to the underlying network; auto-deliver mode is always enabled.
func NewChan(n int, kind msgnet.LinkKind, opts ...msgnet.NetOption) *Chan {
	opts = append([]msgnet.NetOption{msgnet.WithAutoDeliver()}, opts...)
	return &Chan{net: msgnet.NewNetwork(n, kind, opts...), kind: kind}
}

// Network exposes the underlying msgnet.Network for observer-level
// inspection (mailbox lengths, in-flight counts) by tests and experiments.
func (c *Chan) Network() *msgnet.Network { return c.net }

// Instrument implements Instrumentable. The channel backend has no wire
// events of its own — message counters flow through the msgnet counters
// installed at construction — so the registry is only retained for
// Registry, keeping the observability schema uniform across backends.
func (c *Chan) Instrument(reg *metrics.Registry) { c.reg.Store(reg) }

// Registry returns the registry installed by Instrument, or nil.
func (c *Chan) Registry() *metrics.Registry { return c.reg.Load() }

// N implements Transport.
func (c *Chan) N() int { return c.net.N() }

// Dial implements Transport. In-process links need no setup.
func (c *Chan) Dial() error { return nil }

// Send implements Transport.
func (c *Chan) Send(from, to core.ProcID, payload core.Value) error {
	return c.SendSpan(from, to, payload, core.SpanContext{})
}

// SendSpan implements SpanCarrier: the context rides the msgnet mailbox
// entry and comes back out as Message.Span.
func (c *Chan) SendSpan(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.net.SendSpan(from, to, payload, sc, 0)
}

// Broadcast implements Transport.
func (c *Chan) Broadcast(from core.ProcID, payload core.Value) error {
	return c.BroadcastSpan(from, payload, core.SpanContext{})
}

// BroadcastSpan implements SpanCarrier.
func (c *Chan) BroadcastSpan(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.net.BroadcastSpan(from, payload, sc, 0)
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
// send has already been delivered. Open group views are closed too.
func (c *Chan) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	groups := c.groups
	c.groups = nil
	c.mu.Unlock()
	for _, g := range groups {
		g.closed.Store(true)
	}
	return nil
}

// OpenGroup implements Sharded. In-process groups are fully independent
// — each gets its own msgnet.Network with the parent's link kind, which
// is group-scoped demux in its purest form: there is no shared wire for
// shards to leak across. cfg.Hosted and cfg.Addrs are ignored (all
// processes are local); cfg.Registry's counters, when present, meter the
// group's network.
func (c *Chan) OpenGroup(g GroupID, cfg GroupConfig) (Transport, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if g == 0 {
		return nil, fmt.Errorf("transport: group 0 is the base transport; open it with NewChan")
	}
	opts := []msgnet.NetOption{msgnet.WithAutoDeliver()}
	if cfg.Registry != nil {
		opts = append(opts, msgnet.WithNetCounters(cfg.Registry.Counters()))
	}
	grp := &chanGroup{Chan: Chan{net: msgnet.NewNetwork(cfg.N, c.kind, opts...), kind: c.kind}, parent: c, id: g}
	if cfg.Registry != nil {
		grp.reg.Store(cfg.Registry)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.groups == nil {
		c.groups = make(map[GroupID]*chanGroup)
	}
	if _, dup := c.groups[g]; dup {
		return nil, fmt.Errorf("transport: group %d already open", g)
	}
	c.groups[g] = grp
	return grp, nil
}

// chanGroup is one group's view of a sharded Chan: a private network with
// the parent's link kind. Closing the view detaches only this group.
type chanGroup struct {
	Chan
	parent *Chan
	id     GroupID
}

// Close implements Transport for the group view.
func (g *chanGroup) Close() error {
	g.closed.Store(true)
	g.parent.mu.Lock()
	delete(g.parent.groups, g.id)
	g.parent.mu.Unlock()
	return nil
}
