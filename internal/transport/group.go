package transport

import (
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
)

// GroupID identifies one m&m group (shard) multiplexed over a shared
// transport. Each group is an independent paper-faithful system — its own
// process numbering 0..N-1, its own register namespace, its own leader —
// but all groups between the same pair of OS processes share one TCP
// connection, one sequence-number space and one cumulative-ack stream.
// No id is special: group 0 is opened like any other.
type GroupID uint32

// GroupConfig describes one group's slice of a sharded transport.
type GroupConfig struct {
	// N is the number of processes in the group.
	N int
	// Hosted lists the group's processes resident on this node. Empty
	// means all N are local (single-node groups).
	Hosted []core.ProcID
	// Addrs maps the group's ProcIDs to node listen addresses. Addresses
	// are node-level: many groups share the node's one listener. Nil is
	// allowed only when every process is local.
	Addrs []string
	// Registry optionally receives the group's message/RPC metrics. When
	// nil the group is uninstrumented until Instrument is called on the
	// returned view.
	Registry *metrics.Registry
}

// Sharded is a node-level transport that multiplexes many independent
// groups over the same underlying links. OpenGroup returns a
// group-scoped Transport view — Send/Broadcast/TryRecv/Call on the view
// route only within that group, and Close on the view closes only the
// group (the node and its connections stay up for the remaining groups).
// Close on the node closes every group and drains the node's links. The
// socket backend (transport/tcp) implements it; the in-process Chan is a
// single system and does not.
type Sharded interface {
	// OpenGroup registers group g and returns its scoped view. Opening a
	// group that is already open is an error.
	OpenGroup(g GroupID, cfg GroupConfig) (Transport, error)
	// Close closes every open group and releases the node.
	Close() error
}
