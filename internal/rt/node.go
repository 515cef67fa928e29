// Node: the per-OS-process half of the runtime API. A Node owns what is
// physical — the node transport (listener, connections, frame plane), the
// directory, the root metrics registry — and hands out Groups, which own
// what is logical: one group's GSM, hosted set, register namespace and
// process goroutines. Every group, 0 included, is opened the same way.
// Thousands of groups multiplex over one node's connections; each group's
// Stop detaches only its group, and Node.Close tears the whole process
// down.

package rt

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/runcfg"
	"github.com/mnm-model/mnm/internal/trace"
	"github.com/mnm-model/mnm/internal/transport"
)

// NodeConfig describes the per-process plane shared by every group.
type NodeConfig struct {
	// Transport is the node's shared message plane (a
	// transport/tcp.Transport); every group is a view opened on it. Nil
	// builds a transport-less node whose groups each run over a private
	// in-process channel backend — the single-machine multi-tenant
	// configuration.
	Transport transport.Sharded

	// Directory maps groups to the nodes hosting their processes. Nil
	// defaults to directory.AllLocal (every group entirely on this node).
	Directory directory.Directory

	// Registry is the node's root observability plane. Each group gets a
	// labeled sub-registry ("group-<id>") under it, so one scrape of the
	// root renders the node-level frame counters plus every shard's rows.
	// Nil synthesizes an empty root registry.
	Registry *metrics.Registry

	// Flight, if non-nil, is the node's span flight recorder, shared by
	// every group the way the transport and root registry are: each group
	// records into it under its "group-<id>" label, and one /trace scrape
	// dumps the whole node. Nil disables span tracing.
	Flight *trace.Flight

	// Logf, if non-nil, receives node- and group-lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// GroupConfig describes one shard to be opened on a Node. The embedded
// RunConfig carries the host-independent knobs (GSM is required; Seed,
// Links, Drop, Logf as usual); the group meters into its sub-registry and
// traces into the node's Flight.
type GroupConfig struct {
	runcfg.RunConfig

	// Registry, if non-nil, overrides the group's metering plane. The
	// default is a "group-<id>" sub-registry of the node's root registry,
	// which is what the exporters and /status render per group.
	Registry *metrics.Registry

	// Durable, if non-nil, journals this group's register mutations and
	// seeds its memory with the store's recovered state — see
	// rt.Config.Durable. Each group needs its own store (its own WAL
	// directory); the group closes it on Stop.
	Durable *durable.Registers
}

// Node is the per-OS-process runtime object: one shared transport, one
// directory, one root registry, many Groups.
type Node struct {
	tr     transport.Sharded // nil on a transport-less node
	dir    directory.Directory
	reg    *metrics.Registry
	flight *trace.Flight // nil when span tracing is off
	logf   func(format string, args ...any)
	addr   string // own listen address, "" when the transport has none

	mu     sync.Mutex
	groups map[transport.GroupID]*Group
	closed bool
}

// NewNode builds the per-process plane. The transport must already be
// constructed (and, for sockets, listening); the node does not dial —
// each group dials its own view when opened.
func NewNode(cfg NodeConfig) (*Node, error) {
	dir := cfg.Directory
	if dir == nil {
		dir = directory.AllLocal{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry(0)
	}
	n := &Node{
		tr:     cfg.Transport,
		dir:    dir,
		reg:    reg,
		flight: cfg.Flight,
		logf:   cfg.Logf,
		groups: make(map[transport.GroupID]*Group),
	}
	if cfg.Transport != nil {
		if a, ok := cfg.Transport.(interface{ Addr() string }); ok {
			n.addr = a.Addr()
		}
		if in, ok := cfg.Transport.(transport.Instrumentable); ok {
			in.Instrument(reg)
		}
	}
	return n, nil
}

// OpenGroup resolves the group through the directory, opens its view of
// the node transport, and builds + returns the running Group (started
// lazily, exactly like New: call Start on it). Any id may be opened, 0
// included.
func (nd *Node) OpenGroup(id transport.GroupID, cfg GroupConfig, alg core.Algorithm) (*Group, error) {
	if cfg.GSM == nil {
		return nil, errors.New("rt: GroupConfig.GSM is required")
	}
	n := cfg.GSM.N()
	if n == 0 {
		return nil, errors.New("rt: empty group")
	}

	asn, ok := nd.dir.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("rt: directory has no assignment for group %d", id)
	}
	var hosted []core.ProcID
	if !asn.Local() {
		if len(asn.Addrs) != n {
			return nil, fmt.Errorf("rt: group %d assignment spans %d processes, GSM has %d", id, len(asn.Addrs), n)
		}
		if nd.addr == "" {
			return nil, fmt.Errorf("rt: group %d is distributed but the node transport has no listen address", id)
		}
		hosted = asn.HostedAt(nd.addr)
		if len(hosted) == 0 {
			return nil, fmt.Errorf("rt: group %d assigns no process to this node (%s)", id, nd.addr)
		}
	}

	greg := cfg.Registry
	if greg == nil {
		greg = nd.reg.Sub(fmt.Sprintf("group-%d", id), n)
	}

	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if _, dup := nd.groups[id]; dup {
		nd.mu.Unlock()
		return nil, fmt.Errorf("rt: group %d already open on this node", id)
	}
	// Reserve the slot before the blocking work so a concurrent OpenGroup
	// of the same id fails fast instead of racing to the transport.
	nd.groups[id] = nil
	nd.mu.Unlock()

	release := func() {
		nd.mu.Lock()
		delete(nd.groups, id)
		nd.mu.Unlock()
	}

	var gtr transport.Transport
	if nd.tr != nil {
		var err error
		gtr, err = nd.tr.OpenGroup(id, transport.GroupConfig{
			N:        n,
			Hosted:   hosted,
			Addrs:    asn.Addrs,
			Registry: greg,
		})
		if err != nil {
			release()
			return nil, fmt.Errorf("rt: open group %d: %w", id, err)
		}
	} else if !asn.Local() {
		release()
		return nil, fmt.Errorf("rt: group %d is distributed but the node has no transport", id)
	}
	// gtr == nil (transport-less node, local assignment) lets New build
	// the group's private channel backend.

	hcfg := Config{
		RunConfig: cfg.RunConfig,
		Transport: gtr,
		Hosted:    hosted,
		Registry:  greg,
		Durable:   cfg.Durable,
		Flight:    nd.flight,
		SpanGroup: fmt.Sprintf("group-%d", id),
	}
	if hcfg.Logf == nil {
		hcfg.Logf = nd.logf
	}
	g, err := New(hcfg, alg)
	if err != nil {
		if gtr != nil {
			gtr.Close() // detach the shard we just opened
		}
		release()
		return nil, err
	}
	g.onStop = release

	nd.mu.Lock()
	if nd.closed {
		// Close raced in while we were building: undo.
		nd.mu.Unlock()
		g.Stop()
		return nil, transport.ErrClosed
	}
	nd.groups[id] = g
	nd.mu.Unlock()
	return g, nil
}

// Group returns the open group with the given id, or nil.
func (nd *Node) Group(id transport.GroupID) *Group {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.groups[id]
}

// Groups returns the ids of all open groups, ascending. A group being
// opened concurrently (slot reserved, host not built yet) is skipped.
func (nd *Node) Groups() []transport.GroupID {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	out := make([]transport.GroupID, 0, len(nd.groups))
	for id, g := range nd.groups {
		if g != nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Registry returns the node's root observability registry (group
// sub-registries hang off it).
func (nd *Node) Registry() *metrics.Registry { return nd.reg }

// Transport returns the node transport, or nil.
func (nd *Node) Transport() transport.Sharded { return nd.tr }

// Addr returns the node's listen address, or "" without one.
func (nd *Node) Addr() string { return nd.addr }

// Close stops every open group (detaching its shard), then closes the
// shared transport — the node-level drain. Safe to call multiple times.
func (nd *Node) Close() error {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil
	}
	nd.closed = true
	open := make([]*Group, 0, len(nd.groups))
	for _, g := range nd.groups {
		if g != nil {
			open = append(open, g)
		}
	}
	nd.mu.Unlock()
	// Stop in parallel: a group's Stop waits for its processes to unwind,
	// and a follower mid-RPC finishes the round trip first — serializing
	// a thousand of those waits would turn shutdown into minutes.
	var wg sync.WaitGroup
	for _, g := range open {
		wg.Add(1)
		go func(g *Group) {
			defer wg.Done()
			g.Stop()
		}(g)
	}
	wg.Wait()
	if nd.tr != nil {
		return nd.tr.Close()
	}
	return nil
}
