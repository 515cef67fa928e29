package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// meshDrain bounds how long closing a mesh waits for unacknowledged
// frames. Every unit has completed (and been checked) by then, so nothing
// that matters is in flight; the default 5 s would only be spent waiting
// for acks from nodes that closed first.
const meshDrain = 250 * time.Millisecond

// linksUpTimeout bounds the wait for every loopback link of a new mesh.
const linksUpTimeout = 5 * time.Second

// system is one opened m&m group as the generator sees it: the rt.Groups
// to start and stop (one per node over TCP, a single one over Chan) and
// where each process runs.
type system struct {
	groups []*rt.Group
	procOf []*rt.Group // procOf[p] hosts process p
}

func (s system) start() {
	for _, g := range s.groups {
		g.Start()
	}
}

// stop stops every group and returns the first process error, if any.
func (s system) stop() error {
	var first error
	for _, g := range s.groups {
		if err := g.Stop().Err(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s system) exposed(p int, key string) core.Value {
	return s.procOf[p].Exposed(core.ProcID(p), key)
}

// backend builds systems: a loopback-TCP mesh or a transport-less node.
type backend interface {
	// open builds (without starting) one fresh group running alg. stores,
	// when non-nil, holds one durable register store per node.
	open(gsm *graph.Graph, seed int64, alg core.Algorithm, stores []*durable.Registers) (system, error)
	registry() *metrics.Registry
	close() error
}

// mesh is an n-node loopback-TCP cluster inside this process: one
// tcp.Transport and one rt.Node per node, every link up, and one registry
// that all nodes and groups meter into (the benchmark only ever reads
// cluster-wide totals).
type mesh struct {
	reg   *metrics.Registry
	trs   []*tcp.Transport
	nodes []*rt.Node
	addrs []string
	next  transport.GroupID
}

var _ backend = (*mesh)(nil)

// newMesh listens on n loopback ports, wraps each transport in an rt.Node
// and returns once every directed link is up.
func newMesh(n int) (*mesh, error) {
	m := &mesh{reg: metrics.NewRegistry(n)}
	for i := 0; i < n; i++ {
		tr, err := tcp.New(tcp.Config{
			ListenAddr: "127.0.0.1:0",
			Registry:   m.reg,
			Timeouts:   tcp.Timeouts{Drain: meshDrain},
		})
		if err != nil {
			m.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		m.trs = append(m.trs, tr)
		m.addrs = append(m.addrs, tr.Addr())
	}
	for i, tr := range m.trs {
		nd, err := rt.NewNode(rt.NodeConfig{
			Transport: tr,
			Directory: directory.Uniform{Addrs: m.addrs},
			Registry:  m.reg,
		})
		if err != nil {
			m.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		m.nodes = append(m.nodes, nd)
	}
	if err := m.awaitLinks(); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

func (m *mesh) registry() *metrics.Registry { return m.reg }

func (m *mesh) groupID() transport.GroupID {
	m.next++
	return m.next
}

// openRaw opens one fresh group directly on every node's transport (no
// rt host on top) and dials it: view i hosts process i.
func (m *mesh) openRaw() ([]transport.Transport, error) {
	gid := m.groupID()
	views := make([]transport.Transport, len(m.trs))
	for i, tr := range m.trs {
		v, err := tr.OpenGroup(gid, transport.GroupConfig{
			N: len(m.trs), Hosted: []core.ProcID{core.ProcID(i)}, Addrs: m.addrs, Registry: m.reg,
		})
		if err == nil {
			err = v.Dial()
		}
		if err != nil {
			closeViews(views)
			return nil, fmt.Errorf("raw group on node %d: %w", i, err)
		}
		views[i] = v
	}
	return views, nil
}

func closeViews(views []transport.Transport) {
	for _, v := range views {
		if v != nil {
			v.Close()
		}
	}
}

// awaitLinks dials every node pair through a throwaway raw group and waits
// until all directed links report up, so no unit pays for a connect.
func (m *mesh) awaitLinks() error {
	views, err := m.openRaw()
	if err != nil {
		return err
	}
	defer closeViews(views)
	start := time.Now()
	for i, v := range views {
		for j := range views {
			for i != j && v.LinkState(core.ProcID(i), core.ProcID(j)) != transport.LinkUp {
				if time.Since(start) > linksUpTimeout {
					return fmt.Errorf("link %d->%d not up after %v", i, j, linksUpTimeout)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	return nil
}

func (m *mesh) open(gsm *graph.Graph, seed int64, alg core.Algorithm, stores []*durable.Registers) (system, error) {
	gid := m.groupID()
	var s system
	for i, nd := range m.nodes {
		cfg := rt.GroupConfig{RunConfig: rt.RunConfig{GSM: gsm, Seed: seed}, Registry: m.reg}
		if stores != nil {
			cfg.Durable = stores[i]
		}
		g, err := nd.OpenGroup(gid, cfg, alg)
		if err != nil {
			s.stop()
			return system{}, fmt.Errorf("open group %d on node %d: %w", gid, i, err)
		}
		s.groups = append(s.groups, g)
	}
	s.procOf = s.groups
	return s, nil
}

// close closes all nodes at once, so that their drains can still
// acknowledge one another.
func (m *mesh) close() error {
	errs := make([]error, len(m.trs))
	var wg sync.WaitGroup
	for i := range m.trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i < len(m.nodes) {
				errs[i] = m.nodes[i].Close()
			} else {
				errs[i] = m.trs[i].Close()
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// chanNode is the transport-less backend: every group runs all its
// processes in this process over the in-memory Chan transport.
type chanNode struct {
	reg  *metrics.Registry
	node *rt.Node
	next transport.GroupID
}

var _ backend = (*chanNode)(nil)

func newChanNode(n int) (*chanNode, error) {
	reg := metrics.NewRegistry(n)
	nd, err := rt.NewNode(rt.NodeConfig{Registry: reg})
	if err != nil {
		return nil, err
	}
	return &chanNode{reg: reg, node: nd}, nil
}

func (c *chanNode) registry() *metrics.Registry { return c.reg }

func (c *chanNode) open(gsm *graph.Graph, seed int64, alg core.Algorithm, _ []*durable.Registers) (system, error) {
	c.next++
	g, err := c.node.OpenGroup(c.next, rt.GroupConfig{
		RunConfig: rt.RunConfig{GSM: gsm, Seed: seed}, Registry: c.reg,
	}, alg)
	if err != nil {
		return system{}, err
	}
	s := system{groups: []*rt.Group{g}}
	for p := 0; p < gsm.N(); p++ {
		s.procOf = append(s.procOf, g)
	}
	return s, nil
}

func (c *chanNode) close() error { return c.node.Close() }
