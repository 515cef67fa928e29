// Package shm is the shared-memory substrate of the m&m model: a store of
// named atomic read/write registers governed by a shared-memory domain
// (§3 of the paper).
//
// Three properties of the paper's shared memory are enforced here:
//
//  1. Access control: in the uniform model, a register owned by process p
//     may be accessed only by {p} ∪ neighbors(p) in the shared-memory graph
//     G_SM. Out-of-domain accesses fail with core.ErrAccessDenied, exactly
//     as RDMA hardware would refuse an unregistered memory region.
//  2. Crash survivability: the store belongs to the system, not to any
//     process, so register contents remain readable and writable after the
//     owner crashes (the paper: "the shared memory does not fail" — with
//     RDMA, memory stays registered with the kernel after a process crash).
//  3. Locality accounting (§5.3): each access is metered as local (by the
//     owner) or remote, feeding the steady-state efficiency experiments.
package shm

import (
	"fmt"
	"reflect"
	"sync"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/metrics"
)

// Domain decides which processes may access which registers — the paper's
// shared-memory domain S, reduced to a membership predicate.
type Domain interface {
	// MayAccess reports whether process p may read or write register r.
	MayAccess(p core.ProcID, r core.Ref) bool
}

// UniformDomain is the uniform shared-memory domain induced by a
// shared-memory graph G_SM: register r is accessible by r.Owner and its
// neighbors. This is the model variant all of the paper's results use.
type UniformDomain struct {
	gsm *graph.Graph
}

var _ Domain = (*UniformDomain)(nil)

// NewUniformDomain returns the uniform domain of gsm.
func NewUniformDomain(gsm *graph.Graph) *UniformDomain {
	return &UniformDomain{gsm: gsm}
}

// MayAccess implements Domain.
func (d *UniformDomain) MayAccess(p core.ProcID, r core.Ref) bool {
	if int(p) < 0 || int(p) >= d.gsm.N() || int(r.Owner) < 0 || int(r.Owner) >= d.gsm.N() {
		return false
	}
	return p == r.Owner || d.gsm.HasEdge(int(p), int(r.Owner))
}

// Graph returns the underlying shared-memory graph.
func (d *UniformDomain) Graph() *graph.Graph { return d.gsm }

// Sets returns the shared-memory domain S = {S_p : p ∈ Π} where
// S_p = {p} ∪ neighbors(p), as sorted id lists indexed by p — the structure
// shown in Figure 1 of the paper.
func (d *UniformDomain) Sets() [][]core.ProcID {
	n := d.gsm.N()
	out := make([][]core.ProcID, n)
	for p := 0; p < n; p++ {
		set := make([]core.ProcID, 0, d.gsm.Degree(p)+1)
		added := false
		for _, q := range d.gsm.Neighbors(p) {
			if !added && q > p {
				set = append(set, core.ProcID(p))
				added = true
			}
			set = append(set, core.ProcID(q))
		}
		if !added {
			set = append(set, core.ProcID(p))
		}
		out[p] = set
	}
	return out
}

// OpenDomain allows every process to access every register. Equivalent to
// the uniform domain of the complete graph, without requiring one to be
// built; useful for pure shared-memory baselines.
type OpenDomain struct{}

var _ Domain = OpenDomain{}

// MayAccess implements Domain.
func (OpenDomain) MayAccess(core.ProcID, core.Ref) bool { return true }

// Memory is the register store. It is safe for concurrent use: in the
// simulator host only one process runs at a time, while the real-time host
// issues truly concurrent accesses; the same Memory serves both.
type Memory struct {
	domain   Domain
	counters *metrics.Counters
	journal  Journal

	mu     sync.RWMutex
	regs   map[core.Ref]core.Value
	failed map[core.ProcID]bool
}

// Journal receives every mutation before it becomes visible: Memory calls
// Apply under its own lock, and only installs the new value if Apply
// returns nil. durable.Registers satisfies this interface — wiring it in
// is what upgrades the store from crash-stop to the paper's crash-recovery
// model ("the shared memory does not fail"): a journaled-and-fsync'd write
// survives kill -9 and is restored via Restore on the next start.
type Journal interface {
	Apply(ref core.Ref, v core.Value) error
}

// Option configures a Memory.
type Option func(*Memory)

// WithCounters meters every access into c.
func WithCounters(c *metrics.Counters) Option {
	return func(m *Memory) { m.counters = c }
}

// WithJournal journals every mutation through j before applying it.
func WithJournal(j Journal) Option {
	return func(m *Memory) { m.journal = j }
}

// NewMemory returns an empty register store governed by domain.
func NewMemory(domain Domain, opts ...Option) *Memory {
	m := &Memory{
		domain: domain,
		regs:   make(map[core.Ref]core.Value),
		failed: make(map[core.ProcID]bool),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Read atomically reads register ref on behalf of process p. A register
// that was never written reads as nil (registers have well-defined initial
// values; algorithms treat nil as their documented initial state).
func (m *Memory) Read(p core.ProcID, ref core.Ref) (core.Value, error) {
	if !m.domain.MayAccess(p, ref) {
		return nil, fmt.Errorf("%w: %v reading %v", core.ErrAccessDenied, p, ref)
	}
	m.mu.RLock()
	dead := m.failed[ref.Owner]
	v := m.regs[ref]
	m.mu.RUnlock()
	if dead {
		return nil, fmt.Errorf("%w: %v reading %v", core.ErrMemoryFailed, p, ref)
	}
	m.meter(p, ref, metrics.RegReadLocal, metrics.RegReadRemote)
	return v, nil
}

// Write atomically writes register ref on behalf of process p.
func (m *Memory) Write(p core.ProcID, ref core.Ref, v core.Value) error {
	if !m.domain.MayAccess(p, ref) {
		return fmt.Errorf("%w: %v writing %v", core.ErrAccessDenied, p, ref)
	}
	m.mu.Lock()
	if m.failed[ref.Owner] {
		m.mu.Unlock()
		return fmt.Errorf("%w: %v writing %v", core.ErrMemoryFailed, p, ref)
	}
	err := m.storeLocked(ref, v)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	m.meter(p, ref, metrics.RegWriteLocal, metrics.RegWriteRemote)
	return nil
}

// storeLocked journals v, then installs it — the one place a register
// changes on behalf of a process, so a value readers can observe is
// already durable, and a journal error leaves the register untouched
// (TestJournalErrorBlocksMutation pins the order). Caller holds m.mu.
func (m *Memory) storeLocked(ref core.Ref, v core.Value) error {
	if m.journal != nil {
		if err := m.journal.Apply(ref, v); err != nil {
			return fmt.Errorf("journal %v: %w", ref, err)
		}
	}
	m.regs[ref] = v
	return nil
}

func (m *Memory) meter(p core.ProcID, ref core.Ref, local, remote metrics.Kind) {
	if m.counters == nil {
		return
	}
	if p == ref.Owner {
		m.counters.Record(p, local, 1)
	} else {
		m.counters.Record(p, remote, 1)
	}
}

// CompareAndSwap atomically writes desired to ref if its current contents
// equal expected (compared structurally; nil matches a never-written
// register). It reports whether the swap happened and returns the value
// observed before the operation. CAS models RDMA atomic verbs; see
// core.Env.CompareAndSwap for the modeling caveat.
func (m *Memory) CompareAndSwap(p core.ProcID, ref core.Ref, expected, desired core.Value) (bool, core.Value, error) {
	if !m.domain.MayAccess(p, ref) {
		return false, nil, fmt.Errorf("%w: %v cas %v", core.ErrAccessDenied, p, ref)
	}
	m.mu.Lock()
	if m.failed[ref.Owner] {
		m.mu.Unlock()
		return false, nil, fmt.Errorf("%w: %v cas %v", core.ErrMemoryFailed, p, ref)
	}
	cur := m.regs[ref]
	swapped := reflect.DeepEqual(cur, expected)
	if swapped {
		if err := m.storeLocked(ref, desired); err != nil {
			m.mu.Unlock()
			return false, nil, err
		}
	}
	m.mu.Unlock()
	m.meter(p, ref, metrics.RegWriteLocal, metrics.RegWriteRemote)
	return swapped, cur, nil
}

// FailOwner marks every register physically hosted at owner as failed:
// subsequent accesses return core.ErrMemoryFailed. This inverts the
// paper's §3 assumption that "the shared memory does not fail" (which RDMA
// provides by keeping regions registered after a process crash); it exists
// for the ablation showing the assumption is load-bearing — with
// memory-dies-with-process semantics, the m&m algorithms lose the
// properties the paper proves.
func (m *Memory) FailOwner(owner core.ProcID) {
	m.mu.Lock()
	m.failed[owner] = true
	m.mu.Unlock()
}

// OwnerFailed reports whether owner's memory has been failed.
func (m *Memory) OwnerFailed(owner core.ProcID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.failed[owner]
}

// Restore installs a recovered register value without domain checks,
// metering, or journaling. It is the recovery half of WithJournal: the
// host seeds the store from durable.Registers.Recovered() before any
// process runs, so re-seeding must not re-journal (the value is already
// on disk) and must not count as an access (no process performed one).
func (m *Memory) Restore(ref core.Ref, v core.Value) {
	m.mu.Lock()
	m.regs[ref] = v
	m.mu.Unlock()
}

// Peek reads a register without domain checks or metering. It is an
// observer facility for tests and experiment harnesses, not part of the
// model: algorithms must go through Read.
func (m *Memory) Peek(ref core.Ref) (core.Value, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.regs[ref]
	return v, ok
}

// Len returns the number of registers that have been written at least once
// — a proxy for the memory footprint of an algorithm.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.regs)
}
