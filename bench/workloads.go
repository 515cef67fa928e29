package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/rsm"
	"github.com/mnm-model/mnm/internal/transport"
)

// Workload constants. They are part of the benchmark's definition: a
// change to any of them starts a new baseline.
const (
	// unitTimeout fails a unit that has not completed; its group is
	// stopped and the run continues.
	unitTimeout = 5 * time.Second
	// pollEvery is how often the generator looks at what replicas expose.
	// RSM epochs last tens of milliseconds, so this costs under 1 %.
	pollEvery = 200 * time.Microsecond

	rsmTCPCommands     = 200  // K of rsm-tcp3
	rsmDurableCommands = 16   // K of rsm-tcp3-durable: ~100 ms epochs, enough of them for a p95
	rsmChanCommands    = 2000 // K of rsm-chan3: a deep backlog
	regmixRegisters    = 64   // registers per owner in regmix-tcp2
	groupNodes         = 3    // processes of hbo-tcp3 and rsm-*
	regmixNodes        = 2
	fanoutNodes        = 4
	fanoutBurst        = 512 // broadcasts enqueued per unit
)

// unitFn runs timed unit number id. It reports the ops the unit completed,
// the duration of its timed section, and an error when the unit failed,
// timed out or produced a wrong output. sp is nil on untraced passes.
type unitFn func(id int, sp *spans) (ops int, timed time.Duration, err error)

// cluster is one workload's persistent set-up: its nodes and links stay up
// for all units, while each unit opens whatever fresh group it needs.
type cluster interface {
	// drive runs loop on the goroutine that issues the operations (the
	// one generator, one operation in flight) and returns when it does.
	drive(loop func(unitFn)) error
	registry() *metrics.Registry
	// tcpMesh is the cluster's loopback mesh, nil on the Chan backend.
	tcpMesh() *mesh
	close() error
}

// params is what a workload's set-up receives: the seed its inputs derive
// from and a private directory on a real file system.
type params struct {
	seed int64
	dir  string
}

type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// opName is what one op is, unitName what the generator times.
	opName, unitName string
	setup            func(p params) (cluster, error)
}

// ungatedWorkload is the one workload BENCHMARK.json leaves out: its
// commits wait on about 13 fsyncs each, and the host's disk moves between
// a 70 us and a 118 us fsync for minutes at a time, so ten runs spread by
// up to 29 % of their median — more than the widest bound a gated workload
// may have. It is measured, reported and compared like the others.
const ungatedWorkload = "rsm-tcp3-durable"

var workloads = []workload{
	{
		name:   "hbo-tcp3",
		why:    "message plane, latency-bound: HBO consensus instances on an edgeless G_SM over 3 TCP nodes, every round a Broadcast and a wait, no remote registers",
		opName: "decision", unitName: "one HBO instance, Start to all three decided",
		setup: func(p params) (cluster, error) { return newGroupCluster(p, true, hboUnit) },
	},
	{
		name:   "rsm-tcp3",
		why:    "memory plane, RPC-bound: replicated log striped over 3 TCP nodes, every commit is remote Read/CAS RPCs at the slot owners, the path hbo-tcp3 never takes",
		opName: "commit", unitName: "one epoch of 600 commits",
		setup: func(p params) (cluster, error) { return newGroupCluster(p, true, rsmUnit(rsmTCPCommands, false)) },
	},
	{
		name:   "rsm-tcp3-durable",
		why:    "same layers with fsync'd register writes beside free reads: prices WAL append+fsync per mutation, moves against rsm-tcp3 on a read/write trade",
		opName: "commit", unitName: "one epoch of 48 journaled commits",
		setup: func(p params) (cluster, error) { return newGroupCluster(p, true, rsmUnit(rsmDurableCommands, true)) },
	},
	{
		name:   "rsm-chan3",
		why:    "bypass baseline, algorithm-bound: the same log on the in-process Chan backend, no sockets or codec, so transport and wire changes must not move it",
		opName: "commit", unitName: "one epoch of 6000 commits",
		setup: func(p params) (cluster, error) { return newGroupCluster(p, false, rsmUnit(rsmChanCommands, false)) },
	},
	{
		name:   "regmix-tcp2",
		why:    "raw register ops over 2 TCP nodes: 40% remote Read, 30% remote Write, 10% remote CAS, 20% local, one at a time, with no algorithm on top",
		opName: "register op", unitName: "one core.Env register call",
		setup: func(p params) (cluster, error) { return newRegmixCluster(p) },
	},
	{
		name:   "fanout-tcp4",
		why:    "message plane, throughput-bound: bursts of 512 Broadcasts on a raw 4-node TCP mesh fill the pending queue and exercise batching and ack coalescing",
		opName: "delivery", unitName: "one burst of 512 broadcasts, 2048 deliveries",
		setup: func(p params) (cluster, error) { return newFanoutCluster(p) },
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// groupCluster serves the workloads whose unit is a fresh group on a
// persistent backend (hbo-*, rsm-*).
type groupCluster struct {
	params
	n    int
	be   backend
	m    *mesh // be when it is a TCP mesh, else nil
	unit func(c *groupCluster, id int, sp *spans) (int, time.Duration, error)
}

func newGroupCluster(p params, tcp bool, unit func(*groupCluster, int, *spans) (int, time.Duration, error)) (cluster, error) {
	c := &groupCluster{params: p, n: groupNodes, unit: unit}
	if tcp {
		m, err := newMesh(c.n)
		if err != nil {
			return nil, err
		}
		c.be, c.m = m, m
	} else {
		cn, err := newChanNode(c.n)
		if err != nil {
			return nil, err
		}
		c.be = cn
	}
	return c, nil
}

func (c *groupCluster) drive(loop func(unitFn)) error {
	loop(func(id int, sp *spans) (int, time.Duration, error) { return c.unit(c, id, sp) })
	return nil
}
func (c *groupCluster) registry() *metrics.Registry { return c.be.registry() }
func (c *groupCluster) tcpMesh() *mesh              { return c.m }
func (c *groupCluster) close() error                { return c.be.close() }

// unitSeed derives the per-unit seed from the run seed and the unit index.
func unitSeed(seed int64, id int) int64 { return seed*1_000_003 + int64(id) }

// hboUnit runs one HBO consensus instance with HaltAfterDecide and checks
// agreement and validity. Its inputs and process seeds come from the run
// seed and the instance index.
func hboUnit(c *groupCluster, id int, sp *spans) (int, time.Duration, error) {
	rng := rand.New(rand.NewSource(unitSeed(c.seed, id)))
	inputs := make([]benor.Val, c.n)
	for i := range inputs {
		inputs[i] = benor.Val(rng.Intn(2))
	}
	alg := hbo.New(hbo.Config{Inputs: inputs, HaltAfterDecide: true})

	root := sp.begin("unit", 0, id)
	defer sp.end(root)
	open := sp.begin("rt.group_open", root, id)
	s, err := c.be.open(graph.Edgeless(c.n), unitSeed(c.seed, id), alg, nil)
	sp.end(open)
	if err != nil {
		return 0, 0, err
	}
	// Processes halt after deciding, so Wait is the completion event; the
	// watchdog turns a hung instance into a stopped (and failed) one.
	watchdog := time.AfterFunc(unitTimeout, func() { s.stop() })
	run := sp.begin("run", root, id)
	start := time.Now()
	s.start()
	for _, g := range s.groups {
		g.Wait()
	}
	timed := time.Since(start)
	sp.end(run)
	timedOut := !watchdog.Stop()

	var decision core.Value
	for p := 0; p < c.n && err == nil; p++ {
		d := s.exposed(p, hbo.DecisionKey)
		switch {
		case d == nil:
			err = fmt.Errorf("instance %d: p%d did not decide (timed out: %v)", id, p, timedOut)
		case p > 0 && d != decision:
			err = fmt.Errorf("instance %d: agreement violated: p0 decided %v, p%d decided %v", id, decision, p, d)
		}
		decision = d
	}
	if err == nil && !contains(inputs, decision) {
		err = fmt.Errorf("instance %d: validity violated: decided %v, inputs %v", id, decision, inputs)
	}
	stop := sp.begin("rt.group_stop", root, id)
	stopErr := s.stop()
	sp.end(stop)
	if err == nil {
		err = stopErr
	}
	return 1, timed, err
}

func contains(inputs []benor.Val, v core.Value) bool {
	for _, in := range inputs {
		if v == in {
			return true
		}
	}
	return false
}

// rsmUnit returns the unit of the rsm-* workloads: one epoch in which each
// of the n replicas submits k commands to a fresh replicated log, timed
// from Start until every replica has applied the same log of all n*k
// commands with equal hash chains. With journal set, every node journals
// its registers to a fresh WAL directory that is removed after the epoch.
func rsmUnit(k int, journal bool) func(*groupCluster, int, *spans) (int, time.Duration, error) {
	alg := rsm.New(rsm.Config{
		CommandsPerProcess: k,
		Leader:             leader.Config{Notifier: leader.SharedMemoryNotifier},
	})
	return func(c *groupCluster, id int, sp *spans) (ops int, timed time.Duration, err error) {
		root := sp.begin("unit", 0, id)
		defer sp.end(root)
		open := sp.begin("rt.group_open", root, id)
		var stores []*durable.Registers
		if journal {
			epochDir := filepath.Join(c.dir, fmt.Sprintf("epoch-%d", id))
			defer os.RemoveAll(epochDir)
			for i := 0; i < c.n && err == nil; i++ {
				var st *durable.Registers
				st, err = durable.OpenRegisters(filepath.Join(epochDir, fmt.Sprintf("node-%d", i)),
					durable.RegistersOptions{Registry: c.registry()})
				stores = append(stores, st)
			}
		}
		var s system
		if err == nil {
			s, err = c.be.open(graph.Complete(c.n), unitSeed(c.seed, id), alg, stores)
		}
		sp.end(open)
		if err != nil {
			for _, st := range stores {
				if st != nil {
					st.Close()
				}
			}
			return 0, 0, err
		}

		// The log is at-least-once: a command forwarded to two successive
		// leaders may fill two slots, so an epoch is complete when every
		// replica reports its own commands committed, all have applied the
		// same number of slots (at least n*k) and their hash chains agree.
		want := c.n * k
		run := sp.begin("run", root, id)
		first := sp.begin("rsm.first_commit", run, id)
		start := time.Now()
		s.start()
		for {
			applied0, _ := s.exposed(0, rsm.AppliedKey).(int)
			complete := applied0 >= want
			for p := 0; p < c.n; p++ {
				applied, _ := s.exposed(p, rsm.AppliedKey).(int)
				if applied > 0 && first != 0 {
					sp.end(first)
					first = 0
				}
				done, _ := s.exposed(p, rsm.DoneKey).(bool)
				complete = complete && done && applied == applied0 &&
					s.exposed(p, rsm.HashKey) == s.exposed(0, rsm.HashKey)
			}
			if complete {
				break
			}
			if time.Since(start) > unitTimeout {
				err = fmt.Errorf("epoch %d: replicas did not all apply the same >= %d slots with equal hash chains within %v (p0 applied %d)",
					id, want, unitTimeout, applied0)
				break
			}
			time.Sleep(pollEvery)
		}
		timed = time.Since(start)
		sp.end(run)
		if err == nil {
			ops = want
		}
		stop := sp.begin("rt.group_stop", root, id)
		// Replicas never return on their own; stopping unwinds them. One
		// caught mid-RPC to a node that detached first reports that as its
		// error, which says nothing about the epoch already checked.
		s.stop()
		sp.end(stop)
		return ops, timed, err
	}
}

// regmixCluster is regmix-tcp2: one group for the whole pass, in which
// process 0 is the generator and every other process only serves.
type regmixCluster struct {
	params
	m      *mesh
	drives int64
}

func newRegmixCluster(p params) (*regmixCluster, error) {
	m, err := newMesh(regmixNodes)
	if err != nil {
		return nil, err
	}
	return &regmixCluster{params: p, m: m}, nil
}

func (c *regmixCluster) registry() *metrics.Registry { return c.m.reg }
func (c *regmixCluster) tcpMesh() *mesh              { return c.m }
func (c *regmixCluster) close() error                { return c.m.close() }

func (c *regmixCluster) drive(loop func(unitFn)) error {
	c.drives++
	return driveRegmix(c.m, unitSeed(c.seed, int(c.drives)), loop)
}

// driveRegmix opens one complete-G_SM group over m whose process 0 runs
// loop with the register-mix unit; the others return at once and their
// nodes keep serving process 0's remote operations until the group stops.
func driveRegmix(m *mesh, seed int64, loop func(unitFn)) error {
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if id == 0 {
				loop((&regmix{env: env, rng: rand.New(rand.NewSource(seed))}).unit)
			}
			return nil
		}
	})
	s, err := m.open(graph.Complete(len(m.nodes)), seed, alg, nil)
	if err != nil {
		return err
	}
	s.start()
	for _, g := range s.groups {
		g.Wait()
	}
	return s.stop()
}

// regmix is the bench-owned register-mix process body. It is the only
// writer, so it can predict every result: a read returns the last value it
// wrote (nil before the first), and a CAS succeeds iff the expected value
// it passed equals that.
type regmix struct {
	env    core.Env
	rng    *rand.Rand
	remote [regmixRegisters]int // last value written to process 1's register i; 0 = never
	local  [regmixRegisters]int
}

// Span names of the four op kinds; they are also the per-layer metric stems.
const (
	spanRemoteRead  = "rt.remote_read"
	spanRemoteWrite = "rt.remote_write"
	spanRemoteCAS   = "rt.remote_cas"
	spanLocalOp     = "rt.local_op"
)

func modelValue(v int) core.Value {
	if v == 0 {
		return nil
	}
	return v
}

func (r *regmix) unit(id int, sp *spans) (int, time.Duration, error) {
	i := r.rng.Intn(regmixRegisters)
	val := id + 1 // distinct and never the zero "unwritten" marker
	// The mix, in percent: remote 40 Read, 30 Write, 10 CAS; local 10 Read, 10 Write.
	kind := r.rng.Intn(100)
	local := kind >= 80
	ref, cell := core.RegI(1, "R", i), &r.remote[i]
	if local {
		ref, cell = core.RegI(0, "L", i), &r.local[i]
	}
	var (
		name string
		err  error
	)
	start := time.Now()
	switch {
	case kind < 40 || kind >= 90:
		name = spanRemoteRead
		var got core.Value
		if got, err = r.env.Read(ref); err == nil && got != modelValue(*cell) {
			err = fmt.Errorf("op %d: read %v = %v, last write was %v", id, ref, got, modelValue(*cell))
		}
	case kind < 70 || local:
		name = spanRemoteWrite
		if err = r.env.Write(ref, val); err == nil {
			*cell = val
		}
	default:
		name = spanRemoteCAS
		expected := modelValue(*cell)
		match := r.rng.Intn(2) == 0
		if !match {
			expected = -1
		}
		var swapped bool
		var cur core.Value
		swapped, cur, err = r.env.CompareAndSwap(ref, expected, val)
		switch {
		case err != nil:
		case swapped != match || cur != modelValue(*cell):
			err = fmt.Errorf("op %d: cas %v expected %v: swapped=%v current=%v, register held %v",
				id, ref, expected, swapped, cur, modelValue(*cell))
		case swapped:
			*cell = val
		}
	}
	timed := time.Since(start)
	if local {
		name = spanLocalOp
	}
	sp.add(name, 0, id, timed)
	return 1, timed, err
}

// fanoutCluster is fanout-tcp4: a raw group on a 4-node mesh, no rt host.
type fanoutCluster struct {
	params
	m *mesh
}

func newFanoutCluster(p params) (*fanoutCluster, error) {
	m, err := newMesh(fanoutNodes)
	if err != nil {
		return nil, err
	}
	return &fanoutCluster{params: p, m: m}, nil
}

func (c *fanoutCluster) registry() *metrics.Registry { return c.m.reg }
func (c *fanoutCluster) tcpMesh() *mesh              { return c.m }
func (c *fanoutCluster) close() error                { return c.m.close() }

func (c *fanoutCluster) drive(loop func(unitFn)) error {
	views, err := c.m.openRaw()
	if err != nil {
		return err
	}
	defer closeViews(views)
	seen := make([][fanoutBurst]bool, len(views))
	loop(func(id int, sp *spans) (int, time.Duration, error) {
		return fanoutUnit(views, seen, unitSeed(c.seed, id), id, sp)
	})
	return nil
}

// fanoutUnit enqueues one burst of broadcasts from node 0 synchronously,
// then drains all mailboxes until every node has every payload of the
// burst exactly once. Payloads are base+k for a per-burst seeded base, so
// a frame that leaked in from another burst fails the check.
func fanoutUnit(views []transport.Transport, seen [][fanoutBurst]bool, base int64, id int, sp *spans) (int, time.Duration, error) {
	root := sp.begin("unit", 0, id)
	defer sp.end(root)
	for i := range seen {
		seen[i] = [fanoutBurst]bool{}
	}
	start := time.Now()
	enq := sp.begin("tcp.enqueue", root, id)
	for k := 0; k < fanoutBurst; k++ {
		if err := transport.BroadcastSpan(views[0], 0, base+int64(k), core.SpanContext{}); err != nil {
			return 0, 0, err
		}
	}
	sp.end(enq)
	drain := sp.begin("tcp.drain", root, id)
	defer sp.end(drain)
	want := fanoutBurst * len(views)
	for got, idle := 0, 0; got < want; {
		progressed := false
		for j, v := range views {
			m, ok := v.TryRecv(core.ProcID(j))
			if !ok {
				continue
			}
			k, isInt := m.Payload.(int64)
			k -= base
			if !isInt || m.From != 0 || k < 0 || k >= fanoutBurst || seen[j][k] {
				return got, time.Since(start), fmt.Errorf("burst %d: node %d received unexpected or duplicate %v from %v", id, j, m.Payload, m.From)
			}
			seen[j][k] = true
			got++
			progressed = true
		}
		if progressed {
			idle = 0
			continue
		}
		// Check the clock only now and then: the drain loop is the hot path.
		if idle++; idle%1024 == 0 && time.Since(start) > unitTimeout {
			return got, time.Since(start), errors.New("burst timed out")
		}
		runtime.Gosched()
	}
	return want, time.Since(start), nil
}
