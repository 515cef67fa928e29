// Package sim is the deterministic step simulator hosting m&m algorithms.
//
// Each process runs as a coroutine (a goroutine that holds an execution
// token): exactly one process executes at any moment, and it runs until it
// completes one atomic step — local computation followed by at most one
// shared-memory or network operation. A sched.Scheduler picks who steps
// next, which makes the scheduler a strong adversary: it can observe
// anything recorded so far and starve any process arbitrarily. Message
// delivery is advanced between steps through the msgnet delivery policy, so
// link asynchrony is part of the adversary too.
//
// Crashes follow the paper's crash-stop model: a crashed process never
// takes another step, its unread mailbox is lost with it, but every shared
// register it wrote survives (shm.Memory belongs to the system).
//
// Runs are reproducible: given the same configuration, seed, crash plan
// and scheduler, a run is bit-for-bit deterministic.
//
// Config.Counters meters the run and Config.Trace records it as a
// step-indexed event log; both are the simulator's own (the real-time host
// meters into a metrics.Registry and records spans into a trace.Flight).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/runcfg"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/shm"
	"github.com/mnm-model/mnm/internal/trace"
)

// ErrNoProgress reports a run that ended because the scheduler returned
// core.NoProc with the stop condition unmet.
var ErrNoProgress = errors.New("sim: scheduler ended the run before the stop condition was met")

// Crash instructs the runner to crash Proc just before global step AtStep.
type Crash struct {
	Proc   core.ProcID
	AtStep uint64
}

// RunConfig is the host-independent half of Config, shared with the
// real-time host (see internal/runcfg). Selector access (cfg.GSM,
// cfg.Seed, ...) works via promotion; composite literals name the embedded
// struct: sim.Config{RunConfig: sim.RunConfig{...}}.
type RunConfig = runcfg.RunConfig

// Config describes a simulated m&m system.
type Config struct {
	// RunConfig holds the host-independent knobs: GSM, Links, Drop,
	// Seed, Logf.
	runcfg.RunConfig
	// Counters receives all metrics; one is created if nil.
	Counters *metrics.Counters
	// Trace, if non-nil, records every operation of the run as a
	// step-indexed event (bounded ring; see internal/trace).
	Trace *trace.Recorder
	// Domain overrides the shared-memory domain. By default the uniform
	// domain induced by GSM is used (the paper's setting); supplying a
	// shm.SetDomain here runs the general model of §3 instead. GSM still
	// defines n and the Neighbors sets.
	Domain shm.Domain
	// Delivery is the message asynchrony adversary. Defaults to
	// immediate delivery.
	Delivery msgnet.DeliveryPolicy
	// Scheduler picks the next process each step. Defaults to round
	// robin.
	Scheduler sched.Scheduler
	// MaxSteps bounds the run; exceeding it sets Result.TimedOut.
	// Defaults to 1,000,000.
	MaxSteps uint64
	// Crashes is the failure plan, applied at the scheduled steps.
	Crashes []Crash
	// MemoryFailsWithCrash inverts the paper's assumption that shared
	// memory survives crashes: when a process crashes, every register
	// hosted at it fails too (core.ErrMemoryFailed on access). This is
	// the non-RDMA ablation; the paper's algorithms are NOT expected to
	// retain their guarantees under it.
	MemoryFailsWithCrash bool
	// StopWhen, if non-nil, ends the run successfully as soon as it
	// returns true. It runs between steps, while no process executes.
	StopWhen func(r *Runner) bool
	// SnapshotEvery, if > 0, records a metrics snapshot every that many
	// global steps (plus one final snapshot) into Result.Series.
	SnapshotEvery uint64
}

// Result summarizes a finished run.
type Result struct {
	// Steps is the number of global steps executed.
	Steps uint64
	// TimedOut reports that MaxSteps was reached before StopWhen.
	TimedOut bool
	// Stopped reports that StopWhen returned true.
	Stopped bool
	// Crashed lists processes crashed by the failure plan.
	Crashed []core.ProcID
	// Halted lists processes whose body returned (normally or with an
	// error).
	Halted []core.ProcID
	// Errors maps processes to the error their body returned, if any.
	Errors map[core.ProcID]error
	// Counters holds the final metric values.
	Counters *metrics.Counters
	// Series holds periodic snapshots when Config.SnapshotEvery was set.
	Series []metrics.Snapshot
}

// Runner executes one run of an algorithm over a simulated system.
type Runner struct {
	cfg      Config
	n        int
	mem      *shm.Memory
	net      *msgnet.Network
	counters *metrics.Counters
	procs    []*procState
	neighbor [][]core.ProcID
	allProcs []core.ProcID
	step     uint64
	series   []metrics.Snapshot
	started  bool
}

type procState struct {
	id      core.ProcID
	grant   chan grantKind
	signal  chan signalMsg
	rng     *rand.Rand
	steps   uint64
	crashed bool
	halted  bool
	err     error
	exposed map[string]core.Value
	started bool
}

type grantKind int

const (
	grantStep grantKind = iota + 1
	grantKill
)

type signalMsg struct {
	kind signalKind
	err  error
}

type signalKind int

const (
	sigYield signalKind = iota + 1
	sigHalt
	sigKilled
)

// killPanic is the sentinel thrown into a coroutine to terminate it.
type killPanic struct{}

// New builds a runner for alg over the system described by cfg.
func New(cfg Config, alg core.Algorithm) (*Runner, error) {
	if cfg.GSM == nil {
		return nil, errors.New("sim: Config.GSM is required")
	}
	n := cfg.GSM.N()
	if n == 0 {
		return nil, errors.New("sim: empty system")
	}
	if cfg.Links == 0 {
		cfg.Links = msgnet.Reliable
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = &sched.RoundRobin{}
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1_000_000
	}
	counters := cfg.Counters
	if counters == nil {
		counters = metrics.NewCounters(n)
	}

	netOpts := []msgnet.NetOption{msgnet.WithNetCounters(counters)}
	if cfg.Drop != nil {
		netOpts = append(netOpts, msgnet.WithDropPolicy(cfg.Drop))
	}
	if cfg.Delivery != nil {
		netOpts = append(netOpts, msgnet.WithDeliveryPolicy(cfg.Delivery))
	}

	domain := cfg.Domain
	if domain == nil {
		domain = shm.NewUniformDomain(cfg.GSM)
	}
	r := &Runner{
		cfg:      cfg,
		n:        n,
		mem:      shm.NewMemory(domain, shm.WithCounters(counters)),
		net:      msgnet.NewNetwork(n, cfg.Links, netOpts...),
		counters: counters,
		procs:    make([]*procState, n),
		neighbor: make([][]core.ProcID, n),
		allProcs: make([]core.ProcID, n),
	}
	for p := 0; p < n; p++ {
		r.allProcs[p] = core.ProcID(p)
		ns := cfg.GSM.Neighbors(p)
		list := make([]core.ProcID, len(ns))
		for i, q := range ns {
			list[i] = core.ProcID(q)
		}
		r.neighbor[p] = list
		ps := &procState{
			id:      core.ProcID(p),
			grant:   make(chan grantKind),
			signal:  make(chan signalMsg),
			rng:     rand.New(rand.NewSource(cfg.Seed ^ (0x9e3779b9 * int64(p+1)))),
			exposed: make(map[string]core.Value),
		}
		r.procs[p] = ps
		body := alg.ProcessFor(core.ProcID(p))
		go r.coroutine(ps, body)
	}

	// Sort the crash plan by step so the runner can apply it in order.
	sort.SliceStable(r.cfg.Crashes, func(i, j int) bool {
		return r.cfg.Crashes[i].AtStep < r.cfg.Crashes[j].AtStep
	})
	return r, nil
}

// coroutine wraps a process body with the token protocol and crash/panic
// containment.
func (r *Runner) coroutine(ps *procState, body core.Process) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(killPanic); ok {
				ps.signal <- signalMsg{kind: sigKilled}
				return
			}
			err := fmt.Errorf("sim: process %v panicked: %v\n%s", ps.id, rec, debug.Stack())
			ps.signal <- signalMsg{kind: sigHalt, err: err}
		}
	}()
	if g := <-ps.grant; g == grantKill {
		ps.signal <- signalMsg{kind: sigKilled}
		return
	}
	env := &simEnv{r: r, ps: ps}
	err := body(env)
	ps.signal <- signalMsg{kind: sigHalt, err: err}
}

// Run executes the run to completion and returns its result. Run must be
// called exactly once.
func (r *Runner) Run() (*Result, error) {
	if r.started {
		return nil, errors.New("sim: Run called twice")
	}
	r.started = true
	defer r.shutdown()

	res := &Result{Errors: make(map[core.ProcID]error), Counters: r.counters}
	crashIdx := 0
	if r.cfg.SnapshotEvery > 0 {
		r.series = append(r.series, r.counters.Snapshot(0))
	}

	maybeSnapshot := func(force bool) {
		if r.cfg.SnapshotEvery == 0 {
			return
		}
		if (force || r.step%r.cfg.SnapshotEvery == 0) &&
			(len(r.series) == 0 || r.series[len(r.series)-1].Step != r.step) {
			r.series = append(r.series, r.counters.Snapshot(r.step))
		}
	}

	for r.step < r.cfg.MaxSteps {
		// Apply due crashes.
		for crashIdx < len(r.cfg.Crashes) && r.cfg.Crashes[crashIdx].AtStep <= r.step {
			r.crash(r.cfg.Crashes[crashIdx].Proc)
			crashIdx++
		}
		if r.cfg.StopWhen != nil && r.cfg.StopWhen(r) {
			res.Stopped = true
			break
		}
		p := r.cfg.Scheduler.Next(r)
		if p == core.NoProc {
			if r.cfg.StopWhen == nil {
				break // Everything halted: a natural end.
			}
			maybeSnapshot(true)
			r.fill(res)
			return res, ErrNoProgress
		}
		if int(p) < 0 || int(p) >= r.n || !r.Runnable(p) {
			maybeSnapshot(true)
			r.fill(res)
			return res, fmt.Errorf("sim: scheduler picked non-runnable process %v at step %d", p, r.step)
		}
		ps := r.procs[p]
		ps.grant <- grantStep
		sig := <-ps.signal
		switch sig.kind {
		case sigHalt:
			ps.halted = true
			ps.err = sig.err
			r.cfg.Trace.Record(trace.Event{Step: r.step, Proc: p, Kind: trace.Halt})
		case sigKilled:
			// Unreachable: kills are sent only in shutdown/crash.
			ps.crashed = true
		}
		r.step++
		r.net.Tick(r.step)
		maybeSnapshot(false)
	}

	if r.step >= r.cfg.MaxSteps {
		res.TimedOut = true
		if r.cfg.StopWhen != nil && r.cfg.StopWhen(r) {
			res.Stopped = true
			res.TimedOut = false
		}
	}
	maybeSnapshot(true)
	r.fill(res)
	return res, nil
}

func (r *Runner) fill(res *Result) {
	res.Steps = r.step
	for _, ps := range r.procs {
		if ps.crashed {
			res.Crashed = append(res.Crashed, ps.id)
		}
		if ps.halted {
			res.Halted = append(res.Halted, ps.id)
			if ps.err != nil {
				res.Errors[ps.id] = ps.err
			}
		}
	}
	res.Series = r.series
}

// crash marks p crashed and terminates its coroutine.
func (r *Runner) crash(p core.ProcID) {
	if int(p) < 0 || int(p) >= r.n {
		return
	}
	ps := r.procs[p]
	if ps.crashed || ps.halted {
		return
	}
	ps.crashed = true
	ps.grant <- grantKill
	<-ps.signal
	r.cfg.Trace.Record(trace.Event{Step: r.step, Proc: p, Kind: trace.Crash})
	if r.cfg.MemoryFailsWithCrash {
		r.mem.FailOwner(p)
	}
}

// shutdown kills every coroutine still blocked on a grant.
func (r *Runner) shutdown() {
	for _, ps := range r.procs {
		if ps.crashed || ps.halted {
			continue
		}
		ps.grant <- grantKill
		<-ps.signal
		ps.halted = true
	}
}

// --- sched.View implementation ---

// N returns the system size.
func (r *Runner) N() int { return r.n }

// GlobalStep returns the number of steps executed so far.
func (r *Runner) GlobalStep() uint64 { return r.step }

// Runnable reports whether p can take further steps.
func (r *Runner) Runnable(p core.ProcID) bool {
	if int(p) < 0 || int(p) >= r.n {
		return false
	}
	ps := r.procs[p]
	return !ps.crashed && !ps.halted
}

// StepsOf returns the steps p has taken.
func (r *Runner) StepsOf(p core.ProcID) uint64 {
	if int(p) < 0 || int(p) >= r.n {
		return 0
	}
	return r.procs[p].steps
}

// --- observation API (used by StopWhen and experiments) ---

// Exposed returns the value process p last published under name via
// core.Env.Expose, or nil. It is safe to call from StopWhen and after Run.
func (r *Runner) Exposed(p core.ProcID, name string) core.Value {
	if int(p) < 0 || int(p) >= r.n {
		return nil
	}
	return r.procs[p].exposed[name]
}

// Crashed reports whether p was crashed by the failure plan.
func (r *Runner) Crashed(p core.ProcID) bool {
	if int(p) < 0 || int(p) >= r.n {
		return false
	}
	return r.procs[p].crashed
}

// AllCorrectExposed reports whether every non-crashed process has published
// a non-nil value under name — the usual stop condition for "every correct
// process eventually decides".
func AllCorrectExposed(r *Runner, name string) bool {
	for p := 0; p < r.n; p++ {
		id := core.ProcID(p)
		if r.Crashed(id) {
			continue
		}
		if r.Exposed(id, name) == nil {
			return false
		}
	}
	return true
}

// Memory returns the shared register store, for observer-level inspection
// (shm.Memory.Peek) by tests and experiments.
func (r *Runner) Memory() *shm.Memory { return r.mem }

// Counters returns the live metrics counters.
func (r *Runner) Counters() *metrics.Counters { return r.counters }
