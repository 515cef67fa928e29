// Package mnm is a Go library for the message-and-memory (m&m) model of
// distributed computing introduced by Aguilera, Ben-David, Calciu,
// Guerraoui, Petrank and Toueg in "Passing Messages while Sharing Memory"
// (PODC 2018).
//
// In the m&m model, processes communicate both by passing messages over a
// fully connected network and by reading and writing shared registers,
// where register sharing is constrained by a shared-memory graph G_SM
// (modeling RDMA/disaggregated-memory hardware limits). The library
// provides:
//
//   - the model substrates: domain-enforced shared registers (crash
//     survivable, locality-metered), reliable and fair-lossy links with
//     pluggable asynchrony adversaries, and two hosts for algorithms — a
//     deterministic adversary-scheduled simulator and a goroutine-based
//     real-time host;
//   - the paper's algorithms: Hybrid Ben-Or consensus (Figure 2) with its
//     per-neighborhood wait-free consensus objects, pure Ben-Or as the
//     message-passing baseline, and both eventual leader election
//     algorithms (Figures 3–5);
//   - the supporting graph theory: expander constructions, exact vertex
//     expansion, the Theorem 4.3 fault-tolerance bound, worst-case crash
//     sets, and the SM-cut structure of the Theorem 4.4 impossibility;
//   - application-layer examples: a no-spin m&m mutex and a replicated
//     log driven by the Ω detector.
//
// This package is a façade: it re-exports the library's types through
// aliases and adds one-call helpers for the common flows. Power users can
// reach every knob through the aliased configuration structs.
package mnm

import (
	"fmt"
	"io"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/mutex"
	"github.com/mnm-model/mnm/internal/obs"
	"github.com/mnm-model/mnm/internal/paxos"
	"github.com/mnm-model/mnm/internal/regcons"
	"github.com/mnm-model/mnm/internal/rsm"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/runcfg"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/shm"
	"github.com/mnm-model/mnm/internal/sim"
	"github.com/mnm-model/mnm/internal/trace"
	"github.com/mnm-model/mnm/internal/tracemerge"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// Model vocabulary.
type (
	// ProcID identifies a process (0..n-1).
	ProcID = core.ProcID
	// Value is a register value or message payload (treat as immutable).
	Value = core.Value
	// Message is a delivered message.
	Message = core.Message
	// Ref names a shared register.
	Ref = core.Ref
	// Env is the m&m interface an algorithm process runs against.
	Env = core.Env
	// Process is one process's code.
	Process = core.Process
	// Algorithm instantiates processes.
	Algorithm = core.Algorithm
	// AlgorithmFunc adapts a function to Algorithm.
	AlgorithmFunc = core.AlgorithmFunc
	// Inbox buffers drained messages.
	Inbox = core.Inbox
)

// NoProc is the "no process" sentinel.
const NoProc = core.NoProc

// Shared-memory graphs and their analysis.
type (
	// Graph is an undirected shared-memory graph G_SM.
	Graph = graph.Graph
	// Ratio is an exact rational (used for vertex expansion values).
	Ratio = graph.Ratio
	// SMCut is the impossibility structure of Theorem 4.4.
	SMCut = graph.SMCut
)

// Simulation and real-time hosting.
type (
	// RunConfig is the host-independent part of a run description (GSM,
	// links, drop policy, seed, log sink), embedded in both SimConfig and
	// RTConfig.
	RunConfig = runcfg.RunConfig
	// SimConfig configures a deterministic simulated run; its Counters and
	// Trace fields meter and record it.
	SimConfig = sim.Config
	// SimRunner executes a simulated run.
	SimRunner = sim.Runner
	// SimResult summarizes a simulated run.
	SimResult = sim.Result
	// Crash schedules a crash-stop failure.
	Crash = sim.Crash
	// RTConfig configures a real-time host.
	RTConfig = rt.Config
	// RTResult summarizes a real-time run.
	RTResult = rt.Result
	// Transport carries messages between processes for the real-time
	// host: in-process channels, TCP sockets, or adversary wrappers.
	Transport = transport.Transport
	// TCPTransport is one node of a TCP-backed system: its listener and
	// connections, shared by every group opened on it.
	TCPTransport = tcp.Transport
	// TCPConfig configures one TCP transport node.
	TCPConfig = tcp.Config
	// TCPTimeouts groups the transport's deadline/backoff knobs.
	TCPTimeouts = tcp.Timeouts
	// GroupID identifies one m&m group (shard) multiplexed over a
	// shared transport; every id, 0 included, is opened the same way.
	GroupID = transport.GroupID
	// RTNode is the per-OS-process half of the runtime: one node
	// transport and directory hosting any number of independent groups.
	RTNode = rt.Node
	// RTNodeConfig configures an RTNode.
	RTNodeConfig = rt.NodeConfig
	// RTGroup runs one m&m system (one shard) with real goroutine
	// concurrency: a single-group system built with NewRT, or one of the
	// many groups opened on an RTNode.
	RTGroup = rt.Group
	// RTGroupConfig describes one group to open on an RTNode.
	RTGroupConfig = rt.GroupConfig
	// Directory maps groups to the nodes hosting their processes.
	Directory = directory.Directory
	// DirAssignment is one group's node placement.
	DirAssignment = directory.Assignment
	// StaticDirectory is an explicit group→assignment table.
	StaticDirectory = directory.Static
	// UniformDirectory places every group on the same node set.
	UniformDirectory = directory.Uniform
	// AllLocalDirectory places every group entirely on this node.
	AllLocalDirectory = directory.AllLocal
	// Scheduler picks the next process each simulated step.
	Scheduler = sched.Scheduler
	// Counters is the communication-event metric store.
	Counters = metrics.Counters
	// Snapshot is a point-in-time copy of Counters.
	Snapshot = metrics.Snapshot
	// MetricsRegistry bundles one run's Counters with named latency
	// histograms; set RTConfig.Registry (or read RTGroup.Registry()) to
	// observe a real-time run's transport and remote-register traffic.
	MetricsRegistry = metrics.Registry
	// MetricsSampler snapshots a registry into a bounded time-series
	// ring with per-interval Delta/Rate views.
	MetricsSampler = metrics.Sampler
	// MetricsDelta is the difference between two sampler snapshots.
	MetricsDelta = metrics.Delta
	// Histogram is a lock-free fixed-bucket latency histogram.
	Histogram = metrics.Histogram
	// ObsConfig wires a registry (plus optional sampler and transport)
	// into an HTTP observability handler.
	ObsConfig = obs.Config
	// ObsServer is a running /metrics /healthz /status endpoint.
	ObsServer = obs.Server
	// TraceRecorder is a bounded structured event log for simulated runs
	// (install via SimConfig.Trace).
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded run event.
	TraceEvent = trace.Event
	// Flight is a node's bounded span flight recorder, the only trace of
	// real-time runs (install via RTNodeConfig.Flight / RTConfig.Flight and
	// dump it with Flight.WriteJSONL or the obs plane's /trace endpoint).
	Flight = trace.Flight
	// FlightMeta is the per-node header line of a flight dump.
	FlightMeta = trace.FlightMeta
	// Span is one recorded operation: ids, Lamport timestamp, timing.
	Span = trace.Span
	// SpanKind tags what operation a span records.
	SpanKind = trace.Kind
	// TraceCluster is the merged view of one or more node flight dumps:
	// per-trace span trees in Lamport order (see MergeTraceDumps and
	// cmd/mnmtrace).
	TraceCluster = tracemerge.Cluster
	// MergedTrace is one reassembled cross-node trace.
	MergedTrace = tracemerge.Trace
	// LinkKind selects reliable or fair-lossy links.
	LinkKind = msgnet.LinkKind
	// DropPolicy is the fair-loss adversary.
	DropPolicy = msgnet.DropPolicy
	// DeliveryPolicy is the message asynchrony adversary.
	DeliveryPolicy = msgnet.DeliveryPolicy
	// Memory is the shared register store.
	Memory = shm.Memory
	// UniformDomain is the G_SM-induced shared-memory domain.
	UniformDomain = shm.UniformDomain
	// SetDomain is the paper's general shared-memory domain: arbitrary
	// named process sets (§3's "broader model based on S").
	SetDomain = shm.SetDomain
)

// NewSetDomain returns an empty general shared-memory domain; add sets
// with AddSet and install it via SimConfig.Domain.
func NewSetDomain() *SetDomain { return shm.NewSetDomain() }

// Link kinds.
const (
	// Reliable links never lose messages.
	Reliable = msgnet.Reliable
	// FairLossy links may drop messages but deliver anything sent
	// infinitely often.
	FairLossy = msgnet.FairLossy
)

// Algorithms.
type (
	// ConsensusValue is a Ben-Or/HBO value (V0, V1 or Unknown).
	ConsensusValue = benor.Val
	// BenOrConfig configures the pure message-passing baseline.
	BenOrConfig = benor.Config
	// HBOConfig configures Hybrid Ben-Or.
	HBOConfig = hbo.Config
	// LeaderConfig configures eventual leader election.
	LeaderConfig = leader.Config
	// MsgOmegaConfig configures the classic message-passing Ω baseline.
	MsgOmegaConfig = leader.MsgOmegaConfig
	// NotifierKind selects the Figure-4 or Figure-5 notifier.
	NotifierKind = leader.NotifierKind
	// Detector is the steppable Ω module.
	Detector = leader.Detector
	// ConsensusObject is a shared wait-free consensus object.
	ConsensusObject = regcons.Object
	// RSMConfig configures the replicated log.
	RSMConfig = rsm.Config
	// PaxosConfig configures Ω-driven shared-memory Paxos.
	PaxosConfig = paxos.Config
	// MnMLock is the no-spin m&m ticket lock.
	MnMLock = mutex.MnMLock
	// SpinLock is the pure shared-memory baseline lock.
	SpinLock = mutex.SpinLock
	// BakeryLock is Lamport's bakery — the read/write-register-only
	// mutex the paper's §1 names.
	BakeryLock = mutex.Bakery
)

// Consensus values.
const (
	// V0 is binary value 0.
	V0 = benor.V0
	// V1 is binary value 1.
	V1 = benor.V1
	// Unknown is the '?' placeholder of phase P.
	Unknown = benor.Unknown
)

// Notifier kinds.
const (
	// MessageNotifier is the Figure-4 mechanism (reliable links).
	MessageNotifier = leader.MessageNotifier
	// SharedMemoryNotifier is the Figure-5 mechanism (fair-lossy links).
	SharedMemoryNotifier = leader.SharedMemoryNotifier
)

// Expose keys of the shipped algorithms.
const (
	// HBODecisionKey is where HBO processes publish decisions.
	HBODecisionKey = hbo.DecisionKey
	// BenOrDecisionKey is where Ben-Or processes publish decisions.
	BenOrDecisionKey = benor.DecisionKey
	// LeaderKey is where leader-election processes publish their leader.
	LeaderKey = leader.LeaderKey
	// PaxosDecisionKey is where Ω-Paxos processes publish decisions.
	PaxosDecisionKey = paxos.DecisionKey
)

// MetricKind identifies a counted communication event.
type MetricKind = metrics.Kind

// Metric kinds (see internal/metrics): message and register-access
// counters, with register ops split by §5.3 locality.
const (
	MsgSent        = metrics.MsgSent
	MsgDelivered   = metrics.MsgDelivered
	MsgDropped     = metrics.MsgDropped
	RegReadLocal   = metrics.RegReadLocal
	RegReadRemote  = metrics.RegReadRemote
	RegWriteLocal  = metrics.RegWriteLocal
	RegWriteRemote = metrics.RegWriteRemote
	StepsMetric    = metrics.Steps

	// Transport-layer kinds (socket backends; see internal/metrics).
	FrameSent       = metrics.FrameSent
	FrameRetrans    = metrics.FrameRetrans
	FrameAcked      = metrics.FrameAcked
	FrameDropEncode = metrics.FrameDropEncode
	FrameBatches    = metrics.FrameBatches
	Reconnects      = metrics.Reconnects
	DialFailures    = metrics.DialFailures
	RPCIssued       = metrics.RPCIssued
	RPCFailed       = metrics.RPCFailed
	LeaderChanges   = metrics.LeaderChanges
)

// NewCounters returns a metric store for n processes.
func NewCounters(n int) *Counters { return metrics.NewCounters(n) }

// NewMetricsRegistry returns a registry with fresh counters for n
// processes; histograms are created on first use.
func NewMetricsRegistry(n int) *MetricsRegistry { return metrics.NewRegistry(n) }

// NewMetricsSampler returns a sampler snapshotting reg every interval
// into a ring of the given capacity (non-positive interval = manual
// SampleNow only). Call Start to begin periodic sampling.
func NewMetricsSampler(reg *MetricsRegistry, interval time.Duration, capacity int) *MetricsSampler {
	return metrics.NewSampler(reg, interval, capacity)
}

// ServeMetrics starts an HTTP observability endpoint (/metrics in
// Prometheus and JSON form, /healthz with link states, /status with
// sampled rates) for cfg on addr; port 0 picks a free one.
func ServeMetrics(addr string, cfg ObsConfig) (*ObsServer, error) { return obs.Serve(addr, cfg) }

// NewTraceRecorder returns a bounded event recorder keeping the most
// recent capacity events.
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// NewFlight returns a span flight recorder for one node: a bounded ring
// keeping the most recent capacity spans, head-sampling one in sample
// root spans (whole trees; sample ≤ 1 keeps everything). node labels the
// dump — conventionally the node's listen address.
func NewFlight(node string, capacity, sample int) *Flight {
	return trace.NewFlight(node, capacity, sample)
}

// MergeTraceDumps reassembles any number of concatenated node flight
// dumps (the /trace JSONL format) into one causally ordered cluster
// timeline — the library form of cmd/mnmtrace.
func MergeTraceDumps(r io.Reader) (*TraceCluster, error) { return tracemerge.Read(r) }

// Replicated-log expose keys.
const (
	// RSMAppliedKey carries the number of distinct commands a replica
	// applied (int).
	RSMAppliedKey = rsm.AppliedKey
	// RSMHashKey carries a replica's state hash chain (uint64).
	RSMHashKey = rsm.HashKey
	// RSMDoneKey is true once a replica's own commands all committed.
	RSMDoneKey = rsm.DoneKey
)

// RSMSlotRef returns the shared register of replicated-log slot s in an
// n-process system. A committed slot holds the batch of commands one
// leader sequenced into it.
func RSMSlotRef(s, n int) Ref { return rsm.SlotRef(s, n) }

// NewRandomDrop returns an i.i.d. drop policy with probability p (< 1).
func NewRandomDrop(p float64, seed int64) DropPolicy { return msgnet.NewRandomDrop(p, seed) }

// NewSim builds a deterministic simulated run.
func NewSim(cfg SimConfig, alg Algorithm) (*SimRunner, error) { return sim.New(cfg, alg) }

// NewRT builds a real-time host.
func NewRT(cfg RTConfig, alg Algorithm) (*RTGroup, error) { return rt.New(cfg, alg) }

// NewRTNode builds the per-OS-process plane of a deployment: any number of
// independent m&m groups multiplexed over one node transport. Open each
// group, 0 included, with RTNode.OpenGroup; see DESIGN.md §4.3.3.
func NewRTNode(cfg RTNodeConfig) (*RTNode, error) { return rt.NewNode(cfg) }

// NewChanTransport returns the in-process channel transport among n
// processes — the real-time host's default message path, made explicit.
func NewChanTransport(n int, kind LinkKind) Transport { return transport.NewChan(n, kind) }

// NewTCPTransport binds one node of a TCP-backed m&m system; pass it as
// RTNodeConfig.Transport and open each group with RTNode.OpenGroup to run
// algorithms across OS processes. The node accepts connections from its
// first group on.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) { return tcp.New(cfg) }

// NewLossyTransport layers the fair-loss adversary over any transport
// backend; counters may be nil.
func NewLossyTransport(inner Transport, policy DropPolicy, counters *Counters) Transport {
	return transport.NewLossy(inner, policy, counters)
}

// NewHBO returns the Hybrid Ben-Or consensus algorithm (Figure 2).
func NewHBO(cfg HBOConfig) Algorithm { return hbo.New(cfg) }

// NewBenOr returns the pure message-passing Ben-Or baseline.
func NewBenOr(cfg BenOrConfig) Algorithm { return benor.New(cfg) }

// NewLeaderElection returns the Figure-3 eventual leader election with the
// configured notifier.
func NewLeaderElection(cfg LeaderConfig) Algorithm { return leader.New(cfg) }

// NewMsgOmega returns the classical heartbeat-broadcast Ω baseline (pure
// message passing, Θ(n²) steady-state traffic, requires link timeliness).
func NewMsgOmega(cfg MsgOmegaConfig) Algorithm { return leader.NewMsgOmega(cfg) }

// NewReplicatedLog returns the Ω-driven replicated log.
func NewReplicatedLog(cfg RSMConfig) Algorithm { return rsm.New(cfg) }

// NewPaxos returns single-decree shared-memory Paxos driven by the Ω
// detector: deterministic consensus for arbitrary comparable values that
// tolerates n−1 crashes on a complete G_SM, given one timely process.
func NewPaxos(cfg PaxosConfig) Algorithm { return paxos.New(cfg) }

// NewDetector embeds a steppable Ω detector into a host algorithm.
func NewDetector(env Env, cfg LeaderConfig) (*Detector, error) { return leader.NewDetector(env, cfg) }

// NewRacingConsensus returns a wait-free register-based consensus object
// over the given value domain, rooted at base.
func NewRacingConsensus(base Ref, domain []Value) (ConsensusObject, error) {
	return regcons.NewRacing(base, domain)
}

// NewCASConsensus returns a one-shot consensus object backed by a single
// compare-and-swap register.
func NewCASConsensus(base Ref) ConsensusObject { return regcons.NewCASBased(base) }

// NewMnMLock returns a no-spin m&m lock homed at home.
func NewMnMLock(home ProcID, name string) *MnMLock { return mutex.NewMnMLock(home, name) }

// NewSpinLock returns the pure shared-memory baseline lock.
func NewSpinLock(home ProcID, name string) *SpinLock { return mutex.NewSpinLock(home, name) }

// NewBakeryLock returns Lamport's bakery lock (read/write registers only).
func NewBakeryLock(name string) *BakeryLock { return mutex.NewBakery(name) }

// RoundRobin returns the fair deterministic scheduler.
func RoundRobin() Scheduler { return &sched.RoundRobin{} }

// RandomScheduler returns a seeded uniformly random scheduler.
func RandomScheduler(seed int64) Scheduler { return sched.NewRandom(seed) }

// TimelyScheduler returns a scheduler under which exactly the given
// process is guaranteed timely (bound i = bound) while everyone else runs
// at the seeded-random adversary's whim — the paper's "little synchrony".
func TimelyScheduler(timely ProcID, bound uint64, seed int64) Scheduler {
	return &sched.TimelyProcess{Timely: timely, Bound: bound, Inner: sched.NewRandom(seed)}
}

// StableLeaderCondition returns a SimConfig.StopWhen that fires when every
// correct process has output the same correct leader for window
// consecutive steps.
func StableLeaderCondition(window uint64) func(*SimRunner) bool {
	return leader.StableLeaderCondition(window)
}

// AllDecided returns a SimConfig.StopWhen for consensus runs: it fires
// when every correct process has exposed a decision under key.
func AllDecided(key string) func(*SimRunner) bool {
	return func(r *SimRunner) bool { return sim.AllCorrectExposed(r, key) }
}

// Graph constructors.
var (
	// CompleteGraph is the complete graph K_n (pure shared memory).
	CompleteGraph = graph.Complete
	// EdgelessGraph has no shared memory (pure message passing).
	EdgelessGraph = graph.Edgeless
	// CycleGraph is the n-cycle.
	CycleGraph = graph.Cycle
	// PathGraph is the n-path.
	PathGraph = graph.Path
	// HypercubeGraph is the d-dimensional hypercube.
	HypercubeGraph = graph.Hypercube
	// TorusGraph is the r×c torus.
	TorusGraph = graph.Torus
	// PetersenGraph is the Petersen graph.
	PetersenGraph = graph.Petersen
	// MargulisGraph is the degree-8 Margulis expander on m² vertices.
	MargulisGraph = graph.Margulis
	// CirculantGraph is the circulant graph with the given offsets.
	CirculantGraph = graph.Circulant
	// TwoCliquesBridgeGraph is two k-cliques joined by one edge.
	TwoCliquesBridgeGraph = graph.TwoCliquesBridge
	// BarbellGraph is two k-cliques joined by a path.
	BarbellGraph = graph.Barbell
	// Figure1Graph is the example graph of the paper's Figure 1.
	Figure1Graph = graph.Figure1
	// RandomRegularGraph samples a d-regular graph.
	RandomRegularGraph = graph.RandomRegular
	// RandomConnectedRegularGraph samples a connected d-regular graph.
	RandomConnectedRegularGraph = graph.RandomConnectedRegular
)

// FaultToleranceBound evaluates Theorem 4.3 exactly: the largest f with
// f < (1 − 1/(2(1+h))) · n.
func FaultToleranceBound(n int, h Ratio) int { return graph.FaultToleranceBound(n, h) }

// SolveConsensus is the one-call consensus flow: it runs HBO over gsm in
// the deterministic simulator with the given binary inputs and optional
// crash plan, and returns the decided value.
func SolveConsensus(gsm *Graph, inputs []ConsensusValue, seed int64, crashes ...Crash) (ConsensusValue, error) {
	r, err := NewSim(SimConfig{
		RunConfig: RunConfig{GSM: gsm, Seed: seed},
		Crashes:   crashes,
		MaxSteps:  20_000_000,
		StopWhen:  AllDecided(HBODecisionKey),
	}, NewHBO(HBOConfig{Inputs: inputs}))
	if err != nil {
		return 0, err
	}
	res, err := r.Run()
	if err != nil {
		return 0, err
	}
	for p, e := range res.Errors {
		return 0, fmt.Errorf("mnm: process %v failed: %w", p, e)
	}
	if !res.Stopped {
		return 0, fmt.Errorf("mnm: consensus did not terminate within %d steps (insufficient representation?)", res.Steps)
	}
	for p := 0; p < gsm.N(); p++ {
		if v, ok := r.Exposed(ProcID(p), HBODecisionKey).(ConsensusValue); ok {
			return v, nil
		}
	}
	return 0, fmt.Errorf("mnm: no process exposed a decision")
}

// ElectLeader is the one-call leader election flow: it runs the Figure-3
// algorithm on a complete n-process graph (with the given notifier and a
// timely process) until the leader output is stable, and returns the
// elected leader.
func ElectLeader(n int, kind NotifierKind, timely ProcID, seed int64) (ProcID, error) {
	r, err := NewSim(SimConfig{
		RunConfig: RunConfig{GSM: CompleteGraph(n), Seed: seed},
		Scheduler: TimelyScheduler(timely, 4, seed+1),
		MaxSteps:  20_000_000,
		StopWhen:  StableLeaderCondition(3_000),
	}, NewLeaderElection(LeaderConfig{Notifier: kind}))
	if err != nil {
		return NoProc, err
	}
	res, err := r.Run()
	if err != nil {
		return NoProc, err
	}
	if !res.Stopped {
		return NoProc, fmt.Errorf("mnm: no stable leader within %d steps", res.Steps)
	}
	l, ok := leader.CommonLeader(r)
	if !ok {
		return NoProc, fmt.Errorf("mnm: leader outputs diverged at stop")
	}
	return l, nil
}
