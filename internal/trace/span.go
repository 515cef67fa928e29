// Span-level tracing: the cross-node half of the trace package.
//
// The event Recorder (trace.go) answers "what did this process do, in
// order" for the simulator. Spans, the real-time host's only trace, answer the distributed question — "what did
// this *operation* cause, across every node it touched" — by giving each
// sampled operation an identity (TraceID/SpanID) that travels inside the
// wire frame header (wire v4) and a Lamport timestamp that orders it
// against the spans it caused on other nodes, without synchronized wall
// clocks.
//
// The machinery is split to match the runtime's PR 7 shape:
//
//   - Flight is the per-node flight recorder: bounded lock-free rings of
//     finished spans, one Lamport clock, one head sampler, shared by every
//     group multiplexed over the node's transport. Spans that crossed the
//     node boundary (a remote parent, or a context shipped off the node)
//     have their own ring, so a flood of node-local spans — a leader
//     writing its heartbeat in a tight loop — cannot evict the halves of
//     cross-node trees. Recording is an atomic cursor bump plus a pointer
//     store; eviction accounting is exact by construction (dropped =
//     appended − capacity, per ring).
//   - Scope is one group's view of the node's Flight — it stamps the
//     group label ("group-7") that matches the group's metrics
//     sub-registry, and feeds span latencies into that registry's
//     per-op-kind histograms ("span_send", "span_cas", ...).
//
// The hot path is zero-alloc when tracing is off: a nil *Flight (and the
// nil *Scope it hands out) turns every call into an immediate return, so
// call sites need no guards. With tracing on, unsampled operations cost
// one atomic add; only sampled spans allocate.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
)

// Clock is a lock-free Lamport clock. The zero Clock is ready to use.
type Clock struct {
	v atomic.Uint64
}

// Now returns the current clock value without advancing it.
func (c *Clock) Now() uint64 { return c.v.Load() }

// Tick advances the clock for a local event (a send, an op start) and
// returns the event's timestamp.
func (c *Clock) Tick() uint64 { return c.v.Add(1) }

// Observe merges a remote timestamp on a receive edge — the clock jumps
// to max(local, remote)+1 — and returns the receive event's timestamp.
// Observing 0 (an untraced or clock-less sender) is a plain Tick.
func (c *Clock) Observe(remote uint64) uint64 {
	for {
		cur := c.v.Load()
		next := cur
		if remote > next {
			next = remote
		}
		next++
		if c.v.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// Span is one recorded operation: a node-local slice of a distributed
// trace. Spans are value-complete once finished — the ring and every dump
// hold plain data, so a merger can reassemble timelines from JSONL alone.
type Span struct {
	// TraceID/SpanID/Parent tie the span into its trace tree. Parent is 0
	// for a root span; for a span started by a message or RPC delivery it
	// is the SpanID carried in the frame header.
	TraceID uint64
	SpanID  uint64
	Parent  uint64
	// Node and Group locate the span: the node label (listen address) and
	// the group label ("group-<id>" of the rt.Group that recorded it).
	Node  string
	Group string
	// Proc is the acting process, Kind the operation class, Name the
	// op-specific detail (register ref, payload rendering).
	Proc core.ProcID
	Kind Kind
	Name string
	// Start and End are node-local wall clock nanoseconds (End is 0 while
	// the span is in flight). Wall clocks order nothing across nodes —
	// Lamport does; they only size durations.
	Start int64
	End   int64
	// Lamport is the span's logical timestamp: Tick() at a local/send
	// start, Observe(remote) at a delivery. The merge rule is total:
	// sort by Lamport, break ties by (Node, Start).
	Lamport uint64
	// Err records the operation's error, if any.
	Err string

	sc      *Scope // non-nil only between Start and End on the recording node
	crossed bool   // a remote parent, or its context left the node
}

// Flight is a per-node bounded flight recorder for spans. All methods are
// safe for concurrent use and safe on a nil receiver (tracing off).
type Flight struct {
	node   string
	sample uint64
	local  ring          // spans that stayed on this node
	cross  ring          // spans with a remote parent or child
	roots  atomic.Uint64 // root-span counter driving head sampling
	ids    atomic.Uint64
	seed   uint64
	clock  Clock

	mu       sync.Mutex
	inflight map[uint64]*Span // by SpanID: started, not yet finished
}

// ring is one bounded span ring.
type ring struct {
	slots []atomic.Pointer[Span]
	head  atomic.Uint64 // total spans appended; slot = (head-1) % cap
}

func (r *ring) add(sp *Span) {
	idx := r.head.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(sp)
}

func (r *ring) dropped() uint64 {
	if h, c := r.head.Load(), uint64(len(r.slots)); h > c {
		return h - c
	}
	return 0
}

func (r *ring) len() int {
	if h := r.head.Load(); h < uint64(len(r.slots)) {
		return int(h)
	}
	return len(r.slots)
}

// NewFlight builds a flight recorder keeping the most recent capacity
// finished node-local spans and, separately, the most recent capacity
// cross-node ones (minimum 1 each). node labels every span (typically the
// transport listen address). sample is the head-sampling rate: every
// sample-th root operation starts a trace (1 or less traces them all).
func NewFlight(node string, capacity, sample int) *Flight {
	if capacity < 1 {
		capacity = 1
	}
	if sample < 1 {
		sample = 1
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(node))
	return &Flight{
		node:     node,
		sample:   uint64(sample),
		local:    ring{slots: make([]atomic.Pointer[Span], capacity)},
		cross:    ring{slots: make([]atomic.Pointer[Span], capacity)},
		seed:     h.Sum64() ^ uint64(time.Now().UnixNano()),
		inflight: make(map[uint64]*Span),
	}
}

// Node returns the node label ("" on a nil Flight).
func (f *Flight) Node() string {
	if f == nil {
		return ""
	}
	return f.node
}

// Sample returns the head-sampling rate (0 on a nil Flight).
func (f *Flight) Sample() int {
	if f == nil {
		return 0
	}
	return int(f.sample)
}

// Clock exposes the node's Lamport clock value (0 on a nil Flight).
func (f *Flight) ClockNow() uint64 {
	if f == nil {
		return 0
	}
	return f.clock.Now()
}

// Dropped returns how many finished spans the rings have evicted. The
// accounting is exact under any concurrency: each cursor counts every
// append, and each ring retains at most its capacity.
func (f *Flight) Dropped() uint64 {
	if f == nil {
		return 0
	}
	return f.local.dropped() + f.cross.dropped()
}

// Len returns the number of retained finished spans.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	return f.local.len() + f.cross.len()
}

// id returns a fresh non-zero 64-bit identifier (splitmix64 over a
// per-recorder seed — unique within a run, collision-unlikely across
// nodes, and importantly never 0, which means "untraced").
func (f *Flight) id() uint64 {
	z := f.seed + 0x9e3779b97f4a7c15*f.ids.Add(1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Scope binds the node's Flight to one group: the group label stamped on
// its spans and the metrics registry receiving its span-latency
// histograms. A nil Flight yields a nil Scope; a nil Scope is inert.
func (f *Flight) Scope(group string, reg *metrics.Registry) *Scope {
	if f == nil {
		return nil
	}
	return &Scope{f: f, group: group, reg: reg}
}

// Scope is one group's handle on the node flight recorder. All methods
// are nil-safe.
type Scope struct {
	f     *Flight
	group string
	reg   *metrics.Registry
}

// Flight returns the underlying recorder (nil on a nil Scope).
func (s *Scope) Flight() *Flight {
	if s == nil {
		return nil
	}
	return s.f
}

// Start begins a root span for a local operation of proc, applying head
// sampling: it returns nil (record nothing, allocate nothing) for the
// non-sampled ops. name is called only for a sampled span, so an
// unsampled op never formats its name. The Lamport clock ticks only for
// sampled spans; send edges tick unconditionally later, in Outbound.
func (s *Scope) Start(proc core.ProcID, k Kind, name func() string) *Span {
	if s == nil {
		return nil
	}
	f := s.f
	if f.sample > 1 && (f.roots.Add(1)-1)%f.sample != 0 {
		return nil
	}
	sp := &Span{
		TraceID: f.id(),
		SpanID:  f.id(),
		Node:    f.node,
		Group:   s.group,
		Proc:    proc,
		Kind:    k,
		Name:    name(),
		Start:   time.Now().UnixNano(),
		Lamport: f.clock.Tick(),
		sc:      s,
	}
	f.track(sp)
	return sp
}

// StartRemote begins a span caused by an incoming message or RPC: its
// parent is the span carried in the frame header, and its Lamport
// timestamp merges the sender's clock (the receive-edge stamping). The
// sampling decision was made at the head — an untraced context records
// nothing, and formats no name — so a trace is sampled whole-tree or not
// at all.
func (s *Scope) StartRemote(proc core.ProcID, k Kind, name func() string, from core.SpanContext) *Span {
	if s == nil || !from.Traced() {
		return nil
	}
	f := s.f
	sp := &Span{
		TraceID: from.TraceID,
		SpanID:  f.id(),
		Parent:  from.SpanID,
		Node:    f.node,
		Group:   s.group,
		Proc:    proc,
		Kind:    k,
		Name:    name(),
		Start:   time.Now().UnixNano(),
		Lamport: f.clock.Observe(from.Clock),
		sc:      s,
		crossed: true,
	}
	f.track(sp)
	return sp
}

// Outbound stamps a send edge: the Lamport clock ticks (sampled or not —
// receivers merge whatever clock arrives, so the clock condition must
// hold for every message), and the context to put on the wire is
// returned. sp may be nil (unsampled op): the context then carries only
// the clock.
func (s *Scope) Outbound(sp *Span) core.SpanContext {
	if s == nil {
		return core.SpanContext{}
	}
	c := s.f.clock.Tick()
	if sp == nil {
		return core.SpanContext{Clock: c}
	}
	s.f.mu.Lock() // InFlight may be copying the live span
	sp.crossed = true
	s.f.mu.Unlock()
	return core.SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID, Clock: c}
}

// Observe merges a received clock without starting a span — the receive
// edge of an untraced (or unsampled) message.
func (s *Scope) Observe(remote uint64) {
	if s == nil || remote == 0 {
		return
	}
	s.f.clock.Observe(remote)
}

// track registers an active span in the in-flight table.
func (f *Flight) track(sp *Span) {
	f.mu.Lock()
	f.inflight[sp.SpanID] = sp
	f.mu.Unlock()
}

// Finish ends the span: it leaves the in-flight table, lands in the
// ring, and its latency feeds the scope registry's per-op-kind histogram
// ("span_<kind>"). Safe on a nil span (the unsampled case), so call
// sites pair every op with an unconditional Finish.
func (sp *Span) Finish(err error) {
	if sp == nil || sp.sc == nil {
		return
	}
	s := sp.sc
	f := s.f
	f.mu.Lock()
	delete(f.inflight, sp.SpanID)
	f.mu.Unlock()
	// Past this point the span is invisible to InFlight readers: the
	// remaining writes race with nothing.
	sp.sc = nil
	sp.End = time.Now().UnixNano()
	if err != nil {
		sp.Err = err.Error()
	}
	if sp.crossed {
		f.cross.add(sp)
	} else {
		f.local.add(sp)
	}
	if s.reg != nil {
		s.reg.Histogram(metrics.HistSpanPrefix + sp.Kind.String()).
			Observe(time.Duration(sp.End - sp.Start))
	}
}

// Spans returns the retained finished spans ordered by the merge rule
// (Lamport, then Node, then Start). The snapshot is best-effort under
// concurrent recording: a slot overwritten mid-read yields the newer
// span, never a torn one.
func (f *Flight) Spans() []Span {
	if f == nil {
		return nil
	}
	out := make([]Span, 0, f.Len())
	for _, r := range []*ring{&f.local, &f.cross} {
		for i := range r.slots {
			if sp := r.slots[i].Load(); sp != nil {
				out = append(out, *sp)
			}
		}
	}
	SortSpans(out)
	return out
}

// InFlight returns the spans started but not yet finished, ordered by
// the merge rule — the live table behind /trace.
func (f *Flight) InFlight() []Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := make([]Span, 0, len(f.inflight))
	for _, sp := range f.inflight {
		out = append(out, *sp)
	}
	f.mu.Unlock()
	SortSpans(out)
	return out
}

// SortSpans orders spans by the Lamport merge rule: logical time first,
// then node label, then node-local wall time. The rule is total, so two
// merges of the same dumps render the same timeline.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Lamport != b.Lamport {
			return a.Lamport < b.Lamport
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.SpanID < b.SpanID
	})
}

// FlightMeta is the JSONL header line of a flight dump.
type FlightMeta struct {
	Node     string `json:"node"`
	Dropped  uint64 `json:"dropped"`
	Clock    uint64 `json:"clock"`
	Spans    int    `json:"spans"`
	InFlight int    `json:"in_flight"`
}

// SpanJSON is the JSONL wire form of one Span. Identifiers render as
// 16-hex-digit strings: JSON numbers lose uint64 precision in the tools
// (jq, python) this format exists for.
type SpanJSON struct {
	Trace    string `json:"trace"`
	Span     string `json:"span"`
	Parent   string `json:"parent,omitempty"`
	Node     string `json:"node,omitempty"`
	Group    string `json:"group,omitempty"`
	Proc     int    `json:"proc"`
	Kind     string `json:"kind"`
	Name     string `json:"name,omitempty"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Lamport  uint64 `json:"lamport"`
	Err      string `json:"err,omitempty"`
	InFlight bool   `json:"inflight,omitempty"`
}

func hexID(v uint64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", v)
}

// JSON converts a span to its JSONL form.
func (sp Span) JSON() SpanJSON {
	j := SpanJSON{
		Trace:   hexID(sp.TraceID),
		Span:    hexID(sp.SpanID),
		Parent:  hexID(sp.Parent),
		Node:    sp.Node,
		Group:   sp.Group,
		Proc:    int(sp.Proc),
		Kind:    sp.Kind.String(),
		Name:    sp.Name,
		StartUS: sp.Start / 1e3,
		Lamport: sp.Lamport,
		Err:     sp.Err,
	}
	if sp.End != 0 {
		j.DurUS = (sp.End - sp.Start) / 1e3
	} else {
		j.InFlight = true
	}
	return j
}

// ToSpan converts the JSONL form back (the merger's input path).
func (j SpanJSON) ToSpan() (Span, error) {
	parse := func(s string) (uint64, error) {
		if s == "" {
			return 0, nil
		}
		return strconv.ParseUint(s, 16, 64)
	}
	var sp Span
	var err error
	if sp.TraceID, err = parse(j.Trace); err != nil {
		return sp, fmt.Errorf("trace: bad trace id %q: %w", j.Trace, err)
	}
	if sp.SpanID, err = parse(j.Span); err != nil {
		return sp, fmt.Errorf("trace: bad span id %q: %w", j.Span, err)
	}
	if sp.Parent, err = parse(j.Parent); err != nil {
		return sp, fmt.Errorf("trace: bad parent id %q: %w", j.Parent, err)
	}
	sp.Node = j.Node
	sp.Group = j.Group
	sp.Proc = core.ProcID(j.Proc)
	sp.Kind = KindOf(j.Kind)
	sp.Name = j.Name
	sp.Start = j.StartUS * 1e3
	if !j.InFlight {
		sp.End = sp.Start + j.DurUS*1e3
	}
	sp.Lamport = j.Lamport
	sp.Err = j.Err
	return sp, nil
}

// WriteJSONL dumps the flight recorder as JSON Lines: one FlightMeta
// header, the finished spans in merge order, then the in-flight table
// (inflight: true, no duration). This is the /trace response body and
// the mnmtrace input format.
func (f *Flight) WriteJSONL(w io.Writer) error {
	if f == nil {
		return nil
	}
	spans := f.Spans()
	live := f.InFlight()
	enc := json.NewEncoder(w)
	meta := FlightMeta{
		Node:     f.node,
		Dropped:  f.Dropped(),
		Clock:    f.clock.Now(),
		Spans:    len(spans),
		InFlight: len(live),
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, sp := range spans {
		if err := enc.Encode(sp.JSON()); err != nil {
			return err
		}
	}
	for _, sp := range live {
		if err := enc.Encode(sp.JSON()); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpans parses a JSONL flight dump (the WriteJSONL format). Header
// lines — objects without a "span" field — contribute metadata; span
// lines contribute spans. Multiple concatenated dumps parse fine, which
// is how the merger consumes a whole cluster: metas holds one entry per
// header encountered.
func ReadSpans(r io.Reader) (spans []Span, metas []FlightMeta, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Span string `json:"span"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, nil, fmt.Errorf("trace: bad dump line %q: %w", line, err)
		}
		if probe.Span == "" {
			var m FlightMeta
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, nil, fmt.Errorf("trace: bad dump header %q: %w", line, err)
			}
			metas = append(metas, m)
			continue
		}
		var j SpanJSON
		if err := json.Unmarshal(line, &j); err != nil {
			return nil, nil, fmt.Errorf("trace: bad span line %q: %w", line, err)
		}
		sp, err := j.ToSpan()
		if err != nil {
			return nil, nil, err
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return spans, metas, nil
}
