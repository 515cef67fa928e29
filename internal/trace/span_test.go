package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
)

func TestClockTickObserve(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock not 0")
	}
	if c.Tick() != 1 || c.Tick() != 2 {
		t.Fatal("Tick not sequential")
	}
	// A receive from the future jumps past the remote stamp.
	if got := c.Observe(100); got != 101 {
		t.Fatalf("Observe(100) = %d, want 101", got)
	}
	// A receive from the past is a plain tick.
	if got := c.Observe(5); got != 102 {
		t.Fatalf("Observe(5) = %d, want 102", got)
	}
	if got := c.Observe(0); got != 103 {
		t.Fatalf("Observe(0) = %d, want 103", got)
	}
}

func TestNilFlightAndScopeSafe(t *testing.T) {
	var f *Flight
	if f.Node() != "" || f.Sample() != 0 || f.ClockNow() != 0 || f.Dropped() != 0 || f.Len() != 0 {
		t.Error("nil Flight returned data")
	}
	if f.Spans() != nil || f.InFlight() != nil {
		t.Error("nil Flight returned spans")
	}
	if err := f.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	s := f.Scope("group-1", nil)
	if s != nil {
		t.Fatal("nil Flight handed out a non-nil Scope")
	}
	sp := s.Start(0, CAS, named("r"))
	if sp != nil {
		t.Fatal("nil Scope started a span")
	}
	if sc := s.Outbound(sp); sc != (core.SpanContext{}) {
		t.Fatalf("nil Scope Outbound = %+v, want zero", sc)
	}
	s.Observe(7)
	sp.Finish(nil) // nil span: must not panic
	if s.StartRemote(0, Serve, named("r"), core.SpanContext{TraceID: 1, SpanID: 2, Clock: 3}) != nil {
		t.Fatal("nil Scope started a remote span")
	}
}

// TestSpanCrossNodeLifecycle walks one traced op across two flight
// recorders — the client CAS on node A, the serve span on node B — and
// checks identity propagation, Lamport order, and the JSONL round trip.
func TestSpanCrossNodeLifecycle(t *testing.T) {
	fa := NewFlight("nodeA", 16, 1)
	fb := NewFlight("nodeB", 16, 1)
	sa := fa.Scope("group-3", nil)
	sb := fb.Scope("group-3", nil)

	cas := sa.Start(0, CAS, named("r1@p1"))
	if cas == nil {
		t.Fatal("sampled root span is nil")
	}
	if !cas.TraceIDValid() {
		t.Fatalf("root span ids: %+v", cas)
	}
	ctx := sa.Outbound(cas)
	if ctx.TraceID != cas.TraceID || ctx.SpanID != cas.SpanID || ctx.Clock == 0 {
		t.Fatalf("Outbound = %+v, span %+v", ctx, cas)
	}

	serve := sb.StartRemote(1, Serve, named("cas r1@p1"), ctx)
	if serve == nil {
		t.Fatal("traced context did not start a remote span")
	}
	if serve.TraceID != cas.TraceID || serve.Parent != cas.SpanID {
		t.Fatalf("serve span not linked: %+v", serve)
	}
	if serve.Lamport <= ctx.Clock {
		t.Fatalf("receive edge Lamport %d not after send %d", serve.Lamport, ctx.Clock)
	}
	resp := sb.Outbound(serve)
	serve.Finish(nil)
	sa.Observe(resp.Clock)
	cas.Finish(nil)
	if fa.ClockNow() <= resp.Clock {
		t.Fatalf("client clock %d did not merge response clock %d", fa.ClockNow(), resp.Clock)
	}

	// Dump both nodes, concatenate, parse back — the merger's path.
	var buf bytes.Buffer
	if err := fa.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fb.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, metas, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Node != "nodeA" || metas[1].Node != "nodeB" {
		t.Fatalf("metas = %+v", metas)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	SortSpans(spans)
	if spans[0].Kind != CAS || spans[1].Kind != Serve {
		t.Fatalf("merge order wrong: %v then %v", spans[0].Kind, spans[1].Kind)
	}
	if spans[1].Parent != spans[0].SpanID || spans[0].Group != "group-3" {
		t.Fatalf("round trip lost linkage: %+v", spans)
	}
	if spans[0].Lamport >= spans[1].Lamport {
		t.Fatal("Lamport order lost in round trip")
	}
}

// TraceIDValid is a test helper: both identifiers assigned.
func (sp *Span) TraceIDValid() bool { return sp.TraceID != 0 && sp.SpanID != 0 }

// named is a Start name that needs no formatting.
func named(s string) func() string { return func() string { return s } }

// TestHeadSampling: with rate k, exactly every k-th root op records; the
// unsampled ops stay allocation-free but their send edges still tick the
// clock so receivers merge a live stamp.
func TestHeadSampling(t *testing.T) {
	f := NewFlight("n", 64, 4)
	s := f.Scope("", nil)
	sampled := 0
	var lastClock uint64
	for i := 0; i < 100; i++ {
		sp := s.Start(0, Send, named("m"))
		if sp != nil {
			sampled++
		}
		sc := s.Outbound(sp)
		if sc.Clock <= lastClock {
			t.Fatalf("send edge %d did not tick the clock: %d then %d", i, lastClock, sc.Clock)
		}
		if sp == nil && sc.Traced() {
			t.Fatal("unsampled op put a trace id on the wire")
		}
		lastClock = sc.Clock
		sp.Finish(nil)
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at rate 4, want 25", sampled)
	}

	allocs := testing.AllocsPerRun(100, func() {
		sp := (*Scope)(nil).Start(0, Send, named("m"))
		_ = (*Scope)(nil).Outbound(sp)
		sp.Finish(nil)
	})
	if allocs != 0 {
		t.Fatalf("tracing-off hot path allocates %.1f/op, want 0", allocs)
	}
}

func TestInFlightTable(t *testing.T) {
	f := NewFlight("n", 8, 1)
	s := f.Scope("group-1", nil)
	sp := s.Start(2, RegRead, named("r0@p0"))
	live := f.InFlight()
	if len(live) != 1 || live[0].SpanID != sp.SpanID || live[0].End != 0 {
		t.Fatalf("InFlight = %+v", live)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"inflight":true`) {
		t.Fatalf("dump missing in-flight marker:\n%s", buf.String())
	}
	sp.Finish(errors.New("boom"))
	if len(f.InFlight()) != 0 {
		t.Fatal("finished span still in flight")
	}
	spans := f.Spans()
	if len(spans) != 1 || spans[0].Err != "boom" || spans[0].End == 0 {
		t.Fatalf("Spans = %+v", spans)
	}
}

// TestFlightEvictionExact: the ring's drop accounting is exact under
// concurrent finishes from many groups (run under -race in CI).
func TestFlightEvictionExact(t *testing.T) {
	const (
		groups = 8
		each   = 500
		ringSz = 64
	)
	f := NewFlight("n", ringSz, 1)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := f.Scope("group-x", nil)
			for i := 0; i < each; i++ {
				sp := s.Start(core.ProcID(g), Send, named("m"))
				sp.Finish(nil)
				if i%100 == 0 {
					_ = f.Dropped()
					_ = f.Spans()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := f.Dropped(), uint64(groups*each-ringSz); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	if f.Len() != ringSz {
		t.Errorf("Len = %d, want full ring of %d", f.Len(), ringSz)
	}
	if len(f.InFlight()) != 0 {
		t.Errorf("in-flight table leaked %d spans", len(f.InFlight()))
	}
}

// TestFlightLocalFloodKeepsCrossNodeSpans: node-local spans evict only
// each other, so both halves of a cross-node tree — the client span whose
// context left the node and the serve span with a remote parent — outlive
// a flood of local ones.
func TestFlightLocalFloodKeepsCrossNodeSpans(t *testing.T) {
	const ringSz = 8
	f := NewFlight("n", ringSz, 1)
	s := f.Scope("", nil)
	client := s.Start(0, RegRead, named("r@p1"))
	ctx := s.Outbound(client)
	client.Finish(nil)
	serve := s.StartRemote(1, Serve, named("read"), core.SpanContext{TraceID: 9, SpanID: 10, Clock: 1})
	serve.Finish(nil)
	for i := 0; i < 10*ringSz; i++ {
		s.Start(0, RegWrite, named("hb")).Finish(nil)
	}
	kept := map[uint64]bool{}
	for _, sp := range f.Spans() {
		kept[sp.SpanID] = true
	}
	if !kept[ctx.SpanID] || !kept[serve.SpanID] {
		t.Fatalf("local flood evicted a cross-node span: client kept %v, serve kept %v", kept[ctx.SpanID], kept[serve.SpanID])
	}
	if got, want := f.Len(), ringSz+2; got != want {
		t.Errorf("Len = %d, want %d (full local ring plus two cross-node spans)", got, want)
	}
	if got, want := f.Dropped(), uint64(10*ringSz-ringSz); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
}

// TestSpanHistograms: finishing a span feeds the scope registry's
// per-op-kind latency histogram.
func TestSpanHistograms(t *testing.T) {
	reg := metrics.NewRegistry(2)
	s := NewFlight("n", 8, 1).Scope("group-1", reg)
	for i := 0; i < 3; i++ {
		s.Start(0, CAS, named("r")).Finish(nil)
	}
	s.Start(0, Send, named("m")).Finish(nil)
	if got := reg.Histogram(metrics.HistSpanPrefix + "cas").Count(); got != 3 {
		t.Errorf("span_cas count = %d, want 3", got)
	}
	if got := reg.Histogram(metrics.HistSpanPrefix + "send").Count(); got != 1 {
		t.Errorf("span_send count = %d, want 1", got)
	}
}

// TestRecorderDumpConsistentUnderEviction is the concurrent-eviction
// regression test: many writers share one bounded Recorder while WriteTo
// dumps are taken concurrently. Each dump's "(N earlier events dropped)"
// header must agree with the events in that same dump — the header's drop
// count can be no smaller than the evictions implied by the events
// themselves. The pre-fix code read Dropped() and Events() under two
// separate lock acquisitions, so a dump taken mid-storm understated the
// drop count relative to the events it rendered.
func TestRecorderDumpConsistentUnderEviction(t *testing.T) {
	const (
		groups = 8
		each   = 2000
		ringSz = 32
		dumps  = 40
	)
	r := NewRecorder(ringSz)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(Event{Step: uint64(i), Proc: core.ProcID(g), Kind: Send})
			}
		}(g)
	}
	check := func(iter int) {
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Error(err)
			return
		}
		out := strings.TrimRight(buf.String(), "\n")
		if out == "" {
			// The dump beat every writer: no events, no drops — vacuously
			// consistent.
			return
		}
		var dropped uint64
		// maxStep[g]+1 records from group g certainly happened before the
		// snapshot, so at least sum(maxStep+1) - ring events were evicted
		// by then. A header from an earlier instant than the events
		// violates this.
		maxStep := make(map[int]uint64)
		events := 0
		for _, line := range strings.Split(out, "\n") {
			if _, err := fmt.Sscanf(line, "(%d earlier events dropped)", &dropped); err == nil {
				continue
			}
			var step uint64
			var proc int
			if _, err := fmt.Sscanf(line, "[%d] p%d send", &step, &proc); err != nil {
				t.Errorf("bad dump line %q: %v", line, err)
				return
			}
			events++
			if s := step + 1; s > maxStep[proc] {
				maxStep[proc] = s
			}
		}
		var implied uint64
		for _, s := range maxStep {
			implied += s
		}
		if implied > uint64(ringSz) && dropped < implied-uint64(ringSz) {
			t.Errorf("dump %d: header says %d dropped, events imply >= %d (drift)",
				iter, dropped, implied-uint64(ringSz))
		}
		if dropped > 0 && events != ringSz {
			t.Errorf("dump %d: %d dropped but only %d events in a %d-ring",
				iter, dropped, events, ringSz)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < dumps; i++ {
			check(i)
		}
	}()
	wg.Wait()
	<-done
	check(dumps) // and once quiescent
	if got, want := r.Dropped(), uint64(groups*each-ringSz); got != want {
		t.Errorf("final Dropped = %d, want %d", got, want)
	}
}
