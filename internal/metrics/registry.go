// Registry bundles one run's counters with its named latency histograms,
// so every layer (transport backends, the real-time host, binaries)
// reports into a single object with one schema, whatever the wire.

package metrics

import (
	"sort"
	"sync"

	"github.com/mnm-model/mnm/internal/core"
)

// Histogram names recorded by the built-in instrumentation. Backends and
// hosts use these constants so dashboards see one schema everywhere.
const (
	// HistFrameRTT is the TCP frame round trip: sequenced frame enqueued
	// at the sender until covered by the receiver node's cumulative ack.
	HistFrameRTT = "frame_rtt"
	// HistRPCCall is the transport-level RPC round trip (request enqueued
	// until the response frame arrives), recorded by socket backends.
	HistRPCCall = "rpc_call"
	// HistBatchFrames is the frames-per-flush distribution of the batched
	// frame writes. It is a value histogram recorded via ObserveValue (one
	// frame = 1µs in the exported duration schema).
	HistBatchFrames = "batch_frames"
	// HistRemoteRead/Write/CAS are the host-level remote-register
	// operation latencies, recorded around the RPC by internal/rt.
	HistRemoteRead  = "remote_read"
	HistRemoteWrite = "remote_write"
	HistRemoteCAS   = "remote_cas"
	// HistFsync is the WAL fsync latency — the price of durability, paid
	// once per journaled register apply and once per received-frame batch
	// when the durable transport is on (internal/durable).
	HistFsync = "wal_fsync"
	// HistSpanPrefix prefixes the per-op-kind span-latency histograms the
	// trace flight recorder feeds on span end: "span_send", "span_cas",
	// "span_serve", ... — one per trace.Kind that actually occurred, in
	// the group's sub-registry so the rows carry the group label.
	HistSpanPrefix = "span_"
)

// Registry is a thread-safe bundle of one Counters plus named Histograms.
// Histograms are created on first use; the counter set is fixed at
// construction. A nil *Registry is inert: Counters returns nil (itself
// inert) and Histogram returns nil (ditto), so instrumented code paths
// never need guards.
type Registry struct {
	mu       sync.RWMutex
	counters *Counters
	hists    map[string]*Histogram
	subs     map[string]*Registry
}

// NewRegistry returns a registry with fresh counters for n processes.
func NewRegistry(n int) *Registry {
	return &Registry{counters: NewCounters(n), hists: make(map[string]*Histogram)}
}

// Counters returns the registry's counter set.
func (r *Registry) Counters() *Counters {
	if r == nil {
		return nil
	}
	return r.counters
}

// Record forwards to the registry's counters (nil-safe).
func (r *Registry) Record(p core.ProcID, k Kind, delta int64) {
	r.Counters().Record(p, k, delta)
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Sub returns the sub-registry with the given label, creating it (with
// fresh counters for n processes) on first use. Sub-registries are the
// multi-tenant plane of the schema: one label per shard ("group-7"), each
// with its own counters and histograms, all reachable from the node's
// root registry — the exporters render them with a `group` label next to
// the node-level families. A sub-registry is a full Registry (nesting is
// possible but the exporters render one level).
func (r *Registry) Sub(label string, n int) *Registry {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	s, ok := r.subs[label]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.subs[label]; ok {
		return s
	}
	if r.subs == nil {
		r.subs = make(map[string]*Registry)
	}
	s = NewRegistry(n)
	r.subs[label] = s
	return s
}

// SubLabels returns the labels of all sub-registries created so far,
// sorted.
func (r *Registry) SubLabels() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.subs))
	for label := range r.subs {
		out = append(out, label)
	}
	sort.Strings(out)
	return out
}

// SubRegistry returns the sub-registry with the given label, or nil if it
// was never created.
func (r *Registry) SubRegistry(label string) *Registry {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.subs[label]
}

// HistSnapshots snapshots every histogram, keyed by name.
func (r *Registry) HistSnapshots() map[string]HistSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]HistSnapshot, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}
