// Lock-free latency histograms for the real-time runtime.
//
// The simulator's theorems are about counts, but the socket layer adds a
// dimension the step model cannot see: how long a frame round trip or a
// remote-register RPC actually takes. Histogram records durations into
// fixed exponential buckets with single atomic adds — the same
// "instrumentation never serializes the measured system" discipline as
// Counters — and snapshots answer p50/p95/p99/max queries.

package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of fixed buckets. Bucket i covers durations in
// [2^i, 2^(i+1)) microseconds; bucket 0 also absorbs sub-microsecond
// observations and the last bucket absorbs everything beyond ~2^26 µs
// (≈ 67 s), far past any timeout in the transport layer.
const histBuckets = 26

// Histogram is a lock-free fixed-bucket latency histogram. Observe is a
// handful of atomic operations and never allocates; all methods are safe
// for any number of concurrent callers. A nil *Histogram ignores
// observations and reports zeros, so instrumentation needs no guards.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketFor maps a duration in nanoseconds to its bucket index.
func bucketFor(ns int64) int {
	us := ns / 1000
	if us <= 1 {
		return 0
	}
	i := bits.Len64(uint64(us)) - 1
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpperNS is the exclusive upper bound of bucket i in nanoseconds.
func bucketUpperNS(i int) int64 {
	return (int64(1) << (i + 1)) * 1000
}

// Observe records one duration. Negative durations are clamped to zero
// (they can only come from clock weirdness, not real latencies).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	h.buckets[bucketFor(ns)].Add(1)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveValue records a unitless value v (a batch size, a queue depth)
// into the same exponential buckets by mapping one value unit onto 1µs of
// the duration scale: bucket i then covers values [2^i, 2^(i+1)). The
// exporters render such histograms in the duration schema (1µs = 1 unit),
// so a snapshot's Quantile or Mean divided by time.Microsecond is back in
// value units.
func (h *Histogram) ObserveValue(v int64) {
	if v < 0 {
		v = 0
	}
	h.Observe(time.Duration(v) * time.Microsecond)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the histogram state. Like Counters.Snapshot, each cell
// is one atomic load: exact per cell, monotone under concurrent Observes.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumNS = h.sumNS.Load()
	s.MaxNS = h.maxNS.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable copy of a Histogram at one instant.
type HistSnapshot struct {
	Count   int64
	SumNS   int64
	MaxNS   int64
	Buckets [histBuckets]int64
}

// Quantile returns a conservative estimate (the upper bound of the bucket
// holding the q-th observation, clamped to the observed max) of the q
// quantile, for q in (0, 1]. It returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			if i == histBuckets-1 {
				// The overflow bucket has no meaningful upper bound.
				return time.Duration(s.MaxNS)
			}
			up := bucketUpperNS(i)
			if up > s.MaxNS {
				up = s.MaxNS
			}
			return time.Duration(up)
		}
	}
	return time.Duration(s.MaxNS)
}

// Mean returns the average observed duration, or 0 when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Max returns the largest observed duration.
func (s HistSnapshot) Max() time.Duration { return time.Duration(s.MaxNS) }

// Sub returns the per-interval delta s - earlier: counts, sums and buckets
// subtract; Max keeps the later snapshot's value (a windowed max would
// need per-window state the lock-free cells do not track).
func (s HistSnapshot) Sub(earlier HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count: s.Count - earlier.Count,
		SumNS: s.SumNS - earlier.SumNS,
		MaxNS: s.MaxNS,
	}
	for i := range out.Buckets {
		out.Buckets[i] = s.Buckets[i] - earlier.Buckets[i]
	}
	return out
}
