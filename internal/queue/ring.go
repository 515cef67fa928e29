// Package queue provides the growable ring buffer behind every
// per-process mailbox: the simulator's network (internal/msgnet) keeps
// plain Rings under its one lock, and the real-time backends
// (transport.Chan, the TCP transport's hosted processes) each keep a
// Mailbox, a Ring with a lock of its own that wakes a parked receiver on
// delivery. A ring pops in O(1) whatever its depth, and zeroes vacated
// slots so delivered payloads are not pinned by the backing array.
package queue

import (
	"sync"
	"sync/atomic"
)

// Ring is a FIFO queue over a growable circular buffer. Push and Pop are
// amortized O(1). The zero value is an empty ring ready for use. Ring is
// not safe for concurrent use: callers hold their own lock, as msgnet's
// network mutex and Mailbox's lock do.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of queued elements
}

// minRingCap is the initial capacity of a ring's first allocation.
const minRingCap = 8

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v to the tail of the queue.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// Pop removes and returns the oldest element. The vacated slot is zeroed
// so the buffer does not keep the element's payload reachable.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

// grow doubles the buffer, unwrapping the queue to the front.
func (r *Ring[T]) grow() {
	capacity := len(r.buf) * 2
	if capacity < minRingCap {
		capacity = minRingCap
	}
	buf := make([]T, capacity)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}

// Mailbox is a concurrent FIFO mailbox: a Ring under a lock of its own,
// so deliveries to different mailboxes never contend, and an atomic
// length, so polling an empty mailbox takes no lock at all. A wake-up
// channel, when set, gets one non-blocking send after every Push. Give it
// a buffer of one and pushes coalesce into one pending token that waits
// until the receiver selects, so a push racing the receiver's park is
// never lost. The zero value is an empty mailbox with no wake-up.
type Mailbox[T any] struct {
	// n is the ring's length. Push raises it before it signals, so a
	// receiver woken by the signal finds the element.
	n    atomic.Int64
	mu   sync.Mutex
	ring Ring[T]
	wake chan<- struct{}
}

// Push appends v and signals the wake-up, without ever blocking.
func (m *Mailbox[T]) Push(v T) {
	m.mu.Lock()
	m.n.Add(1)
	m.ring.Push(v)
	m.signalLocked()
	m.mu.Unlock()
}

// Pop removes and returns the oldest element. An empty mailbox costs one
// atomic load.
func (m *Mailbox[T]) Pop() (T, bool) {
	if m.n.Load() == 0 {
		var zero T
		return zero, false
	}
	return m.pop()
}

// pop is Pop's locked path.
func (m *Mailbox[T]) pop() (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.ring.Pop()
	if ok {
		m.n.Add(-1)
	}
	return v, ok
}

// Len returns the number of queued elements.
func (m *Mailbox[T]) Len() int { return int(m.n.Load()) }

// Signal makes Push's send on the wake-up without appending anything: a
// wake-up that delivers nothing.
func (m *Mailbox[T]) Signal() {
	m.mu.Lock()
	m.signalLocked()
	m.mu.Unlock()
}

// SetWake registers ch as the wake-up; a nil ch unregisters.
func (m *Mailbox[T]) SetWake(ch chan<- struct{}) {
	m.mu.Lock()
	m.wake = ch
	m.mu.Unlock()
}

// signalLocked makes one non-blocking send on the wake-up, when set.
func (m *Mailbox[T]) signalLocked() {
	if m.wake != nil {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
}
