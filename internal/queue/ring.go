// Package queue provides the growable ring buffer backing per-process
// mailboxes in the message substrates (internal/msgnet, the TCP
// transport), and the Mailbox that wakes a parked receiver on delivery.
//
// Mailboxes were previously plain slices popped with copy(box, box[1:]),
// which shifts the whole queue on every receive — O(depth) per op, so a
// reader catching up on a deep mailbox paid a quadratic total. A ring
// pops in O(1) and still zeroes vacated slots so delivered payloads are
// not pinned by the backing array.
package queue

// Ring is a FIFO queue over a growable circular buffer. Push and Pop are
// amortized O(1). The zero value is an empty ring ready for use. Ring is
// not safe for concurrent use; callers hold their own lock (msgnet's
// mailbox rings live under its network mutex, the tcp transport's each
// under a lock of its own).
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

// Peek returns the oldest element without removing it.
func (r *Ring[T]) Peek() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	return r.buf[r.head], true
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

// Mailbox is a Ring whose Push also signals Wake, when set, with one
// non-blocking send: a receiver parked on Wake learns the queue has grown.
// Give Wake a buffer of one and pushes coalesce into one pending token
// that waits until the receiver selects, so a push racing the receiver's
// park is never lost. Like Ring, Mailbox relies on the caller's lock.
type Mailbox[T any] struct {
	Ring[T]
	Wake chan<- struct{}
}

// Push appends v and signals Wake without ever blocking.
func (m *Mailbox[T]) Push(v T) {
	m.Ring.Push(v)
	m.Signal()
}

// Signal makes Push's non-blocking send on Wake, when set, without
// appending anything: a wake-up that delivers no message.
func (m *Mailbox[T]) Signal() {
	if m.Wake != nil {
		select {
		case m.Wake <- struct{}{}:
		default:
		}
	}
}
