// Fixture for the callgraph and summary engine unit tests: mutual
// recursion, method values, deferred and go'd calls, a nested lock
// region behind an early-exit unlock guard, and go statements under a
// lock.
package engine

import (
	"sync"
	"time"
)

// wait has a direct blocking effect.
func wait() { time.Sleep(time.Millisecond) }

// ping and pong form a recursive component; the blocking effect enters
// through pong and must reach both members at the fixpoint.
func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) {
	wait()
	ping(n)
}

type worker struct{ mu sync.Mutex }

func (w *worker) block() { time.Sleep(time.Second) }

// methodValue captures block without a visible call site; the value
// escapes, so its effects must still propagate (a Ref edge).
func methodValue(w *worker) func() {
	f := w.block
	return f
}

// deferred runs block at function exit — synchronous, so the effect
// propagates.
func deferred(w *worker) {
	defer w.block()
}

// spawns hands block to a new goroutine: the caller itself never blocks.
func spawns(w *worker) {
	go w.block()
}

type inner struct{ mu sync.Mutex }

type outer struct {
	mu     sync.Mutex
	closed bool
	in     *inner
}

// nest acquires inner.mu under outer.mu past an early-exit unlock guard:
// the guard's Unlock must not blind the walker to the fall-through
// region still holding outer.mu.
func (o *outer) nest() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.in.mu.Lock()
	o.in.mu.Unlock()
	o.mu.Unlock()
}

// size takes inner.mu.
func (i *inner) size() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return 0
}

func consume(int) {}

// spawnWithArg evaluates o.in.size() — which takes inner.mu — on this
// goroutine, under outer.mu, before consume starts on the new one.
func (o *outer) spawnWithArg() {
	o.mu.Lock()
	go consume(o.in.size())
	o.mu.Unlock()
}

// spawnLiteral's literal takes inner.mu on the new goroutine, where
// outer.mu is not held.
func (o *outer) spawnLiteral() {
	o.mu.Lock()
	go func() {
		o.in.mu.Lock()
		o.in.mu.Unlock()
	}()
	o.mu.Unlock()
}

// box is a generic type with a lock of its own.
type box[T any] struct {
	mu sync.Mutex
	v  []T
}

// put takes box.mu.
func (b *box[T]) put(v T) {
	b.mu.Lock()
	b.v = append(b.v, v)
	b.mu.Unlock()
}

// fill calls a method of an instantiated box under outer.mu: the call
// resolves to the generic declaration, so box.mu is acquired under it.
func (o *outer) fill(b *box[int]) {
	o.mu.Lock()
	b.put(1)
	o.mu.Unlock()
}
