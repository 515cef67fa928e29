package queue

import (
	"testing"
	"time"
)

func TestRingFIFOAcrossWraparound(t *testing.T) {
	var r Ring[int]
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring reported a value")
	}
	// Interleave pushes and pops so head walks around the buffer several
	// times while the ring grows through multiple capacities.
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < round/2; i++ {
			v, ok := r.Pop()
			if !ok || v != want {
				t.Fatalf("Pop = %d,%v; want %d", v, ok, want)
			}
			want++
		}
	}
	if r.Len() != next-want {
		t.Fatalf("Len = %d, want %d", r.Len(), next-want)
	}
	for want < next {
		v, ok := r.Pop()
		if !ok || v != want {
			t.Fatalf("drain Pop = %d,%v; want %d", v, ok, want)
		}
		want++
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", r.Len())
	}
}

func TestRingPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	x := new(int)
	r.Push(x)
	if v, ok := r.Pop(); !ok || v != x {
		t.Fatal("Pop did not return the pushed pointer")
	}
	// The vacated slot must not keep the pointer reachable.
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d still holds a pointer after Pop", i)
		}
	}
}

func TestRingSteadyStateDoesNotAllocate(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 1024; i++ {
		r.Push(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Push(1)
		r.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push+pop allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMailboxEmptyPopTakesNoLock: Pop on an empty mailbox is one atomic
// load, so it returns while another goroutine holds the mailbox's lock.
func TestMailboxEmptyPopTakesNoLock(t *testing.T) {
	var m Mailbox[int]
	m.mu.Lock()
	defer m.mu.Unlock()
	done := make(chan bool, 1)
	go func() {
		_, ok := m.Pop()
		done <- ok
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop on an empty mailbox reported a value")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Pop on an empty mailbox waited for the mailbox's lock")
	}
}

// TestMailboxWakeFindsPushedElement hands elements one at a time to
// a receiver that polls only when woken: Push raises Len before it
// signals, so every token finds the mailbox non-empty.
func TestMailboxWakeFindsPushedElement(t *testing.T) {
	const total = 20000
	var m Mailbox[int]
	wake := make(chan struct{}, 1)
	m.SetWake(wake)
	taken := make(chan struct{})
	go func() {
		for i := 0; i < total; i++ {
			m.Push(i)
			<-taken
		}
	}()
	for i := 0; i < total; i++ {
		<-wake
		if n := m.Len(); n != 1 {
			t.Fatalf("woken for element %d, Len = %d, want 1", i, n)
		}
		if v, ok := m.Pop(); !ok || v != i {
			t.Fatalf("Pop = %d, %v; want %d", v, ok, i)
		}
		taken <- struct{}{}
	}
}

// TestMailboxSetWakeNilUnregisters: a registered wake-up gets one
// coalesced token per run of pushes, Signal included, and none after
// SetWake(nil).
func TestMailboxSetWakeNilUnregisters(t *testing.T) {
	var m Mailbox[int]
	wake := make(chan struct{}, 1)
	m.SetWake(wake)
	m.Push(1)
	m.Push(2) // coalesces: the buffer of one is full
	if len(wake) != 1 {
		t.Fatalf("%d tokens after two pushes, want 1", len(wake))
	}
	<-wake
	m.Signal()
	if len(wake) != 1 {
		t.Fatal("Signal left no token")
	}
	<-wake
	m.SetWake(nil)
	m.Push(3)
	m.Signal()
	if len(wake) != 0 {
		t.Fatal("a push after SetWake(nil) signalled the old wake-up")
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
}
