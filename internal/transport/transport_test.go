package transport

import (
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
)

func TestChanRoundTrip(t *testing.T) {
	c := NewChan(3, nil)
	if c.N() != 3 {
		t.Fatalf("N() = %d, want 3", c.N())
	}
	if err := c.Dial(); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Send(0, 1, "hello", core.SpanContext{}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, ok := c.TryRecv(1)
	if !ok || m.From != 0 || m.Payload != "hello" {
		t.Fatalf("TryRecv(1) = %+v, %v", m, ok)
	}
	if _, ok := c.TryRecv(1); ok {
		t.Fatal("second TryRecv should find an empty mailbox")
	}
}

func TestChanBroadcastReachesEveryoneIncludingSender(t *testing.T) {
	c := NewChan(3, nil)
	if err := c.Broadcast(1, 42, core.SpanContext{}); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for p := core.ProcID(0); p < 3; p++ {
		m, ok := c.TryRecv(p)
		if !ok || m.From != 1 || m.Payload != 42 {
			t.Fatalf("TryRecv(%v) = %+v, %v", p, m, ok)
		}
	}
}

func TestChanLinkStateAndClose(t *testing.T) {
	c := NewChan(2, nil)
	if got := c.LinkState(0, 1); got != LinkUp {
		t.Fatalf("LinkState before close = %v, want %v", got, LinkUp)
	}
	if got := c.LinkState(0, 5); got != LinkUnknown {
		t.Fatalf("LinkState out of range = %v, want %v", got, LinkUnknown)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := c.LinkState(0, 1); got != LinkClosed {
		t.Fatalf("LinkState after close = %v, want %v", got, LinkClosed)
	}
	if err := c.Send(0, 1, "x", core.SpanContext{}); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if err := c.Broadcast(0, "x", core.SpanContext{}); err != ErrClosed {
		t.Fatalf("Broadcast after close = %v, want ErrClosed", err)
	}
}

func TestLossyDropsAndMeters(t *testing.T) {
	counters := metrics.NewCounters(2)
	l := NewLossy(NewChan(2, nil), &msgnet.DropFirstK{K: 1}, counters)
	// First attempt dropped, retry delivered: the Fair-loss contract.
	if err := l.Send(0, 1, "m", core.SpanContext{}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, ok := l.TryRecv(1); ok {
		t.Fatal("first send should have been dropped")
	}
	if err := l.Send(0, 1, "m", core.SpanContext{}); err != nil {
		t.Fatalf("Send retry: %v", err)
	}
	if m, ok := l.TryRecv(1); !ok || m.Payload != "m" {
		t.Fatalf("retry not delivered: %+v, %v", m, ok)
	}
	if got := counters.Total(metrics.MsgDropped); got != 1 {
		t.Fatalf("MsgDropped = %d, want 1", got)
	}
}

// TestChanDeliversAtSend: a Chan send is in the receiver's mailbox when
// Send returns; there is no tick to wait for.
func TestChanDeliversAtSend(t *testing.T) {
	c := NewChan(2, nil)
	if err := c.Send(0, 1, 99, core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if m, ok := c.TryRecv(1); !ok || m.Payload != 99 {
		t.Fatalf("TryRecv = (%v, %v), want 99 immediately", m, ok)
	}
	if err := c.Send(0, 2, "x", core.SpanContext{}); err == nil {
		t.Error("send to an unknown process succeeded")
	}
	if err := c.Send(-1, 0, "x", core.SpanContext{}); err == nil {
		t.Error("send from an unknown process succeeded")
	}
	if _, ok := c.TryRecv(9); ok {
		t.Error("TryRecv for an unknown process returned a message")
	}
}

// TestChanMetersEveryCopy: MsgSent is metered per copy under the sender
// and MsgDelivered per copy under the receiver, a broadcast's self copy
// included.
func TestChanMetersEveryCopy(t *testing.T) {
	counters := metrics.NewCounters(3)
	c := NewChan(3, counters)
	if err := c.Send(0, 1, "a", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Broadcast(2, "b", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    core.ProcID
		k    metrics.Kind
		want int64
	}{
		{0, metrics.MsgSent, 1}, {2, metrics.MsgSent, 3},
		{0, metrics.MsgDelivered, 1}, {1, metrics.MsgDelivered, 2}, {2, metrics.MsgDelivered, 1},
	} {
		if got := counters.Of(tc.p, tc.k); got != tc.want {
			t.Errorf("%v of p%d = %d, want %d", tc.k, tc.p, got, tc.want)
		}
	}
}

// TestChanWakesAtDelivery: a registered wake-up gets a token from every
// delivery, a broadcast's included, and none once SetWake(nil)
// unregisters it; an unknown process is ignored.
func TestChanWakesAtDelivery(t *testing.T) {
	c := NewChan(2, nil)
	wake := make(chan struct{}, 1)
	c.SetWake(1, wake)
	c.SetWake(5, wake) // out of range: ignored
	for _, send := range []func() error{
		func() error { return c.Send(0, 1, "a", core.SpanContext{}) },
		func() error { return c.Broadcast(0, "b", core.SpanContext{}) },
	} {
		if err := send(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-wake:
		default:
			t.Fatal("no wake-up at delivery")
		}
	}
	c.SetWake(1, nil)
	if err := c.Send(0, 1, "c", core.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if len(wake) != 0 {
		t.Fatal("a delivery after SetWake(nil) signalled the old wake-up")
	}
}

// TestChanConcurrentSendRecv broadcasts and receives from every process
// at once (run it under -race): nothing is lost or duplicated.
func TestChanConcurrentSendRecv(t *testing.T) {
	const n, rounds = 4, 100
	c := NewChan(n, nil)
	var wg sync.WaitGroup
	got := make([]int, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p core.ProcID) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := c.Broadcast(p, i, core.SpanContext{}); err != nil {
					t.Error(err)
					return
				}
				if _, ok := c.TryRecv(p); ok {
					got[p]++
				}
			}
		}(core.ProcID(p))
	}
	wg.Wait()
	total := 0
	for p := core.ProcID(0); p < n; p++ {
		total += got[p]
		for {
			if _, ok := c.TryRecv(p); !ok {
				break
			}
			total++
		}
	}
	if total != n*rounds*n {
		t.Fatalf("received %d messages, want %d", total, n*rounds*n)
	}
}

// lockMailbox takes p's mailbox lock, the lock queue.Mailbox keeps to
// itself, and returns its unlock.
func lockMailbox(t *testing.T, c *Chan, p core.ProcID) func() {
	f := reflect.ValueOf(&c.mailboxes[p]).Elem().FieldByName("mu")
	if !f.IsValid() {
		t.Fatal("queue.Mailbox has no field mu")
	}
	mu := (*sync.Mutex)(unsafe.Pointer(f.UnsafeAddr()))
	mu.Lock()
	return mu.Unlock
}

// TestChanEmptyTryRecvTakesNoLock is the Chan twin of the tcp test of
// the same name: with p1's mailbox lock held, an empty TryRecv(1)
// returns at once (one atomic load); with p0's held, a Send to p1 and
// the TryRecv that pops it take only p1's lock.
func TestChanEmptyTryRecvTakesNoLock(t *testing.T) {
	c := NewChan(2, nil)
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited for a lock it should not take", what)
		}
	}

	unlock := lockMailbox(t, c, 1)
	var ok bool
	within("an empty TryRecv", func() { _, ok = c.TryRecv(1) })
	unlock()
	if ok {
		t.Fatal("TryRecv on an empty mailbox reported a message")
	}

	unlock = lockMailbox(t, c, 0)
	defer unlock()
	var err error
	var m core.Message
	within("a Send to p1 and its TryRecv", func() {
		if err = c.Send(0, 1, "hosted", core.SpanContext{}); err == nil {
			m, ok = c.TryRecv(1)
		}
	})
	if err != nil || !ok || m.Payload != "hosted" {
		t.Fatalf("Send then TryRecv = %v, %v, %v; want nil, true, hosted", err, ok, m.Payload)
	}
}
