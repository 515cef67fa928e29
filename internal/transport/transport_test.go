package transport

import (
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
)

func TestChanRoundTrip(t *testing.T) {
	c := NewChan(3, msgnet.Reliable)
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
	c := NewChan(3, msgnet.Reliable)
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
	c := NewChan(2, msgnet.Reliable)
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
	l := NewLossy(NewChan(2, msgnet.FairLossy), &msgnet.DropFirstK{K: 1}, counters)
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
