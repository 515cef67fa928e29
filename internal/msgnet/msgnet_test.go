package msgnet

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
)

func TestSendTickRecv(t *testing.T) {
	net := NewNetwork(3, Reliable)
	if err := net.Send(0, 1, "hello", core.SpanContext{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := net.Recv(1); ok {
		t.Error("message delivered before Tick in ticked mode")
	}
	net.Tick(1)
	m, ok := net.Recv(1)
	if !ok || m.From != 0 || m.Payload != "hello" {
		t.Errorf("Recv = (%v, %v), want hello from p0", m, ok)
	}
	if _, ok := net.Recv(1); ok {
		t.Error("duplicate delivery")
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	net := NewNetwork(3, Reliable)
	if err := net.Broadcast(1, "x", core.SpanContext{}, 0); err != nil {
		t.Fatal(err)
	}
	net.Tick(1)
	for p := core.ProcID(0); p < 3; p++ {
		m, ok := net.Recv(p)
		if !ok || m.From != 1 || m.Payload != "x" {
			t.Errorf("process %v: Recv = (%v, %v)", p, m, ok)
		}
	}
}

func TestUnknownProcess(t *testing.T) {
	net := NewNetwork(2, Reliable)
	if err := net.Send(0, 5, "x", core.SpanContext{}, 0); err == nil {
		t.Error("send to unknown process succeeded")
	}
	if err := net.Send(-1, 0, "x", core.SpanContext{}, 0); err == nil {
		t.Error("send from unknown process succeeded")
	}
	if _, ok := net.Recv(9); ok {
		t.Error("recv for unknown process returned a message")
	}
}

func TestLinkFIFO(t *testing.T) {
	net := NewNetwork(2, Reliable)
	for i := 0; i < 10; i++ {
		if err := net.Send(0, 1, i, core.SpanContext{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	net.Tick(1)
	for i := 0; i < 10; i++ {
		m, ok := net.Recv(1)
		if !ok || m.Payload != i {
			t.Fatalf("message %d: got (%v, %v)", i, m, ok)
		}
	}
}

func TestFixedDelay(t *testing.T) {
	net := NewNetwork(2, Reliable, WithDeliveryPolicy(FixedDelay{D: 5}))
	if err := net.Send(0, 1, "slow", core.SpanContext{}, 10); err != nil {
		t.Fatal(err)
	}
	for now := uint64(11); now < 15; now++ {
		net.Tick(now)
		if _, ok := net.Recv(1); ok {
			t.Fatalf("delivered at %d, want ≥ 15", now)
		}
	}
	net.Tick(15)
	if _, ok := net.Recv(1); !ok {
		t.Error("not delivered at sentAt+D")
	}
}

func TestFIFOPreservedUnderDelay(t *testing.T) {
	// Second message has no delay left, first is still held: FIFO demands
	// the link block, not reorder.
	net := NewNetwork(2, Reliable, WithDeliveryPolicy(FixedDelay{D: 10}))
	if err := net.Send(0, 1, "first", core.SpanContext{}, 100); err != nil { // ready at 110
		t.Fatal(err)
	}
	if err := net.Send(0, 1, "second", core.SpanContext{}, 95); err != nil { // ready at 105
		t.Fatal(err)
	}
	net.Tick(106)
	if _, ok := net.Recv(1); ok {
		t.Fatal("second overtook first on a FIFO link")
	}
	net.Tick(110)
	m, _ := net.Recv(1)
	if m.Payload != "first" {
		t.Errorf("first delivery = %v", m.Payload)
	}
	m, _ = net.Recv(1)
	if m.Payload != "second" {
		t.Errorf("second delivery = %v", m.Payload)
	}
}

func TestPartitionHoldsCrossTraffic(t *testing.T) {
	part := &Partition{SideA: map[core.ProcID]bool{0: true, 1: true}, Until: 100}
	net := NewNetwork(4, Reliable, WithDeliveryPolicy(part))
	if err := net.Send(0, 2, "cross", core.SpanContext{}, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(0, 1, "within", core.SpanContext{}, 1); err != nil {
		t.Fatal(err)
	}
	net.Tick(50)
	if _, ok := net.Recv(2); ok {
		t.Error("cross-partition message delivered during partition")
	}
	if m, ok := net.Recv(1); !ok || m.Payload != "within" {
		t.Error("within-side message not delivered")
	}
	net.Tick(101)
	if m, ok := net.Recv(2); !ok || m.Payload != "cross" {
		t.Error("cross message not delivered after partition healed")
	}
}

func TestReliableIgnoresDropPolicy(t *testing.T) {
	net := NewNetwork(2, Reliable, WithDropPolicy(&DropFirstK{K: 100}))
	if err := net.Send(0, 1, "must-arrive", core.SpanContext{}, 0); err != nil {
		t.Fatal(err)
	}
	net.Tick(1)
	if _, ok := net.Recv(1); !ok {
		t.Error("reliable link dropped a message")
	}
}

func TestDropFirstKFairLoss(t *testing.T) {
	net := NewNetwork(2, FairLossy, WithDropPolicy(&DropFirstK{K: 3}))
	delivered := 0
	for i := 0; i < 5; i++ {
		if err := net.Send(0, 1, "retry-me", core.SpanContext{}, uint64(i)); err != nil {
			t.Fatal(err)
		}
		net.Tick(uint64(i))
		if _, ok := net.Recv(1); ok {
			delivered++
		}
	}
	if delivered != 2 {
		t.Errorf("delivered %d of 5 sends with K=3, want 2", delivered)
	}
	// Distinct payloads are tracked separately.
	if err := net.Send(0, 1, "other", core.SpanContext{}, 5); err != nil {
		t.Fatal(err)
	}
	net.Tick(5)
	if _, ok := net.Recv(1); ok {
		t.Error("first send of distinct payload not dropped")
	}
}

func TestRandomDropRespectsProbability(t *testing.T) {
	d := NewRandomDrop(0.5, 7)
	drops := 0
	const total = 2000
	for i := 0; i < total; i++ {
		if d.Drop(0, 1, i) {
			drops++
		}
	}
	if drops < total/3 || drops > 2*total/3 {
		t.Errorf("drops = %d of %d at p=0.5", drops, total)
	}
	if NewRandomDrop(0, 1).Drop(0, 1, "x") {
		t.Error("p=0 dropped")
	}
	// p >= 1 is clamped below 1: over many attempts some must survive
	// (Fair-loss).
	d = NewRandomDrop(1.0, 1)
	kept := 0
	for i := 0; i < 1e6 && kept == 0; i++ {
		if !d.Drop(0, 1, "x") {
			kept++
		}
	}
	if kept == 0 {
		t.Error("p=1.0 clamped policy never delivered in 1e6 attempts")
	}
}

// TestQuickIntegrity property-checks the Integrity axiom: over random
// send/tick/recv interleavings, every received message was previously sent,
// at most as many times as it was sent.
func TestQuickIntegrity(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		const n = 4
		net := NewNetwork(n, FairLossy,
			WithDropPolicy(NewRandomDrop(0.2, seed)),
			WithDeliveryPolicy(RandomDelay{Max: 3, Seed: uint64(seed)}))
		sent := map[[3]int]int{} // (from,to,payload) -> count
		recv := map[[3]int]int{}
		now := uint64(0)
		for _, op := range ops {
			from := int(op) % n
			to := int(op>>2) % n
			pay := int(op >> 4)
			switch op % 3 {
			case 0:
				if err := net.Send(core.ProcID(from), core.ProcID(to), pay, core.SpanContext{}, now); err != nil {
					return false
				}
				sent[[3]int{from, to, pay}]++
			case 1:
				now++
				net.Tick(now)
			case 2:
				if m, ok := net.Recv(core.ProcID(to)); ok {
					recv[[3]int{int(m.From), to, m.Payload.(int)}]++
				}
			}
		}
		// Drain everything still in flight or boxed.
		for i := 0; i < 10; i++ {
			now++
			net.Tick(now)
		}
		for p := 0; p < n; p++ {
			for {
				m, ok := net.Recv(core.ProcID(p))
				if !ok {
					break
				}
				recv[[3]int{int(m.From), p, m.Payload.(int)}]++
			}
		}
		for k, c := range recv {
			if c > sent[k] {
				return false // forged or duplicated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNoLossEventualDelivery(t *testing.T) {
	// Reliable + any shipped delivery policy: after enough ticks,
	// everything sent is delivered.
	net := NewNetwork(3, Reliable, WithDeliveryPolicy(RandomDelay{Max: 7, Seed: 3}))
	const msgs = 50
	for i := 0; i < msgs; i++ {
		if err := net.Send(core.ProcID(i%3), core.ProcID((i+1)%3), i, core.SpanContext{}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for now := uint64(0); now < 200; now++ {
		net.Tick(now)
	}
	// Every sent message drained from a mailbox: none is still in flight.
	if total := drain(net, 3); total != msgs {
		t.Errorf("delivered %d of %d after 200 ticks", total, msgs)
	}
}

// drain pops every delivered message from the mailboxes of processes
// 0..n-1 and returns how many there were.
func drain(net *Network, n int) int {
	total := 0
	for p := core.ProcID(0); int(p) < n; p++ {
		for {
			if _, ok := net.Recv(p); !ok {
				break
			}
			total++
		}
	}
	return total
}

func TestCountersMetering(t *testing.T) {
	c := metrics.NewCounters(2)
	net := NewNetwork(2, FairLossy,
		WithDropPolicy(&DropFirstK{K: 1}),
		WithNetCounters(c))
	_ = net.Send(0, 1, "a", core.SpanContext{}, 0) // dropped
	_ = net.Send(0, 1, "a", core.SpanContext{}, 0) // delivered at Tick
	if got := c.Of(1, metrics.MsgDelivered); got != 0 {
		t.Errorf("MsgDelivered before Tick = %d, want 0", got)
	}
	net.Tick(1)
	if got := c.Of(0, metrics.MsgSent); got != 2 {
		t.Errorf("MsgSent = %d, want 2", got)
	}
	if got := c.Of(0, metrics.MsgDropped); got != 1 {
		t.Errorf("MsgDropped = %d, want 1", got)
	}
	if got := c.Of(1, metrics.MsgDelivered); got != 1 {
		t.Errorf("MsgDelivered = %d, want 1", got)
	}
}

func TestConcurrentSendRecv(t *testing.T) {
	net := NewNetwork(4, Reliable)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p core.ProcID) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = net.Broadcast(p, i, core.SpanContext{}, uint64(i))
				net.Tick(uint64(i))
				net.Recv(p)
			}
		}(core.ProcID(p))
	}
	wg.Wait()
	net.Tick(100)
	// 4 procs × 100 broadcasts × 4 links = 1600 deliveries; 400 were
	// consumed at most.
	if remaining := drain(net, 4); remaining < 1200 {
		t.Errorf("unexpected mailbox total %d", remaining)
	}
}

func TestBothComposition(t *testing.T) {
	pol := Both(FixedDelay{D: 2}, &Partition{SideA: map[core.ProcID]bool{0: true}, Until: 10})
	if pol.Deliverable(0, 1, 0, 5) {
		t.Error("partition ignored by composition")
	}
	if pol.Deliverable(0, 1, 100, 101) {
		t.Error("delay ignored by composition")
	}
	if !pol.Deliverable(0, 1, 100, 111) {
		t.Error("composition blocks deliverable message")
	}
}

func BenchmarkBroadcastTicked(b *testing.B) {
	net := NewNetwork(16, Reliable)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := net.Broadcast(0, i, core.SpanContext{}, uint64(i)); err != nil {
			b.Fatal(err)
		}
		net.Tick(uint64(i))
		for p := core.ProcID(0); p < 16; p++ {
			net.Recv(p)
		}
	}
}
