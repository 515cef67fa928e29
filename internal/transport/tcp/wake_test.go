package tcp_test

import (
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/msgnet"
	"github.com/mnm-model/mnm/internal/transport"
)

// wakeCase is one backend under the wake-up contract: process 0 sends on
// send, process 1 receives on recv, and delivered counts the messages
// that have reached process 1's mailbox.
type wakeCase struct {
	send, recv transport.Transport
	delivered  func() int64
}

// TestWakeContract checks transport.Transport.SetWake on the in-process
// backend and on two socket group views, group 0 and group 7: one
// delivery leaves one token, many coalesce into a buffer of one without
// blocking delivery, and a delivery that lands before the receiver parks
// is still there when it does.
func TestWakeContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) wakeCase
	}{
		{"chan", openChanWake},
		{"tcp-group0", openTCPGroup0Wake},
		{"tcp-group-view", openTCPViewWake},
	} {
		t.Run(tc.name, func(t *testing.T) { checkWake(t, tc.open(t)) })
	}
}

func openChanWake(t *testing.T) wakeCase {
	c := metrics.NewCounters(2)
	ch := transport.NewChan(2, msgnet.Reliable, msgnet.WithNetCounters(c))
	t.Cleanup(func() { ch.Close() })
	return wakeCase{send: ch, recv: ch, delivered: func() int64 { return c.Of(1, metrics.MsgDelivered) }}
}

func openTCPGroup0Wake(t *testing.T) wakeCase {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	reg := metrics.NewRegistry(2)
	nodes[1].Group.Instrument(reg)
	return wakeCase{send: nodes[0].Group, recv: nodes[1].Group,
		delivered: func() int64 { return reg.Counters().Of(1, metrics.MsgDelivered) }}
}

func openTCPViewWake(t *testing.T) wakeCase {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	views := openGroupOn(t, nodes, 7, []string{nodes[0].Addr(), nodes[1].Addr()})
	reg := metrics.NewRegistry(2)
	views[1].(transport.Instrumentable).Instrument(reg)
	return wakeCase{send: views[0], recv: views[1],
		delivered: func() int64 { return reg.Counters().Of(1, metrics.MsgDelivered) }}
}

func checkWake(t *testing.T, c wakeCase) {
	const from, to core.ProcID = 0, 1
	var sent int64
	// send sends k messages and waits until all of them are in the mailbox.
	send := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := c.send.Send(from, to, sent); err != nil {
				t.Fatalf("Send: %v", err)
			}
			sent++
		}
		deadline := time.Now().Add(10 * time.Second)
		for c.delivered() < sent {
			if !time.Now().Before(deadline) {
				t.Fatalf("%d of %d messages delivered", c.delivered(), sent)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// drain pops exactly k messages.
	drain := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if _, ok := c.recv.TryRecv(to); !ok {
				t.Fatalf("mailbox ran dry after %d of %d messages", i, k)
			}
		}
		if m, ok := c.recv.TryRecv(to); ok {
			t.Fatalf("unexpected extra message %+v", m)
		}
	}

	// One delivery leaves exactly one token, even with room for two.
	roomy := make(chan struct{}, 2)
	c.recv.SetWake(to, roomy)
	send(1)
	if n := len(roomy); n != 1 {
		t.Fatalf("one delivery left %d tokens, want 1", n)
	}
	drain(1)
	if n := len(roomy); n != 1 {
		t.Fatalf("receiving changed the token count to %d", n)
	}

	// Many deliveries coalesce into the one slot of a rt-style wake-up,
	// and a full wake-up never blocks delivery.
	wake := make(chan struct{}, 1)
	c.recv.SetWake(to, wake)
	send(64)
	if n := len(wake); n != 1 {
		t.Fatalf("64 deliveries left %d tokens, want 1", n)
	}
	drain(64)
	<-wake

	// A delivery that lands between the receiver's empty poll and its
	// park is waiting for it in the buffer.
	if _, ok := c.recv.TryRecv(to); ok {
		t.Fatal("mailbox not empty before the racing delivery")
	}
	send(1)
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("wake-up for a delivery that preceded the park was lost")
	}
	drain(1)

	// The same under a real race: a receiver that polls, parks and polls
	// again gets every message without ever timing out.
	const burst = 200
	done := make(chan int, 1)
	go func() {
		timeout := time.NewTimer(10 * time.Second)
		defer timeout.Stop()
		got := 0
		for got < burst {
			if _, ok := c.recv.TryRecv(to); ok {
				got++
				continue
			}
			select {
			case <-wake:
			case <-timeout.C:
				done <- got
				return
			}
		}
		done <- got
	}()
	send(burst)
	if got := <-done; got != burst {
		t.Fatalf("receiver stayed parked with %d of %d messages taken: wake-up lost", got, burst)
	}

	// A nil channel unregisters: deliveries stop signalling the old one.
	c.recv.SetWake(to, nil)
	for len(wake) > 0 {
		<-wake
	}
	send(1)
	if n := len(wake); n != 0 {
		t.Fatalf("unregistered wake-up got %d tokens", n)
	}
	drain(1)
}
