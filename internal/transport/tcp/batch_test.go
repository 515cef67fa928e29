package tcp_test

import (
	"net"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// TestKillConnectionsMidBatchRetransmits hammers the batched wire with
// repeated connection kills landing between — and, with bursts enqueued
// asynchronously, inside — batch flushes, and checks the axioms survive:
// every message arrives exactly once, in order (No-loss + Integrity even
// when a batch was only partially flushed when its connection died).
//
// The kill intervals grow geometrically: on a single-CPU box a fixed
// short kill cadence can starve the link of any up-time, so growing
// spans (plus the long receive deadline below) guarantee eventual
// progress whatever the scheduler does.
func TestKillConnectionsMidBatchRetransmits(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0}, {1}})
	reg := metrics.NewRegistry(2)
	nodes[0].Transport.Instrument(reg)

	const bursts = 12
	const perBurst = 50
	const total = bursts * perBurst
	span := time.Millisecond
	for b := 0; b < bursts; b++ {
		for i := 0; i < perBurst; i++ {
			if err := nodes[0].Send(0, 1, b*perBurst+i); err != nil {
				t.Fatalf("Send %d: %v", b*perBurst+i, err)
			}
		}
		// The burst above is still being batched out by the send loop
		// when the kill lands.
		nodes[0].KillConnections()
		nodes[1].KillConnections()
		time.Sleep(span)
		span += span / 2
	}

	deadline := time.Now().Add(120 * time.Second)
	for i := 0; i < total; i++ {
		for {
			if m, ok := nodes[1].TryRecv(1); ok {
				if m.Payload != i {
					t.Fatalf("message %d arrived as %v (lost, duplicated or reordered across a killed batch)", i, m.Payload)
				}
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("message %d never arrived (batch lost across reconnect)", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Let any straggling retransmission drain, then check Integrity: the
	// duplicate filter must have swallowed every redelivered frame.
	time.Sleep(100 * time.Millisecond)
	if m, ok := nodes[1].TryRecv(1); ok {
		t.Fatalf("unexpected extra message %v: duplicate delivery violates Integrity", m.Payload)
	}
	c := reg.Counters()
	t.Logf("frames sent=%d retransmitted=%d batches=%d",
		c.Total(metrics.FrameSent), c.Total(metrics.FrameRetrans), c.Total(metrics.FrameBatches))
	if got := c.Total(metrics.FrameSent); got != total {
		t.Errorf("FrameSent = %d, want %d (each frame metered fresh exactly once)", got, total)
	}
}

// TestBacklogFlushesAsOneBatch queues a backlog toward a listener that
// does not exist yet; when the link finally comes up the send loop must
// drain the whole backlog in a handful of flushes, metering FrameBatches
// and the batch_frames size histogram. This is the deterministic batching
// witness: every frame is enqueued before the first connect can succeed,
// so the first flush necessarily carries the full backlog.
func TestBacklogFlushesAsOneBatch(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	futureAddr := probe.Addr().String()
	probe.Close()

	reg := metrics.NewRegistry(2)
	n0, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n0.Close() })
	addrs := []string{n0.Addr(), futureAddr}
	g0 := openView(t, n0, 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs})
	const backlog = 120
	for i := 0; i < backlog; i++ {
		if err := g0.Send(0, 1, i); err != nil {
			t.Fatal(err)
		}
	}

	n1, err := tcp.New(tcp.Config{ListenAddr: futureAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n1.Close() })
	g1 := openView(t, n1, 0, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs})
	for i := 0; i < backlog; i++ {
		if m := recvOne(t, g1, 1); m.Payload != i {
			t.Fatalf("backlog message %d arrived as %v", i, m.Payload)
		}
	}

	c := reg.Counters()
	awaitTotal(t, c, metrics.FrameAcked, backlog)
	batches := c.Total(metrics.FrameBatches)
	if batches < 1 || batches > backlog/2 {
		t.Errorf("FrameBatches = %d for a %d-frame backlog, want a small number of coalesced flushes", batches, backlog)
	}
	h := reg.Histogram(metrics.HistBatchFrames).Snapshot()
	if h.Count != batches {
		t.Errorf("batch_frames count = %d, want %d (one observation per flush)", h.Count, batches)
	}
	if maxBatch := int64(h.Max() / time.Microsecond); maxBatch < backlog {
		t.Errorf("largest batch carried %d frames, want the full %d-frame backlog in one flush", maxBatch, backlog)
	}
}

// TestTryRecvDeepMailboxAllocFree is the O(1)-per-op regression guard for
// the ring-buffer mailboxes: popping from a deep mailbox must not allocate
// (the old slice mailbox shifted the entire queue per receive).
func TestTryRecvDeepMailboxAllocFree(t *testing.T) {
	nodes := newCluster(t, 2, [][]core.ProcID{{0, 1}})
	const depth = 4096
	for i := 0; i < depth; i++ {
		if err := nodes[0].Send(0, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := nodes[0].TryRecv(1); !ok {
			t.Fatal("deep mailbox unexpectedly empty")
		}
	})
	if allocs != 0 {
		t.Errorf("TryRecv on a deep mailbox allocates %.1f objects/op, want 0", allocs)
	}
}
