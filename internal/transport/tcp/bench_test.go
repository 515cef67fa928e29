package tcp_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/transport"
)

// awaitLinkUp blocks until tr's outbound link to process to is established,
// so benchmarks measure the steady-state wire, not connection setup.
func awaitLinkUp(tb testing.TB, tr transport.Transport, from, to core.ProcID) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tr.LinkState(from, to) != transport.LinkUp {
		if !time.Now().Before(deadline) {
			tb.Fatalf("link %v->%v never came up", from, to)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkTCPSendThroughput measures the one-directional data-frame rate
// between two loopback nodes: b.N sends pipelined against a draining
// receiver, reported as a custom frames/s metric.
func BenchmarkTCPSendThroughput(b *testing.B) {
	nodes := newCluster(b, 2, [][]core.ProcID{{0}, {1}})
	if err := nodes[0].Send(0, 1, -1); err != nil {
		b.Fatal(err)
	}
	awaitLinkUp(b, nodes[0].Group, 0, 1)
	for {
		if _, ok := nodes[1].TryRecv(1); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			nodes[0].Send(0, 1, i)
		}
	}()
	for received := 0; received < b.N; {
		if _, ok := nodes[1].TryRecv(1); ok {
			received++
		} else {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkShardedSendThroughput is the sharded fan-out: 32 groups
// multiplexed over one loopback node pair — one shared connection per
// direction — every group's sender running concurrently while the receiver
// drains all 32 mailboxes. frames/s is the aggregate data-frame rate, to
// read against BenchmarkTCPSendThroughput's single-group figure.
func BenchmarkShardedSendThroughput(b *testing.B) {
	const groups = 32
	nodes := newCluster(b, 2, [][]core.ProcID{{0}, {1}})
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	senders := make([]transport.Transport, groups)
	receivers := make([]transport.Transport, groups)
	deadline := time.Now().Add(10 * time.Second)
	for g := range senders {
		views := openGroupOn(b, nodes, transport.GroupID(g+1), addrs)
		senders[g], receivers[g] = views[0], views[1]
		// One frame through every group first, so the timed loop measures
		// the steady-state wire, not connection or group setup.
		if err := senders[g].Send(0, 1, -1); err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := receivers[g].TryRecv(1); ok {
				break
			}
			if !time.Now().Before(deadline) {
				b.Fatalf("group %d: warm-up frame never arrived", g+1)
			}
			time.Sleep(time.Millisecond)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g, v := range senders {
		n := b.N / groups
		if g < b.N%groups {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				v.Send(0, 1, i)
			}
		}()
	}
	for received := 0; received < b.N; {
		progressed := false
		for _, v := range receivers {
			if _, ok := v.TryRecv(1); ok {
				received++
				progressed = true
			}
		}
		if !progressed {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkTCPRPCLatency measures a sequential remote-register-style RPC
// round trip over loopback (ns/op is the per-call latency).
func BenchmarkTCPRPCLatency(b *testing.B) {
	nodes := newCluster(b, 2, [][]core.ProcID{{0}, {1}})
	nodes[1].SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		return req, nil
	})
	if _, err := nodes[0].Call(0, 1, "warm"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[0].Call(0, 1, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTryRecvDeepMailbox holds a mailbox at a constant depth and
// interleaves one local send with one receive per iteration: the per-op
// cost must stay flat in the mailbox depth and allocation-free.
func BenchmarkTryRecvDeepMailbox(b *testing.B) {
	nodes := newCluster(b, 2, [][]core.ProcID{{0, 1}})
	const depth = 8192
	for i := 0; i < depth; i++ {
		if err := nodes[0].Send(0, 1, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0].Send(0, 1, i)
		if _, ok := nodes[0].TryRecv(1); !ok {
			b.Fatal("deep mailbox unexpectedly empty")
		}
	}
}
