package rt

import (
	"runtime"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// benchTCPMesh builds an n-node loopback mesh (one transport per node,
// each opening a view of group 0 that hosts one process, as newTCPHosts
// does for the rt cluster tests) and waits until every outbound link is up.
func benchTCPMesh(b *testing.B, n int) []transport.Transport {
	b.Helper()
	trs := make([]*tcp.Transport, n)
	addrs := make([]string, n)
	for i := range trs {
		tr, err := tcp.New(tcp.Config{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			b.Fatalf("node %d: %v", i, err)
		}
		b.Cleanup(func() { tr.Close() })
		trs[i] = tr
		addrs[i] = tr.Addr()
	}
	views := make([]transport.Transport, n)
	for i, tr := range trs {
		v, err := tr.OpenGroup(0, transport.GroupConfig{N: n, Hosted: []core.ProcID{core.ProcID(i)}, Addrs: addrs})
		if err == nil {
			err = v.Dial()
		}
		if err != nil {
			b.Fatalf("node %d group 0: %v", i, err)
		}
		views[i] = v
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, v := range views {
		for j := range views {
			if i == j {
				continue
			}
			for v.LinkState(core.ProcID(i), core.ProcID(j)) != transport.LinkUp {
				if !time.Now().Before(deadline) {
					b.Fatalf("link %d->%d never came up", i, j)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return views
}

// BenchmarkBroadcastFanout measures the "send to all" pattern every
// broadcast-based algorithm in this repo (HBO, Ben-Or, the leader
// detector's heartbeats) puts on the wire: one process broadcasting to an
// n-node TCP mesh while every node drains its mailbox. The msgs/s metric
// counts deliveries (n per broadcast: n-1 remote frames + 1 local).
func BenchmarkBroadcastFanout(b *testing.B) {
	const n = 4
	trs := benchTCPMesh(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			trs[0].Broadcast(0, i)
		}
	}()
	total := n * b.N
	for received := 0; received < total; {
		progressed := false
		for j := 0; j < n; j++ {
			if _, ok := trs[j].TryRecv(core.ProcID(j)); ok {
				received++
				progressed = true
			}
		}
		if !progressed {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "msgs/s")
}
