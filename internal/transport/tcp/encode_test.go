package tcp_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/transport/tcp"
	"github.com/mnm-model/mnm/internal/wire"
)

// counted is a payload whose codec counts its encodes in countedEncodes.
type counted int

var countedEncodes atomic.Int64

func init() {
	wire.Register(wire.Codec{
		Name: "tcp_test.counted",
		Type: reflect.TypeOf(counted(0)),
		Append: func(b []byte, v any) ([]byte, error) {
			countedEncodes.Add(1)
			return wire.AppendVarint(b, int64(v.(counted))), nil
		},
		Read: func(d *wire.Decoder) (any, error) { return counted(d.Varint()), d.Err() },
	})
}

// TestEncodesOncePerFrame broadcasts K counted values from p0 to two
// remote nodes, killing every connection of the sender midway so part of
// the backlog is retransmitted, and checks the payload codec ran exactly K
// times: one encode per broadcast, shared by both remote copies, reused
// by every retransmission and, with durability on, by the frame log.
func TestEncodesOncePerFrame(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			nodes := newClusterWith(t, 3, [][]core.ProcID{{0}, {1}, {2}}, func(i int, cfg *tcp.Config) {
				if durable {
					cfg.Durability = &tcp.Durability{Dir: t.TempDir()}
				}
			})
			const k = 200
			countedEncodes.Store(0)
			for i := 0; i < k; i++ {
				if err := nodes[0].Broadcast(0, counted(i), core.SpanContext{}); err != nil {
					t.Fatalf("Broadcast %d: %v", i, err)
				}
				if i == k/2 {
					nodes[0].KillConnections()
				}
			}
			for i := 0; i < k; i++ {
				for p, node := range nodes {
					if m := recvOne(t, node, core.ProcID(p)); m.Payload != counted(i) {
						t.Fatalf("p%d: message %d arrived as %#v", p, i, m.Payload)
					}
				}
			}
			if got := countedEncodes.Load(); got != k {
				t.Errorf("payload encoded %d times for %d broadcasts, want %d", got, k, k)
			}
		})
	}
}
