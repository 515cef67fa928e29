package wiregen

import (
	"reflect"
	"testing"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/mutex"
	"github.com/mnm-model/mnm/internal/paxos"
	"github.com/mnm-model/mnm/internal/rsm"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/wire"
)

// TestPayloadsRoundTripGenerated pushes every representative payload of
// every wire.go package through the codec plane and requires (a) a
// generated codec to carry it, and (b) exact structural round-trip.
func TestPayloadsRoundTripGenerated(t *testing.T) {
	payloads := map[string][]core.Value{
		"benor":  benor.WirePayloads(),
		"hbo":    hbo.WirePayloads(),
		"leader": leader.WirePayloads(),
		"mutex":  mutex.WirePayloads(),
		"paxos":  paxos.WirePayloads(),
		"rsm":    rsm.WirePayloads(),
		"rt":     rt.WirePayloads(),
	}
	for pkg, vals := range payloads {
		if len(vals) == 0 {
			t.Errorf("%s: no wire payloads", pkg)
		}
		for _, v := range vals {
			c := wire.ForType(reflect.TypeOf(v))
			if c == nil {
				t.Errorf("%s: %T has no generated codec (the transport would drop it)", pkg, v)
				continue
			}
			b, err := wire.AppendValue(nil, v)
			if err != nil {
				t.Errorf("%s: encode %#v: %v", pkg, v, err)
				continue
			}
			d := wire.NewDecoder(b)
			got := d.Value()
			if err := d.Err(); err != nil {
				t.Errorf("%s: decode %#v: %v", pkg, v, err)
				continue
			}
			if d.Remaining() != 0 {
				t.Errorf("%s: decode %#v left %d trailing bytes", pkg, v, d.Remaining())
			}
			if !reflect.DeepEqual(got, v) {
				t.Errorf("%s: round trip %#v via codec %q: got %#v", pkg, v, c.Name, got)
			}
		}
	}
}
