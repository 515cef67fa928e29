package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/shm"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/wire"
)

// Fixed probe counts of the ladder: the same work on every commit.
const (
	ladderWireIters = 20000 // × 4 values
	ladderShmIters  = 100000
	ladderWALIters  = 64
	ladderTCPIters  = 2000
	ladderRTIters   = 4000
)

// ladder probes one rung per module's public entry point, bottom up —
// wire, shm, durable.WAL, tcp Send/Call, rt Env op — with fixed counts, on
// the workload's own warmed mesh where it has one (rsm-chan3 has none, so
// the tcp and rt rungs run on a 2-node loopback mesh built for them). It
// adds the rungs to the layer metrics and records their spans.
func ladder(c cluster, seed int64, dir string, sp *spans, L map[string]metric) error {
	if err := ladderWire(L); err != nil {
		return err
	}
	ladderShm(L)
	if err := ladderWAL(dir, sp, L); err != nil {
		return err
	}
	m := c.tcpMesh()
	if m == nil {
		side, err := newMesh(2)
		if err != nil {
			return err
		}
		defer side.close()
		m = side
	}
	if err := ladderTCP(m, sp, L); err != nil {
		return err
	}
	return ladderRT(m, seed, sp, L)
}

// ladderWire times wire.AppendValue + Decoder.Value over the four value
// shapes that dominate the frames of this repo's algorithms.
func ladderWire(L map[string]metric) error {
	values := []core.Value{
		1234567,
		core.RegI(1, "LOG", 42),
		"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		[]core.Value{1, 2, 3, 4},
	}
	var buf []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < ladderWireIters; i++ {
		for _, v := range values {
			var err error
			if buf, err = wire.AppendValue(buf[:0], v); err != nil {
				return err
			}
			if d := wire.NewDecoder(buf); d.Value() == nil || d.Err() != nil {
				return fmt.Errorf("wire: %T did not round-trip: %v", v, d.Err())
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	n := float64(ladderWireIters * len(values))
	L["wire.roundtrip_ns"] = metric{float64(elapsed.Nanoseconds()) / n, "ns"}
	L["wire.allocs_per_op"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / n, "count"}
	return nil
}

// ladderShm times direct shm.Memory calls on registers the caller owns.
func ladderShm(L map[string]metric) {
	mem := shm.NewMemory(shm.OpenDomain{})
	refs := make([]core.Ref, regmixRegisters)
	for i := range refs {
		refs[i] = core.RegI(0, "R", i)
	}
	timeOp := func(op func(i int)) float64 {
		start := time.Now()
		for i := 0; i < ladderShmIters; i++ {
			op(i)
		}
		return float64(time.Since(start).Nanoseconds()) / ladderShmIters
	}
	L["shm.write_ns"] = metric{timeOp(func(i int) { _ = mem.Write(0, refs[i%len(refs)], i) }), "ns"} // OpenDomain, no journal: cannot fail
	L["shm.read_ns"] = metric{timeOp(func(i int) { _, _ = mem.Read(0, refs[i%len(refs)]) }), "ns"}
	L["shm.cas_ns"] = metric{timeOp(func(i int) { _, _, _ = mem.CompareAndSwap(0, refs[i%len(refs)], i, i+1) }), "ns"}
}

// ladderWAL times durable.WAL Append and Sync separately, on the same file
// system the durable workload journals to.
func ladderWAL(dir string, sp *spans, L map[string]metric) error {
	defer os.RemoveAll(dir)
	w, err := durable.Open(filepath.Join(dir, "probe.wal"), func([]byte) error { return nil })
	if err != nil {
		return err
	}
	defer w.Close()
	rec := make([]byte, 64)
	for i := 0; i < ladderWALIters; i++ {
		start := time.Now()
		if err := w.Append(rec); err != nil {
			return err
		}
		sp.add("durable.append", 0, 0, time.Since(start))
		start = time.Now()
		if err := w.Sync(); err != nil {
			return err
		}
		sp.add("durable.fsync", 0, 0, time.Since(start))
	}
	L["durable.append_p50_us"] = metric{sp.p50us("durable.append"), "us"}
	L["durable.fsync_p50_us"] = metric{sp.p50us("durable.fsync"), "us"}
	return nil
}

// ladderTCP times an echo Call and a Send→TryRecv between nodes 0 and 1
// through a raw group: the transport alone, no rt host on top.
func ladderTCP(m *mesh, sp *spans, L map[string]metric) error {
	views, err := m.openRaw()
	if err != nil {
		return err
	}
	defer closeViews(views)
	views[1].(transport.RPC).SetHandler(func(_ core.ProcID, req core.Value) (core.Value, error) { return req, nil })
	caller := views[0].(transport.SpanRPC)
	for i := 0; i < ladderTCPIters; i++ {
		start := time.Now()
		if _, _, err := caller.CallSpan(0, 1, i, core.SpanContext{}); err != nil {
			return err
		}
		sp.add("tcp.call", 0, 0, time.Since(start))
	}
	for i := 0; i < ladderTCPIters; i++ {
		start := time.Now()
		if err := transport.SendSpan(views[0], 0, 1, i, core.SpanContext{}); err != nil {
			return err
		}
		for {
			if _, ok := views[1].TryRecv(1); ok {
				break
			}
			if time.Since(start) > unitTimeout {
				return fmt.Errorf("tcp one-way probe %d not delivered within %v", i, unitTimeout)
			}
			runtime.Gosched()
		}
		sp.add("tcp.oneway", 0, 0, time.Since(start))
	}
	L["tcp.call_p50_us"] = metric{sp.p50us("tcp.call"), "us"}
	L["tcp.oneway_p50_us"] = metric{sp.p50us("tcp.oneway"), "us"}
	return nil
}

// ladderRT times core.Env register calls through the rt host by running
// the register mix for a fixed count of ops. On regmix-tcp2 the traced
// window has already recorded the same spans, and they count too.
func ladderRT(m *mesh, seed int64, sp *spans, L map[string]metric) error {
	var failed error
	err := driveRegmix(m, seed, func(unit unitFn) {
		for i := 0; i < ladderRTIters && failed == nil; i++ {
			_, _, failed = unit(i, sp)
		}
	})
	if err == nil {
		err = failed
	}
	L["rt.remote_read_p50_us"] = metric{sp.p50us(spanRemoteRead), "us"}
	L["rt.remote_write_p50_us"] = metric{sp.p50us(spanRemoteWrite), "us"}
	L["rt.remote_cas_p50_us"] = metric{sp.p50us(spanRemoteCAS), "us"}
	L["rt.local_op_ns"] = metric{sp.p50us(spanLocalOp) * 1e3, "ns"}
	return err
}

// budgetRow is one rung of a workload's layer ladder: its time, the rung
// it stands on, and its self time (its own time minus the rung below).
type budgetRow struct {
	Rung   string  `json:"rung"`
	US     float64 `json:"us"`
	Below  string  `json:"below,omitempty"`
	SelfUS float64 `json:"self_us"`
}

// unitStandsOn names, per workload, the rung directly under one op of the
// algorithm: the entry point its blocking steps go through.
var unitStandsOn = map[string]string{
	"hbo-tcp3":         "tcp.oneway_p50_us",
	"rsm-tcp3":         "rt.remote_cas_p50_us",
	"rsm-tcp3-durable": "rt.remote_cas_p50_us",
	"rsm-chan3":        "rt.local_op_ns",
	"regmix-tcp2":      "rt.remote_read_p50_us",
	"fanout-tcp4":      "wire.roundtrip_ns", // deliveries overlap, so one costs less than a one-way trip
}

// budget lays the ladder's rungs out bottom up. opUS is the traced
// window's median unit time divided by the ops per unit.
func budget(workload string, L map[string]metric, opUS float64) []budgetRow {
	us := func(name string) float64 {
		m := L[name]
		if m.Unit == "ns" {
			return m.Value / 1e3
		}
		return m.Value
	}
	rungs := []struct{ name, below string }{
		{"wire.roundtrip_ns", ""},
		{"shm.read_ns", ""},
		{"durable.append_p50_us", ""},
		{"durable.fsync_p50_us", "durable.append_p50_us"},
		{"tcp.oneway_p50_us", "wire.roundtrip_ns"},
		{"tcp.call_p50_us", "tcp.oneway_p50_us"},
		{"rt.local_op_ns", "shm.read_ns"},
		{"rt.remote_read_p50_us", "tcp.call_p50_us"},
		{"rt.remote_cas_p50_us", "tcp.call_p50_us"},
	}
	var rows []budgetRow
	for _, r := range rungs {
		row := budgetRow{Rung: r.name, US: us(r.name), Below: r.below, SelfUS: us(r.name)}
		if r.below != "" {
			row.SelfUS -= us(r.below)
		}
		rows = append(rows, row)
	}
	below := unitStandsOn[workload]
	return append(rows, budgetRow{Rung: "unit per op", US: opUS, Below: below, SelfUS: opUS - us(below)})
}
