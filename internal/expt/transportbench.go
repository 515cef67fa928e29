// The TPUT experiment measures the message substrate itself rather than a
// paper claim: steady-state throughput and latency of the batched TCP hot
// path over loopback. The paper's efficiency theorems (5.1/5.2) count
// messages per round; "On Atomic Registers and Randomized Consensus in
// M&M Systems" (arXiv:1906.00298) and "Optimal Resilience in Systems that
// Mix Shared Memory and Message Passing" (arXiv:2012.10846) both treat
// the substrate's communication cost as a first-class artifact — so the
// repo keeps a perf trajectory (BENCH_transport.json, appended by
// `mnmbench -bench-transport`) alongside the reproduction tables.
//
// This file measures wall-clock behaviour of real sockets by design: it
// is the one part of internal/expt that is not a seeded, reproducible
// run, so it opts out of the determinism rule below.
//
//mnmvet:exempt simdeterminism wall-clock transport benchmark, not a seeded path

package expt

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

// TransportBenchResult is one measured run of the transport hot path —
// the record appended to BENCH_transport.json.
type TransportBenchResult struct {
	Quick bool `json:"quick"`
	Procs int  `json:"go_max_procs"`

	// One-directional data-frame throughput between two loopback nodes.
	SendFrames       int     `json:"send_frames"`
	SendFramesPerSec float64 `json:"send_frames_per_sec"`

	// Sequential RPC round trips (the remote-register access pattern).
	RPCCalls      int     `json:"rpc_calls"`
	RPCMeanMicros float64 `json:"rpc_mean_us"`
	RPCP95Micros  float64 `json:"rpc_p95_us"`

	// Broadcast fan-out over an n-node mesh (msgs/s counts deliveries).
	BroadcastNodes      int     `json:"broadcast_nodes"`
	BroadcastMsgsPerSec float64 `json:"broadcast_msgs_per_sec"`

	// Wire-level batching effectiveness during the send phase:
	// FramesSent/FrameBatches is the sender's frames-per-syscall
	// amortization, AckFlushes/FramesSent the receiver's acks-per-frame
	// (1.0 = an ack frame per data frame, i.e. no coalescing).
	FramesSent      int64   `json:"frames_sent"`
	FrameBatches    int64   `json:"frame_batches"`
	MeanBatchFrames float64 `json:"mean_batch_frames"`
	AckFlushes      int64   `json:"ack_flushes"`

	// Multi-group fan-out: MultiGroupGroups shards multiplexed over ONE
	// loopback node pair — one shared connection per direction — every
	// shard sending concurrently. MultiGroupFrames is the aggregate data
	// frame count across all shards; the per-sec figure is the sharded
	// mesh's aggregate throughput to compare against the single-group
	// send_frames_per_sec row.
	MultiGroupGroups       int     `json:"multi_group_groups,omitempty"`
	MultiGroupFrames       int     `json:"multi_group_frames,omitempty"`
	MultiGroupFramesPerSec float64 `json:"multi_group_frames_per_sec,omitempty"`
}

// transportBenchExperiment is the TPUT entry in the mnmbench catalog.
func transportBenchExperiment() Experiment {
	e := Experiment{
		ID:        "TPUT",
		Title:     "transport hot-path throughput (batched TCP wire over loopback)",
		Paper:     "§3 substrate; perf trajectory per arXiv:1906.00298 / arXiv:2012.10846",
		WallClock: true,
	}
	e.Run = func(w io.Writer, p Params) error {
		header(w, e)
		r, err := RunTransportBench(p)
		if err != nil {
			return err
		}
		tb := newTable(w)
		tb.row("metric", "value")
		tb.row("send throughput (frames/s)", fmt.Sprintf("%.0f", r.SendFramesPerSec))
		tb.row("rpc latency mean (µs)", fmt.Sprintf("%.1f", r.RPCMeanMicros))
		tb.row("rpc latency p95 (µs)", fmt.Sprintf("%.1f", r.RPCP95Micros))
		tb.row(fmt.Sprintf("broadcast fan-out, %d nodes (msgs/s)", r.BroadcastNodes),
			fmt.Sprintf("%.0f", r.BroadcastMsgsPerSec))
		tb.row("mean frames per flush", fmt.Sprintf("%.1f", r.MeanBatchFrames))
		tb.row("data frames per ack flush", fmt.Sprintf("%.1f", float64(r.FramesSent)/float64(max64(r.AckFlushes, 1))))
		tb.row(fmt.Sprintf("multi-group fan-out, %d groups (frames/s)", r.MultiGroupGroups),
			fmt.Sprintf("%.0f", r.MultiGroupFramesPerSec))
		tb.flush()
		fmt.Fprintln(w, "\nexpected: frames per flush and frames per ack flush well above 1 —")
		fmt.Fprintln(w, "the send loop drains its whole backlog per syscall and the receiver")
		fmt.Fprintln(w, "answers each batch with a single cumulative ack; throughput history")
		fmt.Fprintln(w, "is tracked in BENCH_transport.json (mnmbench -bench-transport).")
		return nil
	}
	return e
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// benchMesh builds an n-node loopback mesh of single-process transports,
// instrumenting node i with regs[i] (nil entries and a nil/short slice
// leave nodes uninstrumented), and waits for every link.
func benchMesh(n int, regs []*metrics.Registry) ([]*tcp.Transport, error) {
	trs := make([]*tcp.Transport, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := tcp.Config{N: n, Hosted: []core.ProcID{core.ProcID(i)}, ListenAddr: "127.0.0.1:0"}
		if i < len(regs) {
			cfg.Registry = regs[i]
		}
		tr, err := tcp.New(cfg)
		if err != nil {
			closeAll(trs[:i])
			return nil, err
		}
		trs[i] = tr
		addrs[i] = tr.Addr()
	}
	for i, tr := range trs {
		if err := tr.SetAddrs(addrs); err != nil {
			closeAll(trs)
			return nil, fmt.Errorf("transportbench: node %d SetAddrs: %w", i, err)
		}
		if err := tr.Dial(); err != nil {
			closeAll(trs)
			return nil, fmt.Errorf("transportbench: node %d Dial: %w", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, tr := range trs {
		for j := range trs {
			if i == j {
				continue
			}
			for tr.LinkState(core.ProcID(i), core.ProcID(j)) != transport.LinkUp {
				if !time.Now().Before(deadline) {
					closeAll(trs)
					return nil, fmt.Errorf("transportbench: link %d->%d never came up", i, j)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return trs, nil
}

func closeAll(trs []*tcp.Transport) {
	for _, tr := range trs {
		if tr != nil {
			tr.Close()
		}
	}
}

// RunTransportBench measures the transport hot path: send throughput and
// batching effectiveness between two loopback nodes, sequential RPC
// latency, and broadcast fan-out over a small mesh. Sizes shrink under
// p.Quick so the experiment stays a few hundred milliseconds on a
// single-CPU CI box.
func RunTransportBench(p Params) (TransportBenchResult, error) {
	r := TransportBenchResult{
		Quick:          p.Quick,
		Procs:          runtime.GOMAXPROCS(0),
		SendFrames:     20000,
		RPCCalls:       1500,
		BroadcastNodes: 4,
	}
	broadcasts := 4000
	if p.Quick {
		r.SendFrames, r.RPCCalls, broadcasts = 3000, 300, 600
	}

	// Phase 1: one-directional send throughput + batching meters. The two
	// nodes get separate registries so node 1's ack-only flushes do not
	// pollute node 0's data-batch histogram.
	reg0, reg1 := metrics.NewRegistry(2), metrics.NewRegistry(2)
	pair, err := benchMesh(2, []*metrics.Registry{reg0, reg1})
	if err != nil {
		return r, err
	}
	start := time.Now()
	go func() {
		for i := 0; i < r.SendFrames; i++ {
			pair[0].Send(0, 1, i)
		}
	}()
	for received := 0; received < r.SendFrames; {
		if _, ok := pair[1].TryRecv(1); ok {
			received++
		} else {
			runtime.Gosched()
		}
	}
	r.SendFramesPerSec = float64(r.SendFrames) / time.Since(start).Seconds()
	// Wait for the tail of acks so the batching meters cover every frame.
	c := reg0.Counters()
	for deadline := time.Now().Add(10 * time.Second); c.Total(metrics.FrameAcked) < int64(r.SendFrames) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	r.FramesSent = c.Total(metrics.FrameSent)
	r.FrameBatches = c.Total(metrics.FrameBatches)
	if r.FrameBatches > 0 {
		r.MeanBatchFrames = float64(reg0.Histogram(metrics.HistBatchFrames).Snapshot().MeanValue())
	}
	// Node 1 sent nothing but acks: each of its flushes carried (at most)
	// one coalesced cumulative ack frame.
	r.AckFlushes = reg1.Counters().Of(1, metrics.FrameBatches)

	// Phase 2: sequential RPC round trips on the same pair.
	pair[1].SetHandler(func(from core.ProcID, req core.Value) (core.Value, error) {
		return req, nil
	})
	rpcStart := reg0.Histogram(metrics.HistRPCCall).Snapshot()
	for i := 0; i < r.RPCCalls; i++ {
		//mnmvet:allow spanprop the benchmark measures the raw RPC surface; there is no traced operation whose context could be threaded
		if _, err := pair[0].Call(0, 1, i); err != nil {
			closeAll(pair)
			return r, fmt.Errorf("transportbench: rpc %d: %w", i, err)
		}
	}
	rpc := reg0.Histogram(metrics.HistRPCCall).Snapshot().Sub(rpcStart)
	r.RPCMeanMicros = float64(rpc.Mean()) / float64(time.Microsecond)
	r.RPCP95Micros = float64(rpc.Quantile(0.95)) / float64(time.Microsecond)
	closeAll(pair)

	// Phase 3: broadcast fan-out over a mesh.
	mesh, err := benchMesh(r.BroadcastNodes, nil)
	if err != nil {
		return r, err
	}
	start = time.Now()
	go func() {
		for i := 0; i < broadcasts; i++ {
			mesh[0].Broadcast(0, i)
		}
	}()
	total := broadcasts * r.BroadcastNodes
	for received := 0; received < total; {
		progressed := false
		for j := 0; j < r.BroadcastNodes; j++ {
			if _, ok := mesh[j].TryRecv(core.ProcID(j)); ok {
				received++
				progressed = true
			}
		}
		if !progressed {
			runtime.Gosched()
		}
	}
	r.BroadcastMsgsPerSec = float64(total) / time.Since(start).Seconds()
	closeAll(mesh)

	// Phase 4: multi-group fan-out — the sharded mesh. G groups opened
	// over one fresh node pair (one shared connection per direction), all
	// sending concurrently; the receiver drains every shard's mailbox.
	r.MultiGroupGroups = 32
	perGroup := 1000
	if p.Quick {
		r.MultiGroupGroups, perGroup = 8, 250
	}
	r.MultiGroupFrames = r.MultiGroupGroups * perGroup
	shardPair, err := benchMesh(2, nil)
	if err != nil {
		return r, err
	}
	addrs := []string{shardPair[0].Addr(), shardPair[1].Addr()}
	senders := make([]transport.Transport, r.MultiGroupGroups)
	receivers := make([]transport.Transport, r.MultiGroupGroups)
	for g := 0; g < r.MultiGroupGroups; g++ {
		id := transport.GroupID(g + 1)
		sv, err := shardPair[0].OpenGroup(id, transport.GroupConfig{N: 2, Hosted: []core.ProcID{0}, Addrs: addrs})
		if err != nil {
			closeAll(shardPair)
			return r, fmt.Errorf("transportbench: open group %d: %w", id, err)
		}
		rv, err := shardPair[1].OpenGroup(id, transport.GroupConfig{N: 2, Hosted: []core.ProcID{1}, Addrs: addrs})
		if err != nil {
			closeAll(shardPair)
			return r, fmt.Errorf("transportbench: open group %d: %w", id, err)
		}
		if err := sv.Dial(); err != nil {
			closeAll(shardPair)
			return r, fmt.Errorf("transportbench: dial group %d: %w", id, err)
		}
		senders[g], receivers[g] = sv, rv
	}
	start = time.Now()
	for g := 0; g < r.MultiGroupGroups; g++ {
		go func(v transport.Transport) {
			for i := 0; i < perGroup; i++ {
				v.Send(0, 1, i)
			}
		}(senders[g])
	}
	for received := 0; received < r.MultiGroupFrames; {
		progressed := false
		for g := 0; g < r.MultiGroupGroups; g++ {
			if _, ok := receivers[g].TryRecv(1); ok {
				received++
				progressed = true
			}
		}
		if !progressed {
			runtime.Gosched()
		}
	}
	r.MultiGroupFramesPerSec = float64(r.MultiGroupFrames) / time.Since(start).Seconds()
	closeAll(shardPair)
	return r, nil
}
