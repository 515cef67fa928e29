package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/mnm-model/mnm/internal/expt"
)

// benchFile is the on-disk perf trajectory (BENCH_transport.json): one
// run appended per invocation, so the history of the transport hot path
// across PRs stays in one artifact.
type benchFile struct {
	Schema string     `json:"schema"`
	Runs   []benchRun `json:"runs"`
}

// benchSchema versions the trajectory file format.
const benchSchema = "mnm-transport-bench/v1"

// benchRun is one measured run plus its provenance.
type benchRun struct {
	Label     string `json:"label"`
	StartedAt string `json:"started_at"`
	Source    string `json:"source"`
	Notes     string `json:"notes,omitempty"`
	expt.TransportBenchResult
}

// runTransportBench measures the transport hot path, prints the run, and
// appends it to the trajectory file at path (creating the file if absent).
func runTransportBench(path, label string, quick bool, stdout, stderr io.Writer) int {
	started := time.Now().UTC()
	res, err := expt.RunTransportBench(expt.Params{Quick: quick})
	if err != nil {
		fmt.Fprintf(stderr, "mnmbench: transport bench: %v\n", err)
		return 1
	}
	run := benchRun{
		Label:                label,
		StartedAt:            started.Format(time.RFC3339),
		Source:               "mnmbench -bench-transport",
		TransportBenchResult: res,
	}

	var file benchFile
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &file); err != nil || file.Schema != benchSchema {
			fmt.Fprintf(stderr, "mnmbench: %s exists but is not a %s file (err=%v, schema=%q); refusing to overwrite\n",
				path, benchSchema, err, file.Schema)
			return 1
		}
	case errors.Is(err, os.ErrNotExist):
		file.Schema = benchSchema
	default:
		fmt.Fprintf(stderr, "mnmbench: read %s: %v\n", path, err)
		return 1
	}
	file.Runs = append(file.Runs, run)

	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "mnmbench: encode %s: %v\n", path, err)
		return 1
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "mnmbench: write %s: %v\n", path, err)
		return 1
	}

	fmt.Fprintf(stdout, "transport bench [%s] appended to %s (%d runs)\n", label, path, len(file.Runs))
	fmt.Fprintf(stdout, "  send throughput:   %.0f frames/s (%d frames, %.1f frames/flush mean)\n",
		res.SendFramesPerSec, res.SendFrames, res.MeanBatchFrames)
	fmt.Fprintf(stdout, "  rpc latency:       mean %.1fµs  p95 %.1fµs (%d calls)\n",
		res.RPCMeanMicros, res.RPCP95Micros, res.RPCCalls)
	fmt.Fprintf(stdout, "  broadcast fan-out: %.0f msgs/s over %d nodes\n",
		res.BroadcastMsgsPerSec, res.BroadcastNodes)
	fmt.Fprintf(stdout, "  ack coalescing:    %.1f data frames per ack flush\n",
		float64(res.FramesSent)/float64(maxInt64(res.AckFlushes, 1)))
	if res.MultiGroupGroups > 0 {
		fmt.Fprintf(stdout, "  multi-group:       %.0f frames/s aggregate over %d groups, one shared connection\n",
			res.MultiGroupFramesPerSec, res.MultiGroupGroups)
	}
	return 0
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
