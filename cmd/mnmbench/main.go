// Command mnmbench regenerates the paper-reproduction experiments: every
// figure- and theorem-level claim of "Passing Messages while Sharing
// Memory" (PODC 2018) that this repository validates empirically.
//
// Usage:
//
//	mnmbench                         # run every experiment
//	mnmbench -quick                  # smaller sizes, faster
//	mnmbench -experiment T43,LE1     # run a subset
//	mnmbench -parallel 8             # worker count (default GOMAXPROCS)
//	mnmbench -json                   # one JSON record per experiment
//	mnmbench -list                   # list experiments
//	mnmbench -seed 7                 # perturb all randomness
//
// Performance of the runtime itself is measured by the bench/ module, not
// here.
//
// Experiments run concurrently (and fan their own independent trials out
// across the same worker budget), but their tables are buffered and
// flushed in presentation order, so the output for a given -seed is
// byte-identical at every -parallel setting.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/mnm-model/mnm/internal/expt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// record is the machine-readable per-experiment result emitted by -json,
// one JSON object per line in presentation order.
type record struct {
	ID        string   `json:"id"`
	Rows      []string `json:"rows"`
	StartedAt string   `json:"started_at"`
	ElapsedMS int64    `json:"elapsed_ms"`
	OK        bool     `json:"ok"`
	Error     string   `json:"error,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mnmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiments and exit")
		ids      = fs.String("experiment", "all", "comma-separated experiment ids, or \"all\"")
		quick    = fs.Bool("quick", false, "smaller sizes and fewer seeds")
		seed     = fs.Int64("seed", 1, "seed perturbing all randomness")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiments and their trials")
		jsonOut  = fs.Bool("json", false, "emit one JSON record per experiment instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range expt.All() {
			fmt.Fprintf(stdout, "%-6s %-62s [%s]\n", e.ID, e.Title, e.Paper)
		}
		return 0
	}

	selected, err := selectExperiments(*ids)
	if err != nil {
		fmt.Fprintf(stderr, "mnmbench: %v\n", err)
		return 2
	}

	params := expt.Params{Quick: *quick, Seed: *seed, Parallel: *parallel}

	// Run experiments concurrently into per-experiment buffers; flush each
	// buffer only when all earlier experiments have been flushed, so
	// output streams in presentation order regardless of completion order.
	type outcome struct {
		buf     bytes.Buffer
		err     error
		started time.Time
		elapsed time.Duration
	}
	outcomes := make([]*outcome, len(selected))
	done := make([]chan struct{}, len(selected))
	for i := range selected {
		outcomes[i] = &outcome{}
		done[i] = make(chan struct{})
	}

	workers := *parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(selected) {
		workers = len(selected)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				o := outcomes[i]
				o.started = time.Now()
				o.err = selected[i].Run(&o.buf, params)
				o.elapsed = time.Since(o.started)
				close(done[i])
			}
		}()
	}
	go func() {
		for i := range selected {
			idx <- i
		}
		close(idx)
	}()

	enc := json.NewEncoder(stdout)
	failed := 0
	for i, e := range selected {
		<-done[i]
		o := outcomes[i]
		if o.err != nil {
			failed++
		}
		if *jsonOut {
			rec := record{
				ID:        e.ID,
				Rows:      strings.Split(strings.TrimRight(o.buf.String(), "\n"), "\n"),
				StartedAt: o.started.UTC().Format(time.RFC3339Nano),
				ElapsedMS: o.elapsed.Milliseconds(),
				OK:        o.err == nil,
			}
			if o.err != nil {
				rec.Error = o.err.Error()
			}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintf(stderr, "mnmbench: encoding %s: %v\n", e.ID, err)
				return 1
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		io.Copy(stdout, &o.buf)
		if o.err != nil {
			fmt.Fprintf(stderr, "mnmbench: experiment %s failed: %v\n", e.ID, o.err)
			continue
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n", e.ID, o.elapsed.Round(time.Millisecond))
	}
	wg.Wait()
	if failed > 0 {
		return 1
	}
	return 0
}

// selectExperiments parses the -experiment flag: "all", or a comma-
// separated id list. Empty entries (trailing or doubled commas) are
// skipped and repeated ids are deduplicated, so "T43,,LE1,T43," selects
// exactly T43 then LE1 — an experiment never runs twice.
func selectExperiments(ids string) ([]expt.Experiment, error) {
	if ids == "all" {
		return expt.All(), nil
	}
	var selected []expt.Experiment
	seen := make(map[string]bool)
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		e, ok := expt.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)",
				id, strings.Join(expt.IDs(), ", "))
		}
		selected = append(selected, e)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiments selected from %q", ids)
	}
	return selected, nil
}
