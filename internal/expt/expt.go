// Package expt is the experiment harness: each experiment regenerates one
// figure- or theorem-level claim of "Passing Messages while Sharing
// Memory" (PODC 2018) as a printed table or series, using only this
// repository's substrates and algorithms. The cmd/mnmbench binary runs
// them; EXPERIMENTS.md records paper-claim vs. measured outcome.
package expt

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/sim"
)

// Params tune an experiment run.
type Params struct {
	// Quick shrinks sizes and seed counts for smoke runs.
	Quick bool
	// Seed perturbs all randomness in the experiment.
	Seed int64
	// Parallel is the worker count for the independent (graph, n, f,
	// seed) trials inside an experiment; values below 2 run trials
	// sequentially. Output is byte-identical at every setting: each
	// trial derives its randomness from Seed and its own index, results
	// are collected by index, and tables render only after all trials
	// finish.
	Parallel int
}

// Experiment is one reproducible artifact.
type Experiment struct {
	// ID is the short handle used by mnmbench -experiment.
	ID string
	// Title is a human-readable one-liner.
	Title string
	// Paper names the figure/theorem/section reproduced.
	Paper string
	// Run executes the experiment, writing its table to w. The table is
	// a function of Params alone — byte-identical at any Parallel setting —
	// and that invariant is load-bearing (mnmbench_output.txt, CI diffs).
	Run func(w io.Writer, p Params) error
}

// registry is the experiment catalog, built exactly once: the Experiment
// constructors allocate closures, and rebuilding all of them on every
// ByID/IDs lookup (as earlier versions did) wasted work on each
// mnmbench error path and selection parse.
var (
	registryOnce sync.Once
	registryAll  []Experiment
	registryByID map[string]Experiment
)

func registry() []Experiment {
	registryOnce.Do(func() {
		registryAll = []Experiment{
			figure1Experiment(),
			hboMatrixExperiment(),
			toleranceExperiment(),
			smcutExperiment(),
			benorVsHBOExperiment(),
			leaderSeriesExperiment(),
			fairLossyExperiment(),
			msgOmegaExperiment(),
			localityExperiment(),
			tightnessExperiment(),
			scalabilityExperiment(),
			mutexExperiment(),
			memFailExperiment(),
			expanderFamilyExperiment(),
			paxosExperiment(),
		}
		registryByID = make(map[string]Experiment, len(registryAll))
		for _, e := range registryAll {
			registryByID[e.ID] = e
		}
	})
	return registryAll
}

// All returns every experiment in presentation order. The returned slice
// is the caller's to mutate.
func All() []Experiment {
	return append([]Experiment(nil), registry()...)
}

// ByID finds an experiment by its handle.
func ByID(id string) (Experiment, bool) {
	registry()
	e, ok := registryByID[id]
	return e, ok
}

// IDs lists all experiment handles in presentation order (the order All
// returns and mnmbench runs them in).
func IDs() []string {
	all := registry()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// forEach runs fn(i) for every i in [0, n) on p's worker pool; it is the
// fan-out layer every sweep-style experiment runs its independent trials
// through. Callers store per-trial results into an index-addressed slice
// inside fn and render rows only after forEach returns, so the printed
// table is identical for every Parallel setting. The returned error is the
// lowest-index failure, again independent of worker count.
func forEach(p Params, n int, fn func(i int) error) error {
	workers := p.Parallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// table is a small tabwriter wrapper.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s — %s ==\n", e.ID, e.Title)
	fmt.Fprintf(w, "reproduces: %s\n\n", e.Paper)
}

// mark renders a boolean as a check/cross.
func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// crashesFromSet converts a vertex set into a step-0 crash plan.
func crashesFromSet(members []int) []sim.Crash {
	out := make([]sim.Crash, 0, len(members))
	for _, v := range members {
		out = append(out, sim.Crash{Proc: core.ProcID(v), AtStep: 0})
	}
	return out
}
