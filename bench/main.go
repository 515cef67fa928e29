// Command bench is the repository's benchmark: six closed-loop m&m
// workloads driven end to end over the real runtime (loopback TCP nodes or
// the Chan backend, all in this process), five end-to-end metrics per
// workload, and a traced pass with a per-layer ladder. README.md explains
// the workloads, the metrics and how they are expected to interact.
//
//	bench -seed 1 -out result.json                      every workload, 15 s window + 5 s traced pass
//	bench -workload hbo-tcp3 -seed 1 -seconds 10 -trace 0   one contract run (last line is JSON)
//	bench -compare A.json B.json                        verdict per workload × metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	schemaName  = "mnm-bench/v2"
	defaultSeed = 1
)

// document is one run's result, schema mnm-bench/v2.
type document struct {
	Schema     string            `json:"schema"`
	GitRev     string            `json:"git_rev"`
	GoVersion  string            `json:"go_version"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	TempDirFS  string            `json:"temp_dir_fs"`
	Seed       int64             `json:"seed"`
	Workloads  []*workloadResult `json:"workloads"`
}

func (d *document) workload(name string) *workloadResult {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		names        = flag.String("workload", "", "workload NAME[,NAME]; empty runs all six")
		seed         = flag.Int64("seed", defaultSeed, "seed every generated input derives from")
		window       = flag.Duration("window", defaultPlan.window, "untraced timed window per workload")
		tracedWindow = flag.Duration("traced-window", defaultPlan.traced, "traced pass per workload (0 skips it and the ladder)")
		out          = flag.String("out", "", "write the mnm-bench/v2 result document to this file")
		dir          = flag.String("dir", ".bench_build", "directory for WAL dirs and span files (a real file system)")
		seconds      = flag.Int("seconds", 0, "contract run: measure one workload for this long and print a JSON result as the last line")
		trace        = flag.Int("trace", 0, "contract run: 0 = the whole time untraced, end-to-end metrics; 1 = half untraced, half traced, per-layer metrics")
		doCompare    = flag.Bool("compare", false, "compare two result documents: bench -compare A.json B.json")
	)
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		worse, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w := workloadByName(n)
			if w == nil {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
				return 2
			}
			selected = append(selected, *w)
		}
	}
	contract := *seconds > 0
	if contract {
		if len(selected) != 1 || (*trace != 0 && *trace != 1) {
			fmt.Fprintln(os.Stderr, "bench: -seconds needs exactly one -workload and -trace 0 or 1")
			return 2
		}
		*window, *tracedWindow = time.Duration(*seconds)*time.Second, 0
		if *trace == 1 {
			*window /= 2
			*tracedWindow = *window
		}
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	doc := &document{
		Schema: schemaName, GitRev: buildRev, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), TempDirFS: fsName(tmp), Seed: *seed,
	}
	fmt.Printf("%s rev=%s %s nproc=%d GOMAXPROCS=%d cpu=%q tmpfs=%s seed=%d\n",
		doc.Schema, doc.GitRev, doc.GoVersion, doc.NProc, doc.GOMAXPROCS, doc.CPUModel, doc.TempDirFS, doc.Seed)

	for i := range selected {
		w := &selected[i]
		pl := defaultPlan
		pl.window, pl.traced = *window, *tracedWindow
		res, err := runWorkload(w, *seed, pl, filepath.Join(tmp, w.name), *dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		doc.Workloads = append(doc.Workloads, res)
		printResult(res)
	}

	if *out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if contract {
		return printContract(doc.Workloads[0], *trace == 1)
	}
	for _, res := range doc.Workloads {
		if res.Failed > 0 {
			return 1
		}
	}
	return 0
}

// printResult prints every metric of one workload by name with its unit.
func printResult(r *workloadResult) {
	fmt.Printf("\n== %s: %s\n   unit = %s; op = %s; window %.2f s, traced %.2f s, %d units attempted, %d failed, %d samples\n",
		r.Name, r.Why, r.Unit, r.Op, r.WindowS, r.TracedWindowS, r.Attempted, r.Failed, r.Samples)
	if r.FirstError != "" {
		fmt.Printf("   first error: %s\n", r.FirstError)
	}
	for _, m := range endToEnd {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Printf("%-17s %-24s %16.4f %-6s", r.Name, m.name, v.Value, v.Unit)
			if s, ok := r.Spread[m.name]; ok {
				fmt.Printf(" repeats p10/p50/p90 %.4g/%.4g/%.4g (n=%d)", s.P10, s.P50, s.P90, s.N)
			}
			fmt.Println()
		}
	}
	if r.Tail != nil {
		fmt.Printf("%-17s %-24s %16.4f %-6s p%g of %d samples (ungated)\n", r.Name, "unit_tail_us", r.Tail.ValueUS, "us", r.Tail.Percentile, r.Tail.Samples)
	}
	for _, name := range sortedKeys(r.Layers) {
		fmt.Printf("%-17s %-24s %16.4f %s\n", r.Name, name, r.Layers[name].Value, r.Layers[name].Unit)
	}
	if len(r.Budget) > 0 {
		fmt.Printf("   ladder budget (us; self = rung minus the rung below):\n")
		for _, b := range r.Budget {
			fmt.Printf("   %-24s %12.3f  self %12.3f  on %s\n", b.Rung, b.US, b.SelfUS, orDash(b.Below))
		}
		fmt.Printf("   spans: %s\n", r.SpansPath)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// printContract prints the one-line JSON result of a contract run: the
// bounded end-to-end metrics of an untraced run, or every per-layer metric
// of a traced one. failed_share is carried by attempted/failed instead of
// being a metric, because a metric there must never be 0.
func printContract(r *workloadResult, traced bool) int {
	ms := map[string]metric{}
	if traced {
		ms = r.Layers
	} else {
		for name, m := range r.Metrics {
			if name != "failed_share" {
				ms[name] = m
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// buildRev is the git revision the binary was built from, set by run.sh
// through the linker ("+dirty" when the work tree was modified).
var buildRev = "unknown"

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsName names the file system holding dir, which sets what an fsync costs.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
