package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/mnm-model/mnm/internal/metrics"
)

// plan is how one workload is measured. Everything but the two window
// lengths is the same on every commit (defaultPlan); the smoke test
// shortens all of it.
type plan struct {
	// segments is how many fresh set-ups the untraced window is spread
	// over. Probing found that a cluster's speed shifts from one set-up to
	// the next and over tens of seconds (rsm-tcp3-durable: 480 to 680
	// commits/s between meshes in one process), so one window on one mesh
	// made runs disagree: over ten runs the quartile distance was 14-16 %
	// of the median there, 7-9 % with five segments. Every end-to-end
	// metric is therefore computed per segment and the run reports the
	// median segment.
	segments int
	// warmup is discarded at the start of every segment: at least this
	// long and at least warmupUnits units.
	warmup time.Duration
	// window is the untraced timed time, all segments together (0 skips
	// it); traced is the traced pass on the last segment's cluster,
	// followed by the ladder (0 skips both).
	window, traced time.Duration
	// After the segments, set-up alone is repeated until it has taken
	// setupBudget in all or been done maxSetups times, so that cheap
	// set-ups are averaged over many repeats. setup_s is their midmean,
	// not their median: hbo-tcp3's cold instance ends on a 10 ms scheduler
	// tick, 20 or 30 ms about equally often, and a median flips between
	// the two from run to run.
	setupBudget time.Duration
	maxSetups   int
}

const warmupUnits = 3

var defaultPlan = plan{
	segments: 5, warmup: 400 * time.Millisecond,
	window: 15 * time.Second, traced: 5 * time.Second,
	setupBudget: 1500 * time.Millisecond, maxSetups: 25,
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// End-to-end metric names, in print order, and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"unit_p50_us", "us"},
	{"unit_p95_us", "us"},
	{"failed_share", "ratio"},
}

// tail is the ungated highest percentile the window's sample count
// supports (at least ten samples beyond it).
type tail struct {
	Percentile float64 `json:"percentile"`
	ValueUS    float64 `json:"unit_tail_us"`
	Samples    int     `json:"samples"`
}

// workloadResult is one workload's part of a result document.
type workloadResult struct {
	Name          string  `json:"name"`
	Why           string  `json:"why"`
	Op            string  `json:"op"`
	Unit          string  `json:"unit"`
	WarmupS       float64 `json:"warmup_s"`
	WindowS       float64 `json:"window_s"`
	TracedWindowS float64 `json:"traced_window_s"`
	Attempted     int     `json:"units_attempted"`
	Failed        int     `json:"units_failed"`
	Samples       int     `json:"samples"`
	FirstError    string  `json:"first_error,omitempty"`
	// Metrics holds the end-to-end metrics of the untraced window.
	Metrics map[string]metric `json:"metrics,omitempty"`
	Tail    *tail             `json:"tail,omitempty"`
	// Spread is the variance attached to each end-to-end metric: the
	// percentiles of its per-segment values (of the set-up repeats for
	// setup_s).
	Spread map[string]spread `json:"spread,omitempty"`
	// Layers holds the per-layer metrics of the traced pass and ladder.
	Layers    map[string]metric `json:"layers,omitempty"`
	Budget    []budgetRow       `json:"budget,omitempty"`
	SpansPath string            `json:"spans_path,omitempty"`
}

// unitSample is one completed unit: how long its timed section took and
// how many ops it completed.
type unitSample struct {
	timed time.Duration
	ops   int
}

// pass is what one warm-up, window or traced pass observed.
type pass struct {
	elapsed   time.Duration
	samples   []unitSample // successful units only
	attempted int
	failed    int
	firstErr  error
}

// add pools another pass into p.
func (p *pass) add(q pass) {
	p.elapsed += q.elapsed
	p.samples = append(p.samples, q.samples...)
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func (p *pass) ops() int {
	n := 0
	for _, s := range p.samples {
		n += s.ops
	}
	return n
}

func (p *pass) opsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ops()) / p.elapsed.Seconds()
}

// timedUS returns the ascending timed durations in microseconds.
func (p *pass) timedUS() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = float64(s.timed) / 1e3
	}
	return sortedCopy(out)
}

// runner is the state of one workload's run.
type runner struct {
	w           *workload
	seed        int64
	pl          plan
	dir, outDir string // temporary files; where the span file goes
	// next is the run-wide unit counter, so unit ids (and the inputs
	// seeded from them) never repeat across set-ups and passes.
	next   int
	setups []float64 // setup_s samples, seconds
	res    *workloadResult
}

// measure drives the cluster's unit in a closed loop — one generator, one
// unit in flight — for at least d and at least minUnits units.
func (r *runner) measure(c cluster, d time.Duration, minUnits int, sp *spans) (pass, error) {
	var p pass
	err := c.drive(func(unit unitFn) {
		start := time.Now()
		for p.elapsed < d || p.attempted < minUnits {
			ops, timed, err := unit(r.next, sp)
			r.next++
			p.elapsed = time.Since(start)
			p.attempted++
			if err != nil {
				p.failed++
				if p.firstErr == nil {
					p.firstErr = err
				}
				continue
			}
			p.samples = append(p.samples, unitSample{timed: timed, ops: ops})
		}
	})
	return p, err
}

// procUsage is the process-wide resource reading taken around a window.
type procUsage struct {
	cpu        time.Duration
	allocBytes uint64
	maxRSSMB   float64
}

func readProcUsage() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		maxRSSMB:   float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
}

// runWorkload measures one workload as pl says: per segment a fresh set-up,
// a warm-up and a share of the untraced window; then the traced pass and
// ladder on the last segment's cluster; then any further set-up repeats.
// dir holds the run's temporary files, outDir receives the span file.
func runWorkload(w *workload, seed int64, pl plan, dir, outDir string) (*workloadResult, error) {
	r := &runner{w: w, seed: seed, pl: pl, dir: dir, outDir: outDir, res: &workloadResult{
		Name: w.name, Why: w.why, Op: w.opName, Unit: w.unitName,
		WarmupS: pl.warmup.Seconds() * float64(pl.segments),
	}}
	baseline := runtime.NumGoroutine()
	if err := r.run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	awaitGoroutines(w.name, baseline)
	return r.res, nil
}

// setUp builds the workload's cluster from nothing and runs its first
// (cold) unit; the time that takes is one setup_s sample.
func (r *runner) setUp() (cluster, error) {
	repDir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", len(r.setups)))
	start := time.Now()
	if err := os.MkdirAll(repDir, 0o755); err != nil {
		return nil, err
	}
	c, err := r.w.setup(params{seed: r.seed, dir: repDir})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cold, err := r.measure(c, 0, 1, nil)
	if err == nil {
		err = cold.firstErr
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("first unit after set-up: %w", err)
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return c, nil
}

func (r *runner) run() error {
	pl, res := r.pl, r.res
	var all pass // the segments' windows pooled
	var rate, p50, p95 []float64
	for seg := 0; seg < pl.segments; seg++ {
		c, err := r.setUp()
		if err != nil {
			return err
		}
		var window pass
		if _, err = r.measure(c, pl.warmup, warmupUnits, nil); err == nil && pl.window > 0 {
			if window, err = r.measure(c, pl.window/time.Duration(pl.segments), 1, nil); err == nil {
				us := window.timedUS()
				rate, p50, p95 = append(rate, window.opsPerSec()), append(p50, percentile(us, 50)), append(p95, percentile(us, 95))
				all.add(window)
			}
		}
		if err == nil && seg == pl.segments-1 && pl.traced > 0 {
			err = r.tracedPass(c, window)
		}
		if cerr := c.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
		if err != nil {
			return fmt.Errorf("segment %d: %w", seg, err)
		}
	}
	for sum(r.setups) < pl.setupBudget.Seconds() && len(r.setups) < pl.maxSetups {
		c, err := r.setUp()
		if err == nil {
			err = c.close()
		}
		if err != nil {
			return err
		}
	}
	if pl.window == 0 {
		return nil
	}

	res.WindowS = all.elapsed.Seconds()
	res.Attempted += all.attempted
	res.Failed += all.failed
	res.Samples = len(all.samples)
	if all.firstErr != nil {
		res.FirstError = all.firstErr.Error()
	}
	values := map[string]float64{
		"setup_s": midmean(r.setups), "ops_per_s": median(rate),
		"unit_p50_us": median(p50), "unit_p95_us": median(p95),
		"failed_share": float64(all.failed) / float64(all.attempted),
	}
	res.Metrics = map[string]metric{}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	us := all.timedUS()
	if tp := tailPercentile(len(us)); tp > 0 {
		res.Tail = &tail{Percentile: tp, ValueUS: percentile(us, tp), Samples: len(us)}
	}
	res.Spread = map[string]spread{
		"setup_s": spreadOf(r.setups), "ops_per_s": spreadOf(rate),
		"unit_p50_us": spreadOf(p50), "unit_p95_us": spreadOf(p95),
	}
	return nil
}

// tracedPass runs the traced window and the ladder on the warmed cluster
// and fills in the per-layer metrics, the budget table and the span file.
// untraced is the untraced window just measured on the same cluster, the
// base of trace_overhead_share.
func (r *runner) tracedPass(c cluster, untraced pass) error {
	res := r.res
	sp := newSpans()
	reg := c.registry()
	before, fsyncsBefore, useBefore := reg.Counters().Snapshot(0), reg.Histogram(metrics.HistFsync).Count(), readProcUsage()
	traced, err := r.measure(c, r.pl.traced, 1, sp)
	if err != nil {
		return fmt.Errorf("traced window: %w", err)
	}
	delta := reg.Counters().Snapshot(0).Sub(before)
	fsyncs := reg.Histogram(metrics.HistFsync).Count() - fsyncsBefore
	use := readProcUsage()
	res.TracedWindowS = traced.elapsed.Seconds()
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if traced.firstErr != nil {
		res.FirstError = traced.firstErr.Error()
	}

	ops := float64(traced.ops())
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	total := func(k metrics.Kind) float64 { return float64(delta.Total(k)) }
	L := map[string]metric{
		"tcp.frames_per_op":     {perOp(total(metrics.FrameSent)), "count"},
		"tcp.frames_per_batch":  {ratio(delta.Total(metrics.FrameSent), delta.Total(metrics.FrameBatches)), "count"},
		"tcp.acks_per_frame":    {ratio(delta.Total(metrics.FrameAcked), delta.Total(metrics.FrameSent)), "count"},
		"tcp.retrans_per_op":    {perOp(total(metrics.FrameRetrans)), "count"},
		"rt.steps_per_op":       {perOp(total(metrics.Steps)), "count"},
		"shm.remote_ops_per_op": {perOp(total(metrics.RegReadRemote) + total(metrics.RegWriteRemote)), "count"},
		"shm.local_ops_per_op":  {perOp(total(metrics.RegReadLocal) + total(metrics.RegWriteLocal)), "count"},
		"msgs_per_op":           {perOp(total(metrics.MsgSent)), "count"},
		"durable.fsyncs_per_op": {perOp(float64(fsyncs)), "count"},
		"rt.group_open_us":      {sp.p50us("rt.group_open"), "us"},
		"rt.group_stop_us":      {sp.p50us("rt.group_stop"), "us"},
		"rsm.first_commit_us":   {sp.p50us("rsm.first_commit"), "us"},
		"proc.cpu_us_per_op":    {perOp(float64(use.cpu-useBefore.cpu) / 1e3), "us"},
		"proc.alloc_b_per_op":   {perOp(float64(use.allocBytes - useBefore.allocBytes)), "B"},
		"proc.peak_rss_mb":      {use.maxRSSMB, "MB"},
	}
	L["trace_overhead_share"] = metric{0, "ratio"}
	if base := untraced.opsPerSec(); base > 0 {
		L["trace_overhead_share"] = metric{1 - traced.opsPerSec()/base, "ratio"}
	}

	if err := ladder(c, r.seed, filepath.Join(r.dir, "ladder"), sp, L); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	res.Layers = L
	unitUS := percentile(traced.timedUS(), 50)
	if n := len(traced.samples); n > 0 {
		unitUS /= float64(traced.ops()) / float64(n) // per op
	}
	res.Budget = budget(r.w.name, L, unitUS)

	res.SpansPath = filepath.Join(r.outDir, "spans-"+r.w.name+".jsonl")
	return sp.writeJSONL(res.SpansPath)
}

// awaitGoroutines waits for the goroutine count to fall back to the
// baseline taken before the workload started, so that a workload cannot
// leave work running into the next one.
func awaitGoroutines(name string, baseline int) {
	start := time.Now()
	for runtime.NumGoroutine() > baseline {
		if time.Since(start) > 2*time.Second {
			fmt.Fprintf(os.Stderr, "bench: %s left %d goroutines running (baseline %d)\n",
				name, runtime.NumGoroutine(), baseline)
			return
		}
		time.Sleep(time.Millisecond)
	}
}
