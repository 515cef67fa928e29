package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{nil, 0}, {[]float64{4}, 4}, {[]float64{1, 9}, 5},
		{[]float64{100, 2, 3, 4, 0}, 3},                 // drops one from each end
		{[]float64{20, 20, 20, 20, 30, 30, 30, 30}, 25}, // between two clusters
		{[]float64{1, 2, 3, 4, 5, 6, 7, 1000}, 4.5},     // the outlier does not count
	} {
		if got := midmean(c.v); got != c.want {
			t.Errorf("midmean(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}, {235666, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		workload, metric string
		a, b, spread     float64
		want             string
	}{
		{"hbo-tcp3", "ops_per_s", 100, 91, 0.02, verdictOK},            // -9 % of a higher-is-better metric
		{"hbo-tcp3", "ops_per_s", 100, 89, 0.02, verdictWorse},         // -11 %
		{"hbo-tcp3", "ops_per_s", 100, 150, 0.02, verdictOK},           // better is never worse
		{"hbo-tcp3", "unit_p50_us", 100, 111, 0.02, verdictWorse},      // +11 % of a lower-is-better metric
		{"hbo-tcp3", "unit_p95_us", 100, 114, 0.02, verdictOK},         // p95 gets 15 %
		{"hbo-tcp3", "unit_p95_us", 100, 116, 0.02, verdictWorse},      //
		{"rsm-tcp3-durable", "unit_p50_us", 100, 139, 0.02, verdictOK}, // the durable workload gets 40 %
		{"rsm-tcp3-durable", "ops_per_s", 100, 59, 0.02, verdictWorse}, //
		{"regmix-tcp2", "unit_p95_us", 100, 124, 0.02, verdictOK},      // regmix p95 gets 25 %
		{"regmix-tcp2", "unit_p95_us", 100, 126, 0.02, verdictWorse},   //
		{"hbo-tcp3", "unit_p50_us", 100, 104, 0.12, verdictUnresolved}, // spread wider than the bound: cannot say
		{"hbo-tcp3", "unit_p50_us", 100, 140, 0.12, verdictUnresolved}, //
		{"hbo-tcp3", "setup_s", 0.01, 0.05, 0, verdictOK},              // +0.04 s is inside the 0.05 s floor
		{"hbo-tcp3", "setup_s", 1.0, 1.4, 0, verdictOK},                // +40 % is inside +50 %
		{"hbo-tcp3", "setup_s", 1.0, 1.6, 0, verdictWorse},             //
		{"hbo-tcp3", "failed_share", 0, 0.0005, 0, verdictOK},          // absolute bound
		{"hbo-tcp3", "failed_share", 0, 0.002, 0, verdictWorse},        //
	} {
		if _, got := verdict(c.workload, c.metric, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, %s, %v -> %v, spread %v) = %s, want %s", c.workload, c.metric, c.a, c.b, c.spread, got, c.want)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload through the whole procedure — set-up,
// warm-up, untraced window, traced pass, ladder — with everything
// shortened, writes the result document, and checks that every metric
// BENCHMARK.json names is there with its unit, that no unit failed (so
// every output check passed), and that -compare of the document with
// itself is ok throughout.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	gated := map[string]string{}
	for _, sw := range spec.Workloads {
		gated[sw.Name] = sw.Why
	}
	if len(gated) != len(workloads)-1 {
		t.Errorf("BENCHMARK.json lists %d workloads, want all %d but %s", len(gated), len(workloads), ungatedWorkload)
	}

	dir := t.TempDir()
	pl := plan{segments: 1, warmup: 50 * time.Millisecond, window: 300 * time.Millisecond, traced: 300 * time.Millisecond}
	doc := &document{Schema: schemaName, Seed: defaultSeed}
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		if why, ok := gated[w.name]; ok == (w.name == ungatedWorkload) || (ok && why != w.why) {
			t.Errorf("%s: in BENCHMARK.json: %v, with the program's reason: %v", w.name, ok, why == w.why)
		}
		res, err := runWorkload(w, defaultSeed, pl, filepath.Join(dir, w.name), dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		doc.Workloads = append(doc.Workloads, res)
		if res.Failed != 0 || res.Attempted == 0 || res.Metrics["failed_share"].Value != 0 {
			t.Errorf("%s: %d of %d units failed: %s", w.name, res.Failed, res.Attempted, res.FirstError)
		}
		for _, m := range endToEnd {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want unit %s", w.name, m.name, got, m.unit)
			}
		}
		for _, m := range spec.EndToEnd {
			if got := res.Metrics[m.Name]; got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: BENCHMARK.json end_to_end %s [%s]: got %+v", w.name, m.Name, m.Unit, got)
			}
		}
		for _, m := range spec.PerLayer {
			if got, ok := res.Layers[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: BENCHMARK.json per_layer %s [%s]: got %+v (present %v)", w.name, m.Name, m.Unit, got, ok)
			}
		}
		if len(res.Layers) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", w.name, len(res.Layers), len(spec.PerLayer))
		}
		if info, err := os.Stat(res.SpansPath); err != nil || info.Size() == 0 {
			t.Errorf("%s: span file %q: %v", w.name, res.SpansPath, err)
		}
	}
	t.Logf("smoke run of %d workloads took %v", len(doc.Workloads), time.Since(start)) // ~7 s; ~25 s under -race

	path := filepath.Join(dir, "result.json")
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	worse, err := compare(&table, path, path)
	if err != nil || worse {
		t.Fatalf("compare of a document with itself: worse=%v err=%v\n%s", worse, err, table.String())
	}
	if n := strings.Count(table.String(), verdictOK+"\n") + strings.Count(table.String(), verdictUnresolved+"\n"); n != len(workloads)*len(endToEnd) {
		t.Errorf("compare printed %d verdicts, want %d:\n%s", n, len(workloads)*len(endToEnd), table.String())
	}
}
