package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Regression bounds of the end-to-end metrics, as the share of the base
// value by which a metric may get worse. Two are wider than the defaults,
// each by what runs of one commit were measured to differ (README.md):
//   - rsm-tcp3-durable waits on about 13 fsyncs per commit, and the host's
//     disk moves between a 70 us and a 118 us fsync for minutes at a time:
//     suite runs of the same code gave 647 and 487 commits/s, unit_p50_us
//     71 and 98 ms (x1.38), unit_p95_us 79 and 102 ms (x1.29);
//   - regmix-tcp2's p95 is the tail of a 22 us remote op and read 48.6,
//     55.6, 56.5 and 64.4 us in four suite runs (+-14 %).
const (
	boundDefault    = 0.10 // ops_per_s, unit_p50_us
	boundP95        = 0.15
	boundRegmixP95  = 0.25
	boundDurable    = 0.40
	boundSetupShare = 0.50  // setup_s: +50 % ...
	boundSetupAbsS  = 0.05  // ... or +0.05 s, whichever is larger
	boundFailedAbs  = 0.001 // failed_share: absolute
)

// higherIsBetter lists the end-to-end metrics where a larger value is good.
var higherIsBetter = map[string]bool{"ops_per_s": true}

// allowedWorsening returns how much worse than base the metric may be, as
// an absolute amount in the metric's unit.
func allowedWorsening(workload, name string, base float64) float64 {
	switch name {
	case "failed_share":
		return boundFailedAbs
	case "setup_s":
		return math.Max(boundSetupShare*base, boundSetupAbsS)
	}
	share := boundDefault
	switch {
	case workload == "rsm-tcp3-durable":
		share = boundDurable
	case name == "unit_p95_us" && workload == "regmix-tcp2":
		share = boundRegmixP95
	case name == "unit_p95_us":
		share = boundP95
	}
	return share * base
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // the runs' own spread is wider than the bound
)

// verdict compares value b against base a. spreadShare is the larger of
// the two runs' estimated run-to-run spreads, as a share of the value.
func verdict(workload, name string, a, b, spreadShare float64) (allowed float64, v string) {
	worsening := b - a
	if higherIsBetter[name] {
		worsening = a - b
	}
	allowed = allowedWorsening(workload, name, a)
	switch {
	case spreadShare*a > allowed:
		return allowed, verdictUnresolved
	case worsening > allowed:
		return allowed, verdictWorse
	}
	return allowed, verdictOK
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schemaName)
	}
	return &d, nil
}

// compare prints, per workload × end-to-end metric, both values, the ratio
// with its base, the bound and the verdict. It reports whether any metric
// came out worse.
func compare(out io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "base A = %s (seed %d, rev %s)\n     B = %s (seed %d, rev %s)\n", pathA, a.Seed, a.GitRev, pathB, b.Seed, b.GitRev)
	fmt.Fprintf(out, "%-17s %-13s %14s %14s %12s %10s %8s  %s\n", "workload", "metric", "A", "B", "B/A", "allowed", "spread", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil || wa.Metrics == nil || wb.Metrics == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := wa.Metrics[m.name].Value, wb.Metrics[m.name].Value
			sp := math.Max(wa.Spread[m.name].runSpread(), wb.Spread[m.name].runSpread())
			allowed, v := verdict(wa.Name, m.name, va, vb, sp)
			ratio := "-"
			if va != 0 {
				ratio = fmt.Sprintf("%.3f of A", vb/va)
			}
			fmt.Fprintf(out, "%-17s %-13s %14.4f %14.4f %12s %10.4f %7.1f%%  %s\n",
				wa.Name, m.name, va, vb, ratio, allowed, 100*sp, v)
			worse = worse || v == verdictWorse
		}
	}
	return worse, nil
}
