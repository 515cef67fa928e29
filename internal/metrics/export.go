// Export encodings for a Registry: a JSON document for programmatic
// consumers (the mnmnode -watch poller, tests) and the Prometheus text
// exposition format for standard scrapers. Both render the same schema:
// every counter Kind as a per-process counter family, every histogram as
// count/sum/max plus conservative p50/p95/p99.

package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"slices"
	"sort"
	"time"

	"github.com/mnm-model/mnm/internal/core"
)

// CounterJSON is one counter family in the JSON export.
type CounterJSON struct {
	Total   int64   `json:"total"`
	PerProc []int64 `json:"per_proc"`
}

// HistJSON is one histogram in the JSON export. Durations are in
// nanoseconds; quantiles are the conservative bucket upper bounds.
type HistJSON struct {
	Count  int64 `json:"count"`
	SumNS  int64 `json:"sum_ns"`
	MeanNS int64 `json:"mean_ns"`
	MaxNS  int64 `json:"max_ns"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
}

// ExportJSON is the full JSON document for one registry. Groups holds
// one nested document per labeled sub-registry (multi-tenant shards);
// it is omitted when the registry has none.
type ExportJSON struct {
	Counters   map[string]CounterJSON `json:"counters"`
	Histograms map[string]HistJSON    `json:"histograms"`
	Groups     map[string]ExportJSON  `json:"groups,omitempty"`
}

// histJSON flattens a snapshot into its JSON form.
func histJSON(s HistSnapshot) HistJSON {
	return HistJSON{
		Count:  s.Count,
		SumNS:  s.SumNS,
		MeanNS: int64(s.Mean()),
		MaxNS:  s.MaxNS,
		P50NS:  int64(s.Quantile(0.50)),
		P95NS:  int64(s.Quantile(0.95)),
		P99NS:  int64(s.Quantile(0.99)),
	}
}

// Export builds the JSON document for reg.
func Export(reg *Registry) ExportJSON {
	out := ExportJSON{
		Counters:   make(map[string]CounterJSON),
		Histograms: make(map[string]HistJSON),
	}
	snap := reg.Counters().Snapshot(0)
	for _, k := range Kinds() {
		c := CounterJSON{Total: snap.Total(k), PerProc: make([]int64, snap.Procs())}
		for p := 0; p < snap.Procs(); p++ {
			c.PerProc[p] = snap.Of(core.ProcID(p), k)
		}
		out.Counters[k.String()] = c
	}
	for name, h := range reg.HistSnapshots() {
		out.Histograms[name] = histJSON(h)
	}
	for _, label := range reg.SubLabels() {
		if out.Groups == nil {
			out.Groups = make(map[string]ExportJSON)
		}
		out.Groups[label] = Export(reg.SubRegistry(label))
	}
	return out
}

// WriteJSON writes the registry as one indented JSON document.
func WriteJSON(w io.Writer, reg *Registry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Export(reg))
}

// promName restricts metric names to the Prometheus grammar.
var promName = regexp.MustCompile(`[^a-zA-Z0-9_:]`)

func sanitizeProm(name string) string {
	return promName.ReplaceAllString(name, "_")
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one `mnm_<kind>_total` counter family with a
// `proc` label per counter Kind, and one `mnm_<name>_seconds` summary
// (plus a `_max` gauge) per histogram. Labeled sub-registries render in
// the same families with an extra `group` label. Every family is written
// whole: one TYPE line, the root's rows, then each group's, so a name the
// root and a shard share still has one header and contiguous samples.
func WritePrometheus(w io.Writer, reg *Registry) error {
	srcs := []promSource{{reg: reg, hists: reg.HistSnapshots()}}
	for _, label := range reg.SubLabels() {
		sub := reg.SubRegistry(label)
		srcs = append(srcs, promSource{
			braced: fmt.Sprintf("{group=%q}", label),
			sep:    fmt.Sprintf("group=%q,", label),
			reg:    sub,
			hists:  sub.HistSnapshots(),
		})
	}
	var names []string // every histogram name, the root's and the shards', once
	for _, src := range srcs {
		for hname := range src.hists {
			names = append(names, hname)
		}
	}
	sort.Strings(names)
	names = slices.Compact(names)

	pw := &promWriter{w: w}
	for _, k := range Kinds() {
		name := "mnm_" + sanitizeProm(k.String()) + "_total"
		pw.printf("# TYPE %s counter\n", name)
		for _, src := range srcs {
			pw.counter(name, k, src)
		}
	}
	for _, hname := range names {
		name := "mnm_" + sanitizeProm(hname) + "_seconds"
		pw.printf("# TYPE %s summary\n", name)
		for _, src := range srcs {
			if h, ok := src.hists[hname]; ok {
				pw.summary(name, src, h)
			}
		}
		pw.printf("# TYPE %s_max gauge\n", name)
		for _, src := range srcs {
			if h, ok := src.hists[hname]; ok {
				pw.printf("%s_max%s %g\n", name, src.braced, h.Max().Seconds())
			}
		}
	}
	return pw.err
}

// promSource is one registry's rows in the exposition: the root's carry
// no group label, a shard's carry its label, as a whole label block
// (braced) and as a prefix to a further label (sep).
type promSource struct {
	braced, sep string
	reg         *Registry
	hists       map[string]HistSnapshot
}

// promWriter writes exposition lines and keeps the first write error;
// once one occurs, later lines are skipped.
type promWriter struct {
	w   io.Writer
	err error
}

func (pw *promWriter) printf(format string, args ...any) {
	if pw.err == nil {
		_, pw.err = fmt.Fprintf(pw.w, format, args...)
	}
}

// counter renders one counter family's rows for one source. The TYPE
// header is the caller's: every group's rows share one family.
func (pw *promWriter) counter(name string, k Kind, src promSource) {
	snap := src.reg.Counters().Snapshot(0)
	if snap.Procs() == 0 {
		if src.sep == "" {
			pw.printf("%s 0\n", name)
		}
		return // an empty sub-registry adds no rows
	}
	for p := 0; p < snap.Procs(); p++ {
		pw.printf("%s{%sproc=\"%d\"} %d\n", name, src.sep, p, snap.Of(core.ProcID(p), k))
	}
}

// summary renders one source's rows of a summary family: the three
// quantiles, the sum and the count.
func (pw *promWriter) summary(name string, src promSource, h HistSnapshot) {
	for _, q := range []float64{0.5, 0.95, 0.99} {
		pw.printf("%s{%squantile=\"%g\"} %g\n", name, src.sep, q, h.Quantile(q).Seconds())
	}
	pw.printf("%s_sum%s %g\n", name, src.braced, time.Duration(h.SumNS).Seconds())
	pw.printf("%s_count%s %d\n", name, src.braced, h.Count)
}
