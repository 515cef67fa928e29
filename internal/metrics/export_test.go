package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"
)

func exportFixture() *Registry {
	reg := NewRegistry(3)
	reg.Record(0, MsgSent, 4)
	reg.Record(2, MsgSent, 1)
	reg.Record(1, RegReadRemote, 9)
	reg.Record(0, FrameSent, 2)
	reg.Histogram(HistFrameRTT).Observe(250 * time.Microsecond)
	reg.Histogram(HistFrameRTT).Observe(1 * time.Millisecond)
	reg.Histogram(HistRemoteRead).Observe(80 * time.Microsecond)
	return reg
}

func TestExportJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, exportFixture()); err != nil {
		t.Fatal(err)
	}
	var doc ExportJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON does not parse: %v\n%s", err, buf.String())
	}
	if got := doc.Counters["msg_sent"]; got.Total != 5 || len(got.PerProc) != 3 || got.PerProc[0] != 4 {
		t.Errorf("msg_sent = %+v", got)
	}
	if _, ok := doc.Counters["frame_sent"]; !ok {
		t.Error("frame_sent missing from JSON export")
	}
	h, ok := doc.Histograms[HistFrameRTT]
	if !ok {
		t.Fatal("frame_rtt histogram missing")
	}
	if h.Count != 2 || h.MaxNS != int64(time.Millisecond) || h.P50NS == 0 {
		t.Errorf("frame_rtt = %+v", h)
	}
}

// promLine is the shape every non-comment, non-blank exposition line must
// have: NAME{labels} VALUE with a float-parseable value — the same check
// the CI job applies to a live /metrics scrape.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$`)

func TestExportPrometheusParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, exportFixture()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	sc := bufio.NewScanner(strings.NewReader(out))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	if lines == 0 {
		t.Fatal("no samples in exposition output")
	}
	for _, want := range []string{
		`mnm_msg_sent_total{proc="0"} 4`,
		`mnm_frame_sent_total{proc="0"} 2`,
		"# TYPE mnm_frame_rtt_seconds summary",
		"mnm_frame_rtt_seconds_count 2",
		"# TYPE mnm_frame_rtt_seconds_max gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition output missing %q\n%s", want, out)
		}
	}
}

// Sharded nodes hang one sub-registry per group off the root; both
// exporters must render those shards without disturbing the base rows
// (CI greps the exposition for the unlabeled base format).
func TestExportGroupSubRegistries(t *testing.T) {
	reg := exportFixture()
	g1 := reg.Sub("group-1", 2)
	g1.Record(0, MsgSent, 7)
	g1.Record(1, RegReadRemote, 3)
	g1.Histogram(HistRemoteRead).Observe(40 * time.Microsecond)
	reg.Sub("group-2", 2) // opened but idle

	var buf bytes.Buffer
	if err := WriteJSON(&buf, reg); err != nil {
		t.Fatal(err)
	}
	var doc ExportJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON does not parse: %v\n%s", err, buf.String())
	}
	g1doc, ok := doc.Groups["group-1"]
	if !ok {
		t.Fatalf("groups map missing group-1: %v", doc.Groups)
	}
	if got := g1doc.Counters["msg_sent"]; got.Total != 7 || got.PerProc[0] != 7 {
		t.Errorf("group-1 msg_sent = %+v", got)
	}
	if _, ok := doc.Groups["group-2"]; !ok {
		t.Error("idle group-2 missing from groups map")
	}
	// Shard traffic must not leak into the root totals.
	if got := doc.Counters["msg_sent"]; got.Total != 5 {
		t.Errorf("root msg_sent = %+v, want total 5", got)
	}

	buf.Reset()
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		`mnm_msg_sent_total{proc="0"} 4`, // base row, byte-identical to unsharded
		`mnm_msg_sent_total{group="group-1",proc="0"} 7`,
		`mnm_reg_read_remote_total{group="group-1",proc="1"} 3`,
		`mnm_remote_read_seconds_count{group="group-1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition output missing %q\n%s", want, out)
		}
	}
	// Group rows ride under the shared TYPE header: one header per name.
	if got := strings.Count(out, "# TYPE mnm_msg_sent_total counter"); got != 1 {
		t.Errorf("%d TYPE headers for mnm_msg_sent_total, want 1", got)
	}
	// The idle shard is still visible in the scrape — zero-valued rows,
	// so dashboards see every open group, active or not.
	if !strings.Contains(out, `mnm_msg_sent_total{group="group-2",proc="0"} 0`) {
		t.Errorf("idle group-2 should expose zero-valued rows:\n%s", out)
	}
}

// TestPrometheusFamiliesRenderOnce: a histogram present in the root and
// in a group registry is one family, rendered whole — one TYPE line for
// the summary and one for its _max gauge, each followed by all its
// samples, root first — since a Prometheus parser rejects a family whose
// header repeats or whose samples are split.
func TestPrometheusFamiliesRenderOnce(t *testing.T) {
	reg := NewRegistry(2)
	reg.Histogram(HistRPCCall).Observe(time.Millisecond)
	reg.Histogram(HistFrameRTT).Observe(time.Millisecond)
	g1 := reg.Sub("group-1", 2)
	g1.Histogram(HistRPCCall).Observe(2 * time.Millisecond)
	g1.Histogram(HistRemoteRead).Observe(time.Millisecond)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	// Each sample must follow its own family's TYPE line: its name is the
	// family's, or the summary's _sum or _count.
	family, types := "", make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family = strings.Fields(f)[0]
			types[family]++
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if name != family && name != family+"_sum" && name != family+"_count" {
			t.Errorf("sample %q is outside its family (current family %s)", line, family)
		}
	}
	for f, n := range types {
		if n != 1 {
			t.Errorf("%d TYPE lines for %s, want 1", n, f)
		}
	}
	out := buf.String()
	for _, pair := range [][2]string{
		{"mnm_rpc_call_seconds_count 1", `mnm_rpc_call_seconds_count{group="group-1"} 1`},
		{"mnm_rpc_call_seconds_max 0.001", `mnm_rpc_call_seconds_max{group="group-1"} 0.002`},
	} {
		root, group := strings.Index(out, pair[0]+"\n"), strings.Index(out, pair[1]+"\n")
		if root < 0 || group < 0 || root > group {
			t.Errorf("want %q, then %q; got\n%s", pair[0], pair[1], out)
		}
	}
}

func TestExportEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, &Registry{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mnm_msg_sent_total 0") {
		t.Errorf("counter-less registry should expose zero totals:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteJSON(&buf, &Registry{}); err != nil {
		t.Fatal(err)
	}
}

func TestSanitizeProm(t *testing.T) {
	if got := sanitizeProm("rpc.call-9/x"); got != "rpc_call_9_x" {
		t.Errorf("sanitizeProm = %q", got)
	}
}
