package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mnm-model/mnm/internal/trace"
)

// dumpFile records a tiny flight on the named node and writes its JSONL
// dump (the /trace response body) to a file, returning the path and the
// root span's trace id.
func dumpFile(t *testing.T, dir, node string) (string, uint64) {
	t.Helper()
	f := trace.NewFlight(node, 16, 1)
	sc := f.Scope("group-1", nil)
	sp := sc.Start(0, trace.CAS, func() string { return "g1.X 0→1" })
	sp.Finish(nil)
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, node+".jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, sp.TraceID
}

func TestRunMergesDumps(t *testing.T) {
	dir := t.TempDir()
	pathA, idA := dumpFile(t, dir, "node-a")
	pathB, _ := dumpFile(t, dir, "node-b")

	var out, errb bytes.Buffer
	if code := run([]string{pathA, pathB}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"node node-a", "node node-b", "2 trace(s)", "cas"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, out.String())
		}
	}

	// -trace filters to one id.
	out.Reset()
	if code := run([]string{"-trace", fmt.Sprintf("%016x", idA), pathA, pathB}, &out, &errb); code != 0 {
		t.Fatalf("filtered run = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "1 trace(s)") {
		t.Errorf("-trace did not filter to one trace:\n%s", out.String())
	}

	// An id absent from the dumps is a failure, not an empty success.
	if code := run([]string{"-trace", "deadbeef", pathA}, &out, &errb); code != 1 {
		t.Errorf("run with unknown trace id = %d, want 1", code)
	}
}

func TestRunScrapesURL(t *testing.T) {
	dir := t.TempDir()
	path, _ := dumpFile(t, dir, "node-a")
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	}))
	defer srv.Close()

	var out, errb bytes.Buffer
	if code := run([]string{srv.URL + "/trace"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "node node-a") {
		t.Errorf("timeline missing the scraped node:\n%s", out.String())
	}
}

func TestRunUsageAndErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("run with no args = %d, want 2", code)
	}
	if code := run([]string{"-trace", "zzz", "x.jsonl"}, &out, &errb); code != 2 {
		t.Errorf("run with unparsable -trace id = %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out, &errb); code != 1 {
		t.Errorf("run with a missing dumpfile = %d, want 1", code)
	}
}
