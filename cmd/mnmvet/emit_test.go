package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"path/filepath"
	"testing"

	"github.com/mnm-model/mnm/internal/analysis"
	"github.com/mnm-model/mnm/internal/analysis/suite"
)

func sampleDiags(root string) []analysis.Diagnostic {
	return []analysis.Diagnostic{{
		Pos: token.Position{
			Filename: filepath.Join(root, "internal", "transport", "tcp", "peer.go"),
			Line:     42,
			Column:   3,
		},
		Rule:    "lockorder",
		Message: "acquiring tcp.Transport.mu while tcp.peer.mu is held closes a lock-order cycle",
	}}
}

func TestEmitJSON(t *testing.T) {
	root := t.TempDir()
	var buf bytes.Buffer
	if err := emitJSON(&buf, root, sampleDiags(root)); err != nil {
		t.Fatal(err)
	}
	var got []jsonDiag
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 1 {
		t.Fatalf("got %d findings, want 1", len(got))
	}
	if got[0].File != "internal/transport/tcp/peer.go" {
		t.Errorf("file not root-relative: %q", got[0].File)
	}
	if got[0].Line != 42 || got[0].Rule != "lockorder" {
		t.Errorf("finding mangled: %+v", got[0])
	}
}

func TestEmitSARIF(t *testing.T) {
	root := t.TempDir()
	var buf bytes.Buffer
	if err := emitSARIF(&buf, root, suite.All(), sampleDiags(root)); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("bad SARIF envelope: version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "mnmvet" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(suite.All()) {
		t.Errorf("rule metadata for %d rules, want %d", len(run.Tool.Driver.Rules), len(suite.All()))
	}
	if len(run.Results) != 1 {
		t.Fatalf("%d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "lockorder" || res.Level != "error" {
		t.Errorf("result mangled: %+v", res)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/transport/tcp/peer.go" {
		t.Errorf("URI not root-relative: %q", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 42 {
		t.Errorf("start line %d", loc.Region.StartLine)
	}
}

func TestEmitSARIFEmptyIsValid(t *testing.T) {
	var buf bytes.Buffer
	if err := emitSARIF(&buf, "/", suite.All(), nil); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("empty SARIF not valid JSON: %v", err)
	}
	if log.Runs[0].Results == nil {
		t.Errorf("results must be an empty array, not null (upload-sarif rejects null)")
	}
}
