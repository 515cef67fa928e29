package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/transport"
)

// stubTransport reports configurable link states and ignores messages.
type stubTransport struct {
	n  int
	mu sync.Mutex
	st map[[2]core.ProcID]transport.LinkState
}

func newStubTransport(n int) *stubTransport {
	return &stubTransport{n: n, st: make(map[[2]core.ProcID]transport.LinkState)}
}

func (s *stubTransport) set(from, to core.ProcID, st transport.LinkState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st[[2]core.ProcID{from, to}] = st
}

func (s *stubTransport) N() int      { return s.n }
func (s *stubTransport) Dial() error { return nil }
func (s *stubTransport) Send(from, to core.ProcID, payload core.Value, sc core.SpanContext) error {
	return nil
}
func (s *stubTransport) Broadcast(from core.ProcID, payload core.Value, sc core.SpanContext) error {
	return nil
}
func (s *stubTransport) TryRecv(p core.ProcID) (core.Message, bool) {
	return core.Message{}, false
}
func (s *stubTransport) SetWake(p core.ProcID, ch chan<- struct{}) {}
func (s *stubTransport) LinkState(from, to core.ProcID) transport.LinkState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.st[[2]core.ProcID{from, to}]; ok {
		return st
	}
	return transport.LinkUp
}
func (s *stubTransport) Close() error { return nil }

// get performs one request against the handler and returns the response.
func get(t *testing.T, h http.Handler, url string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return res, string(body)
}

func TestNewHandlerRequiresRegistry(t *testing.T) {
	if _, err := NewHandler(Config{}); err == nil {
		t.Fatal("NewHandler accepted a nil Registry")
	}
}

func TestMetricsEndpointFormats(t *testing.T) {
	reg := metrics.NewRegistry(2)
	reg.Counters().Record(0, metrics.MsgSent, 3)
	reg.Counters().Record(1, metrics.MsgDelivered, 3)
	reg.Histogram(metrics.HistFrameRTT).Observe(2 * time.Millisecond)

	h, err := NewHandler(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	res, body := get(t, h, "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q, want text/plain prometheus", ct)
	}
	for _, want := range []string{
		"# TYPE mnm_msg_sent_total counter",
		`mnm_msg_sent_total{proc="0"} 3`,
		"mnm_frame_rtt_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics body missing %q", want)
		}
	}

	res, body = get(t, h, "/metrics?format=json")
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics?format=json content-type = %q", ct)
	}
	var doc metrics.ExportJSON
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("json export does not parse: %v", err)
	}
	if got := doc.Counters["msg_sent"].Total; got != 3 {
		t.Errorf("json msg_sent total = %d, want 3", got)
	}
	if got := doc.Histograms["frame_rtt"].Count; got != 1 {
		t.Errorf("json frame_rtt count = %d, want 1", got)
	}
}

func TestHealthzTracksLinkStates(t *testing.T) {
	tr := newStubTransport(3)
	cfg := Config{
		Registry:  metrics.NewRegistry(3),
		Transport: tr,
		Hosted:    []core.ProcID{0},
		Node:      "node0",
	}
	h, err := NewHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tr.set(0, 2, transport.LinkConnecting)
	res, body := get(t, h, "/healthz")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz status = %d, want 503 (body %s)", res.StatusCode, body)
	}
	var hl Health
	if err := json.Unmarshal([]byte(body), &hl); err != nil {
		t.Fatalf("healthz does not parse: %v", err)
	}
	if hl.Status != "degraded" || hl.Links["p0->p2"] != "connecting" {
		t.Errorf("healthz = %+v, want degraded with p0->p2 connecting", hl)
	}

	tr.set(0, 2, transport.LinkUp)
	res, body = get(t, h, "/healthz")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz status = %d, want 200 (body %s)", res.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &hl); err != nil {
		t.Fatalf("healthz does not parse: %v", err)
	}
	if hl.Status != "ok" || hl.Node != "node0" {
		t.Errorf("healthz = %+v, want ok from node0", hl)
	}
	if _, intra := hl.Links["p0->p0"]; intra {
		t.Error("healthz checks the intra-node link p0->p0")
	}
}

func TestStatusMergesRatesAndAppFields(t *testing.T) {
	reg := metrics.NewRegistry(2)
	sampler := metrics.NewSampler(reg, 0, 8)
	defer sampler.Stop()
	sampler.SampleNow()
	reg.Counters().Record(0, metrics.MsgSent, 10)
	time.Sleep(10 * time.Millisecond)
	sampler.SampleNow()

	cfg := Config{
		Registry: reg,
		Sampler:  sampler,
		Node:     "node0",
		Status: func() map[string]any {
			return map[string]any{"leader": 1, "node": "spoofed"}
		},
	}
	h, err := NewHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, h, "/status")
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status does not parse: %v", err)
	}
	if st["node"] != "node0" {
		t.Errorf("status node = %v: app-level fields must not shadow built-ins", st["node"])
	}
	if st["leader"] != float64(1) {
		t.Errorf("status leader = %v, want 1", st["leader"])
	}
	rates, ok := st["rates_per_sec"].(map[string]any)
	if !ok {
		t.Fatalf("status has no rates_per_sec (body %s)", body)
	}
	if r := rates["msg_sent"].(float64); r <= 0 {
		t.Errorf("msg_sent rate = %v, want > 0", r)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	reg := metrics.NewRegistry(1)
	srv, err := Serve("127.0.0.1:0", Config{Registry: reg, Node: "n"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz over the wire = %d, want 200", res.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Error("GET after Close succeeded, want connection error")
	}
}
