package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/tracemerge"
)

// buildBinary compiles mnmnode into a temp dir so the cluster tests can
// exec real OS processes — this is the one place the repo exercises the
// full multi-process deployment rather than in-process hosts.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mnmnode")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// reserveAddrs picks n free loopback ports by binding and releasing them.
// The tiny window between release and the node binding is an accepted
// test-only race; collisions fail loudly at startup.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// runCluster launches one mnmnode process per id, waits for all of them,
// and returns each node's stdout result line in id order.
func runCluster(t *testing.T, bin string, n int, extra ...string) []string {
	t.Helper()
	addrs := reserveAddrs(t, n)
	outs := make([]string, n)
	var mu sync.Mutex
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			args := append([]string{
				"-id", strconv.Itoa(i),
				"-n", strconv.Itoa(n),
				"-addrs", strings.Join(addrs, ","),
				"-timeout", "90s",
			}, extra...)
			cmd := exec.Command(bin, args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			mu.Lock()
			outs[i] = strings.TrimSpace(stdout.String())
			mu.Unlock()
			if err != nil {
				errs <- fmt.Errorf("node %d: %v\nstderr: %s", i, err, stderr.String())
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// TestProcessesAgreeOnConsensusOverLoopback runs HBO consensus as three
// OS processes over loopback TCP with mixed inputs and checks every
// process prints the same decision.
func TestProcessesAgreeOnConsensusOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildBinary(t)
	outs := runCluster(t, bin, 3,
		"-alg", "hbo", "-inputs", "1,0,1", "-seed", "42", "-linger", "300ms")
	for i, o := range outs {
		if !strings.HasPrefix(o, "decided ") {
			t.Fatalf("node %d printed %q, want a decision line", i, o)
		}
		if o != outs[0] {
			t.Fatalf("agreement violated: node 0 printed %q, node %d printed %q", outs[0], i, o)
		}
	}
}

// TestProcessesAgreeOnLeaderOverLoopback runs the Figure 3+4
// message-notifier leader election as three OS processes and checks they
// all stabilize on one common leader. It deliberately does not pin WHICH
// process wins: the OS can preempt a leader mid-tick for longer than a
// peer's step-counted heartbeat timer, which legitimately bumps that
// process's badness counter and moves the election — Ω promises eventual
// agreement on some correct process, not on the smallest id. Identity
// parity with the in-process transport is asserted in
// internal/rt's TestLeaderElectionOverTCP, where both runs share one
// OS process and such preemption does not occur.
func TestProcessesAgreeOnLeaderOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildBinary(t)
	outs := runCluster(t, bin, 3,
		"-alg", "le-msg", "-stable", "500ms", "-linger", "300ms")
	for i, o := range outs {
		if !strings.HasPrefix(o, "leader p") {
			t.Fatalf("node %d printed %q, want a leader line", i, o)
		}
		if o != outs[0] {
			t.Fatalf("agreement violated: node 0 printed %q, node %d printed %q", outs[0], i, o)
		}
	}
}

// TestShardedMeshOverLoopback boots the multi-tenant deployment: two OS
// processes, each hosting the base leader-election group plus four
// shards (-groups 4) multiplexed over the same connection pair, with
// the span flight recorder on. While the nodes linger it polls /status
// until every shard reports a leader on both nodes, then checks the
// root /metrics renders group-labeled rows (counters and span-latency
// histograms) next to the unlabeled base rows, and merges both nodes'
// /trace dumps into a cluster timeline that crosses the node boundary.
func TestShardedMeshOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildBinary(t)
	addrs := reserveAddrs(t, 2)
	maddrs := reserveAddrs(t, 2)
	outs := make([]string, 2)
	var mu sync.Mutex
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			cmd := exec.Command(bin,
				"-id", strconv.Itoa(i), "-n", "2",
				"-addrs", strings.Join(addrs, ","),
				"-alg", "le-shm", "-stable", "500ms", "-groups", "4",
				"-timeout", "90s", "-linger", "30s",
				"-metrics-addr", maddrs[i],
				"-trace-flight", "8192", "-log-json",
			)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			mu.Lock()
			outs[i] = strings.TrimSpace(stdout.String())
			mu.Unlock()
			if err != nil {
				done <- fmt.Errorf("node %d: %v\nstderr: %s", i, err, stderr.String())
				return
			}
			done <- nil
		}()
	}

	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for i, ma := range maddrs {
		for {
			var st struct {
				Groups map[string]struct {
					Leader string `json:"leader"`
				} `json:"groups"`
			}
			resp, err := client.Get("http://" + ma + "/status")
			if err == nil && resp.StatusCode == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("node %d: /status does not parse: %v", i, err)
				}
				led := 0
				for _, g := range st.Groups {
					if g.Leader != "" {
						led++
					}
				}
				if len(st.Groups) == 4 && led == 4 {
					break
				}
			} else if resp != nil {
				resp.Body.Close()
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("node %d: 4 led shards never appeared in /status", i)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	// Shard counters render next to the base rows in one scrape.
	resp, err := client.Get("http://" + maddrs[0] + "/metrics")
	if err != nil {
		t.Fatalf("prom scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, re := range []string{
		`(?m)^mnm_msg_sent_total\{proc="\d+"\} \d+$`,
		`(?m)^mnm_msg_sent_total\{group="group-\d+",proc="\d+"\} \d+$`,
		`(?m)^mnm_span_(read|write|cas|send|recv|serve)_seconds_count\{group="group-\d+"\} \d+$`,
	} {
		if !regexp.MustCompile(re).Match(body) {
			t.Errorf("prom exposition lacks %s rows:\n%.400s", re, body)
		}
	}
	// Both nodes' flight recorders scrape over /trace; merged, they must
	// reconstruct at least one trace that crossed the node boundary (the
	// shards' remote register ops guarantee a steady supply).
	var dumps bytes.Buffer
	for i, ma := range maddrs {
		resp, err := client.Get("http://" + ma + "/trace")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: /trace scrape: err=%v resp=%v", i, err, resp)
		}
		if _, err := io.Copy(&dumps, resp.Body); err != nil {
			t.Fatalf("node %d: reading /trace: %v", i, err)
		}
		resp.Body.Close()
	}
	cluster, err := tracemerge.Read(&dumps)
	if err != nil {
		t.Fatalf("merging /trace dumps: %v", err)
	}
	if len(cluster.Metas) != 2 {
		t.Fatalf("merged %d flight headers, want one per node", len(cluster.Metas))
	}
	crossNode := 0
	for _, tr := range cluster.Traces {
		if len(tr.Nodes()) == 2 {
			crossNode++
		}
	}
	if crossNode == 0 {
		t.Errorf("no trace in the merged dumps crosses the node boundary (%d traces total)", len(cluster.Traces))
	}

	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Only the line's shape is asserted, not cross-node identity: four
	// shard leaders loop without parking next to the base group's, so a
	// single-CPU box oversubscribes hard enough that each node's
	// independent 500ms stability window can close on a different
	// transient leader. The
	// agreement property itself is pinned by
	// TestProcessesAgreeOnLeaderOverLoopback, which runs without shards.
	for i, o := range outs {
		if !strings.HasPrefix(o, "leader p") {
			t.Fatalf("node %d printed %q, want a leader line", i, o)
		}
	}
}

// TestMetricsPlaneOverLoopback runs a three-process consensus cluster with
// the observability plane enabled and scrapes it while the nodes linger:
// /metrics must serve both exposition formats, /healthz must report ok
// once the mesh is up, watch mode must render a cluster table over the
// same endpoints. (Trace dumps are covered by TestShardedMeshOverLoopback,
// which merges the nodes' /trace span dumps.)
func TestMetricsPlaneOverLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	bin := buildBinary(t)
	addrs := reserveAddrs(t, 3)
	maddrs := reserveAddrs(t, 3)
	outs := make([]string, 3)
	var mu sync.Mutex
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			cmd := exec.Command(bin,
				"-id", strconv.Itoa(i), "-n", "3",
				"-addrs", strings.Join(addrs, ","),
				"-alg", "hbo", "-inputs", "1,0,1", "-seed", "7",
				"-timeout", "90s", "-linger", "15s",
				"-metrics-addr", maddrs[i],
				"-sample-interval", "200ms",
			)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			mu.Lock()
			outs[i] = strings.TrimSpace(stdout.String())
			mu.Unlock()
			if err != nil {
				done <- fmt.Errorf("node %d: %v\nstderr: %s", i, err, stderr.String())
				return
			}
			done <- nil
		}()
	}

	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	promRe := regexp.MustCompile(`(?m)^mnm_msg_sent_total\{proc="\d+"\} \d+$`)
	for i, ma := range maddrs {
		// JSON export, retried until the node's plane is listening.
		var doc metrics.ExportJSON
		for {
			resp, err := client.Get("http://" + ma + "/metrics?format=json")
			if err == nil && resp.StatusCode == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("node %d: json metrics do not parse: %v", i, err)
				}
				break
			}
			if resp != nil {
				resp.Body.Close()
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("node %d: metrics endpoint %s never came up", i, ma)
			}
			time.Sleep(50 * time.Millisecond)
		}
		if _, ok := doc.Counters["msg_sent"]; !ok {
			t.Errorf("node %d: json export lacks msg_sent", i)
		}
		// Prometheus text exposition.
		resp, err := client.Get("http://" + ma + "/metrics")
		if err != nil {
			t.Fatalf("node %d: prom scrape: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !promRe.Match(body) {
			t.Errorf("node %d: prom exposition lacks mnm_msg_sent_total samples:\n%.400s", i, body)
		}
	}
	// /healthz flips to ok once the node's outbound mesh is up.
	for fetchHealth(client, maddrs[0]) != "ok" {
		if !time.Now().Before(deadline) {
			t.Fatal("node 0: /healthz never reported ok")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Watch mode renders a table over the live endpoints (two refreshes:
	// the second has a previous poll to difference against).
	var table bytes.Buffer
	if code := runWatch(maddrs, 200*time.Millisecond, 2, &table); code != 0 {
		t.Fatalf("runWatch exit = %d", code)
	}
	if !strings.Contains(table.String(), "NODE") || !strings.Contains(table.String(), maddrs[0]) {
		t.Errorf("watch table lacks header or node rows:\n%s", table.String())
	}

	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i, o := range outs {
		if !strings.HasPrefix(o, "decided ") || o != outs[0] {
			t.Fatalf("node %d printed %q (node 0: %q)", i, o, outs[0])
		}
	}
}
