// Command mnmnode runs ONE process of an m&m system as one OS process,
// communicating with its peers over TCP: messages travel as compact
// binary frames through internal/transport/tcp (payloads through the
// generated codecs of internal/wire), and shared registers owned by
// remote processes are reached through the same transport's RPC plane.
// Launching n mnmnode processes with the same -addrs table yields the
// paper's model over real sockets. With -tls-cert/-tls-key (and
// optionally -tls-ca) every inter-node connection is wrapped in TLS.
//
// Usage (three shells, or one script):
//
//	mnmnode -id 0 -n 3 -addrs 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402 -alg hbo -inputs 1,0,1
//	mnmnode -id 1 -n 3 -addrs ... -alg hbo -inputs 1,0,1
//	mnmnode -id 2 -n 3 -addrs ... -alg hbo -inputs 1,0,1
//
// Each node prints one result line to stdout:
//
//	decided 1                 (consensus)
//	leader p0                 (leader election, once stable for -stable)
//	committed 6 9a3c…         (replicated log: applied count + chain hash)
//
// With -durable -data-dir DIR the node runs in crash-recovery mode: every
// write to a register it owns and every unacknowledged transport frame is
// journaled (fsync'd) under DIR/node-<id>/ before it takes effect, and a
// restarted node — kill -9 included — recovers the registers, the
// retransmission queue, and its duplicate-filter marks before serving
// peers. Pair it with -alg rsm (a leader-sequenced replicated log striped
// over the shared registers, -cmds commands per process) to watch a log
// prefix survive a crash: restart the killed node with the same flags and
// both incarnations print identical "committed" lines.
//
// With -metrics-addr each node additionally serves its observability
// plane over HTTP (/metrics, /healthz, /status, /trace, /debug/pprof;
// see internal/obs), and `mnmnode -watch -addrs <metrics endpoints>`
// turns the binary into a read-only poller printing a cluster rate
// table — the steady state of Theorem 5.1 reads as zeros in the MSG/S
// column while register operations keep flowing. With -trace-flight N the
// node records the last N node-local and the last N cross-node spans of
// its operations (sends, remote register RPCs, serves) into a flight
// recorder served at /trace; merge the per-node dumps with cmd/mnmtrace
// into one causally ordered cluster timeline.
//
// Diagnostics go to stderr through log/slog: -log-level picks the
// threshold (debug|info|warn|error; -v is shorthand for debug, which
// includes connection lifecycle events), -log-json switches the text
// handler for JSON lines.
//
// With -groups N the node is multi-tenant: besides the run itself
// (group 0) it opens N leader-election groups (shards 1..N), all
// multiplexed over the same TCP connections through the node's
// transport (see DESIGN.md §4.3.3). Each group elects independently;
// /status grows a "groups" map with one entry per shard and /metrics
// renders each shard's counters with a group label.
//
// A remote register op has no timeout: like a register of the model it
// does not fail because its owner is slow, restarting or shut down, and
// waits for the answer until the node itself stops.
package main

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/directory"
	"github.com/mnm-model/mnm/internal/durable"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/hbo"
	"github.com/mnm-model/mnm/internal/leader"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/obs"
	"github.com/mnm-model/mnm/internal/rsm"
	"github.com/mnm-model/mnm/internal/rt"
	"github.com/mnm-model/mnm/internal/trace"
	"github.com/mnm-model/mnm/internal/transport"
	"github.com/mnm-model/mnm/internal/transport/tcp"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		id      = flag.Int("id", 0, "this node's process id (0..n-1)")
		n       = flag.Int("n", 3, "system size")
		addrs   = flag.String("addrs", "", "comma-separated host:port of every process, index = id (required)")
		alg     = flag.String("alg", "hbo", "algorithm: hbo | le-msg | le-shm | rsm")
		cmds    = flag.Int("cmds", 2, "commands each process submits to the replicated log (-alg rsm)")
		seed    = flag.Int64("seed", 1, "run seed")
		inputs  = flag.String("inputs", "", "comma-separated 0/1 proposals for hbo (one per process)")
		stable  = flag.Duration("stable", 2*time.Second, "how long a leader must hold before it is reported")
		timeout = flag.Duration("timeout", 60*time.Second, "overall deadline")
		linger  = flag.Duration("linger", time.Second, "how long to keep serving peers after finishing")
		verbose = flag.Bool("v", false, "shorthand for -log-level debug (connection lifecycle events)")
		groups  = flag.Int("groups", 0, "additional leader-election groups (shards 1..N) multiplexed over the same mesh")

		logLevel = flag.String("log-level", "info", "stderr log threshold: debug | info | warn | error")
		logJSON  = flag.Bool("log-json", false, "emit stderr logs as JSON lines instead of text")

		metricsAddr = flag.String("metrics-addr", "", "host:port serving /metrics, /healthz and /status (empty disables)")
		sampleEvery = flag.Duration("sample-interval", time.Second, "registry sampling interval behind /status rates")
		flightN     = flag.Int("trace-flight", 0, "span flight recorder capacity, per ring: node-local and cross-node spans (0 disables span tracing)")
		flightS     = flag.Int("trace-sample", 1, "head-sample 1 of every M traces in the flight recorder")
		watch       = flag.Bool("watch", false, "watch mode: poll the /metrics endpoints in -addrs and print a cluster rate table")
		watchEvery  = flag.Duration("watch-interval", time.Second, "polling interval in -watch mode")
		watchCount  = flag.Int("watch-count", 0, "table refreshes in -watch mode (0 = until interrupted)")

		durableF = flag.Bool("durable", false, "journal owned registers and unacked frames to -data-dir; a restart recovers them (crash-recovery mode)")
		dataDir  = flag.String("data-dir", "", "directory for -durable state (a node-<id> subdirectory per node)")

		tlsCert = flag.String("tls-cert", "", "PEM certificate presented to peers (enables TLS; requires -tls-key)")
		tlsKey  = flag.String("tls-key", "", "PEM private key for -tls-cert")
		tlsCA   = flag.String("tls-ca", "", "PEM bundle of roots trusted when dialing peers (default: system roots)")
	)
	flag.Parse()

	if *watch {
		if *addrs == "" {
			fmt.Fprintln(os.Stderr, "mnmnode: -watch requires -addrs listing peer metrics endpoints")
			return 2
		}
		return runWatch(strings.Split(*addrs, ","), *watchEvery, *watchCount, os.Stdout)
	}

	addrList := strings.Split(*addrs, ",")
	if *addrs == "" || len(addrList) != *n {
		fmt.Fprintf(os.Stderr, "mnmnode: -addrs must list exactly n=%d addresses\n", *n)
		return 2
	}
	if *id < 0 || *id >= *n {
		fmt.Fprintf(os.Stderr, "mnmnode: -id %d out of range [0,%d)\n", *id, *n)
		return 2
	}
	self := core.ProcID(*id)

	logger, err := buildLogger(*logLevel, *logJSON, *verbose, *id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
		return 2
	}
	// The runtime and transport speak Logf; the shim routes their
	// lifecycle diagnostics to slog at debug (they are chatty by design —
	// raise to -log-level debug to see them).
	logf := func(format string, args ...any) {
		logger.Debug(fmt.Sprintf(format, args...))
	}

	tlsCfg, err := buildTLS(*tlsCert, *tlsKey, *tlsCA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
		return 1
	}

	// The registry exists before the transport so the frame WAL's fsync
	// histogram lands in the same schema /metrics serves.
	reg := metrics.NewRegistry(*n)
	var nodeDir string
	tcpCfg := tcp.Config{
		ListenAddr: addrList[*id],
		Registry:   reg,
		Logf:       logf,
		TLS:        tlsCfg,
	}
	if *durableF {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "mnmnode: -durable requires -data-dir")
			return 2
		}
		nodeDir = filepath.Join(*dataDir, fmt.Sprintf("node-%d", *id))
		tcpCfg.Durability = &tcp.Durability{Dir: filepath.Join(nodeDir, "transport")}
	}
	tr, err := tcp.New(tcpCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
		return 1
	}
	var durStore *durable.Registers
	if *durableF {
		durStore, err = durable.OpenRegisters(filepath.Join(nodeDir, "registers"), durable.RegistersOptions{Registry: reg})
		if err != nil {
			tr.Close()
			fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
			return 1
		}
		if n := len(durStore.Recovered()); n > 0 {
			logger.Info("recovered durable state", "registers", n, "dir", nodeDir)
		}
	}

	var flight *trace.Flight
	if *flightN > 0 {
		flight = trace.NewFlight(addrList[*id], *flightN, *flightS)
	}
	// The node owns the transport; every group — the run's group 0 and
	// the -groups shards — is opened through it, and node.Close is the
	// one drain.
	node, err := rt.NewNode(rt.NodeConfig{
		Transport: tr,
		Directory: directory.Uniform{Addrs: addrList},
		Registry:  reg,
		Flight:    flight,
		Logf:      logf,
	})
	if err != nil {
		tr.Close()
		if durStore != nil {
			durStore.Close()
		}
		fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
		return 1
	}
	defer node.Close()

	var algo core.Algorithm
	var finish func(h *rt.Group, deadline time.Time) (string, error)
	switch *alg {
	case "hbo":
		vals, err := parseInputs(*inputs, *n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
			return 2
		}
		algo = hbo.New(hbo.Config{Inputs: vals, HaltAfterDecide: true})
		finish = func(h *rt.Group, deadline time.Time) (string, error) {
			v, err := awaitExposed(h, self, hbo.DecisionKey, deadline)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("decided %d", v.(benor.Val)), nil
		}
	case "le-msg", "le-shm":
		kind := leader.MessageNotifier
		if *alg == "le-shm" {
			kind = leader.SharedMemoryNotifier
		}
		algo = leader.New(leader.Config{Notifier: kind})
		window := *stable
		finish = func(h *rt.Group, deadline time.Time) (string, error) {
			l, err := awaitStableLeader(h, self, window, deadline)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("leader %v", l), nil
		}
	case "rsm":
		// Crash-recovery replication with shared-memory leader
		// notification (no extra message load). A read of a register whose
		// owner is down for a restart waits for it to come back.
		algo = rsm.New(rsm.Config{
			CommandsPerProcess: *cmds,
			Leader:             leader.Config{Notifier: leader.SharedMemoryNotifier},
		})
		total := *n * *cmds
		finish = func(h *rt.Group, deadline time.Time) (string, error) {
			return awaitRSM(h, self, total, deadline)
		}
	default:
		fmt.Fprintf(os.Stderr, "mnmnode: unknown -alg %q\n", *alg)
		return 2
	}

	// Group 0 meters into the root registry, so /metrics and /status show
	// the run's rows unlabeled; the shards get group-labeled sub-registries.
	h, err := node.OpenGroup(0, rt.GroupConfig{
		RunConfig: rt.RunConfig{GSM: graph.Complete(*n), Seed: *seed, Logf: logf},
		Registry:  reg,
		Durable:   durStore,
	}, algo)
	if err != nil {
		if durStore != nil {
			durStore.Close()
		}
		fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
		return 1
	}
	isLE := strings.HasPrefix(*alg, "le-")
	if *metricsAddr != "" {
		sampler := metrics.NewSampler(reg, *sampleEvery, 600)
		sampler.Start()
		defer sampler.Stop()
		srv, err := obs.Serve(*metricsAddr, obs.Config{
			Registry:  reg,
			Sampler:   sampler,
			Transport: h.Transport(),
			Hosted:    []core.ProcID{self},
			Node:      addrList[*id],
			Flight:    flight,
			Status: func() map[string]any {
				st := map[string]any{"alg": *alg}
				if isLE {
					if v, ok := h.Exposed(self, leader.LeaderKey).(core.ProcID); ok && v != core.NoProc {
						st["leader"] = fmt.Sprintf("%v", v)
					}
				}
				if *alg == "rsm" {
					if v, ok := h.Exposed(self, rsm.AppliedKey).(int); ok {
						st["applied"] = v
					}
					if v, ok := h.Exposed(self, rsm.HashKey).(uint64); ok {
						st["hash"] = fmt.Sprintf("%016x", v)
					}
					if v, ok := h.Exposed(self, rsm.DoneKey).(bool); ok {
						st["done"] = v
					}
				}
				if *groups > 0 {
					st["groups"] = groupStatus(node, self)
				}
				return st
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
			return 1
		}
		defer srv.Close()
		logger.Info("observability plane up", "url", "http://"+srv.Addr())
	}
	if isLE {
		stopMon := make(chan struct{})
		defer close(stopMon)
		go monitorLeader(h, self, reg.Counters(), stopMon)
	}
	deadline := time.Now().Add(*timeout)
	if err := waitMesh(h.Transport(), self, *n, deadline); err != nil {
		fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
		return 1
	}
	h.Start()
	// Multi-tenant plane: shards 1..*groups share the node's connections,
	// opened once the mesh is up.
	for gid := 1; gid <= *groups; gid++ {
		g, err := node.OpenGroup(transport.GroupID(gid), rt.GroupConfig{
			RunConfig: rt.RunConfig{GSM: graph.Complete(*n), Seed: *seed ^ int64(gid)<<16, Logf: logf},
		}, leader.New(leader.Config{Notifier: leader.SharedMemoryNotifier}))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mnmnode: group %d: %v\n", gid, err)
			return 1
		}
		g.Start()
	}
	if *groups > 0 {
		logger.Info("opened groups over the shared mesh", "groups", *groups)
	}
	line, err := finish(h, deadline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mnmnode: %v\n", err)
		return 1
	}
	fmt.Println(line)
	// Keep serving register reads and retransmissions for peers that have
	// not finished yet, then stop every group and drain (node.Close).
	time.Sleep(*linger)
	node.Close()
	res := h.Stop()
	for p, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "mnmnode: process %v: %v\n", p, e)
		return 1
	}
	logger.Debug("done", "steps", res.Steps, "elapsed", res.Elapsed.Round(time.Millisecond))
	return 0
}

// buildLogger assembles the stderr slog logger from the -log-level,
// -log-json and -v flags; every record carries the node id.
func buildLogger(level string, jsonOut, verbose bool, id int) (*slog.Logger, error) {
	if verbose {
		level = "debug"
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h).With("node", id), nil
}

// groupStatus renders one /status entry per open shard (every group but
// the run's own group 0, whose outputs are the top-level fields): the
// leader this node's process has adopted (once there is one) and the
// group's message totals, so a scrape shows every shard settling into the
// Theorem 5.1 steady state (leader present, msgs_sent flat).
func groupStatus(node *rt.Node, self core.ProcID) map[string]any {
	out := make(map[string]any)
	for _, gid := range node.Groups() {
		g := node.Group(gid)
		if gid == 0 || g == nil {
			continue
		}
		ent := map[string]any{}
		if v, ok := g.Exposed(self, leader.LeaderKey).(core.ProcID); ok && v != core.NoProc {
			ent["leader"] = fmt.Sprintf("%v", v)
		}
		snap := g.Counters().Snapshot(0)
		ent["msgs_sent"] = snap.Total(metrics.MsgSent)
		ent["msgs_delivered"] = snap.Total(metrics.MsgDelivered)
		out[fmt.Sprintf("%d", gid)] = ent
	}
	return out
}

// monitorLeader polls the node's exposed leader output and meters every
// adoption of a new leader as a LeaderChanges event, so election churn is
// visible on the metrics plane (a clean run settles at 1).
func monitorLeader(h *rt.Group, self core.ProcID, c *metrics.Counters, stop <-chan struct{}) {
	cur := core.NoProc
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		v, ok := h.Exposed(self, leader.LeaderKey).(core.ProcID)
		if !ok || v == core.NoProc || v == cur {
			continue
		}
		cur = v
		c.Record(self, metrics.LeaderChanges, 1)
	}
}

// waitMesh blocks until this node's outbound link to every peer is up.
// Starting earlier is legal — sends queue and retransmit — but the
// step-counted heartbeat timers of the leader detector assume comparable
// step rates, and a process stalled in connect backoff mid-step looks
// exactly like a crashed leader to an already-connected peer.
func waitMesh(tr transport.Transport, self core.ProcID, n int, deadline time.Time) error {
	for q := 0; q < n; q++ {
		p := core.ProcID(q)
		if p == self {
			continue
		}
		for tr.LinkState(self, p) != transport.LinkUp {
			if !time.Now().Before(deadline) {
				return fmt.Errorf("link to process %v not up before deadline", p)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// parseInputs parses the -inputs list into benor values.
func parseInputs(s string, n int) ([]benor.Val, error) {
	if s == "" {
		return nil, fmt.Errorf("-inputs is required for hbo")
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-inputs has %d values, want n=%d", len(parts), n)
	}
	out := make([]benor.Val, n)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || (v != 0 && v != 1) {
			return nil, fmt.Errorf("-inputs[%d] = %q, want 0 or 1", i, p)
		}
		out[i] = benor.Val(v)
	}
	return out, nil
}

// awaitExposed polls until process p exposes key, or the deadline passes.
func awaitExposed(h *rt.Group, p core.ProcID, key string, deadline time.Time) (core.Value, error) {
	for time.Now().Before(deadline) {
		if v := h.Exposed(p, key); v != nil {
			return v, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("timed out waiting for %q", key)
}

// awaitRSM polls the replica's exposed outputs until its own commands all
// committed, the applied log covers every process's commands, and the
// (applied, hash) pair has been still for half a second — the hash chain
// over a settled log is the cross-node agreement check, so the line is
// printed only once it can no longer move.
func awaitRSM(h *rt.Group, p core.ProcID, total int, deadline time.Time) (string, error) {
	lastApplied, lastHash := -1, uint64(0)
	var since time.Time
	for time.Now().Before(deadline) {
		applied, _ := h.Exposed(p, rsm.AppliedKey).(int)
		hash, _ := h.Exposed(p, rsm.HashKey).(uint64)
		done, _ := h.Exposed(p, rsm.DoneKey).(bool)
		if applied != lastApplied || hash != lastHash {
			lastApplied, lastHash, since = applied, hash, time.Now()
		}
		if done && applied >= total && time.Since(since) >= 500*time.Millisecond {
			return fmt.Sprintf("committed %d %016x", applied, hash), nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", fmt.Errorf("timed out waiting for the replicated log (applied %d of %d)", lastApplied, total)
}

// awaitStableLeader polls process p's leader output until it has held one
// non-⊥ value for window, or the deadline passes.
func awaitStableLeader(h *rt.Group, p core.ProcID, window time.Duration, deadline time.Time) (core.ProcID, error) {
	cur := core.NoProc
	var since time.Time
	for time.Now().Before(deadline) {
		l := core.NoProc
		if v, ok := h.Exposed(p, leader.LeaderKey).(core.ProcID); ok {
			l = v
		}
		if l != cur {
			cur, since = l, time.Now()
		}
		if cur != core.NoProc && time.Since(since) >= window {
			return cur, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return core.NoProc, fmt.Errorf("timed out waiting for a stable leader (last %v)", cur)
}

// buildTLS assembles the transport TLS configuration from the -tls-*
// flags: nil when TLS is off, an error when the flag set is incoherent
// (every node both serves and dials, so a certificate is mandatory the
// moment TLS is on).
func buildTLS(certFile, keyFile, caFile string) (*tls.Config, error) {
	if certFile == "" && keyFile == "" && caFile == "" {
		return nil, nil
	}
	if certFile == "" || keyFile == "" {
		return nil, fmt.Errorf("TLS needs both -tls-cert and -tls-key (every node serves its peers)")
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("loading TLS key pair: %w", err)
	}
	cfg := &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	if caFile != "" {
		pem, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("reading -tls-ca: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("-tls-ca %s holds no usable PEM certificates", caFile)
		}
		cfg.RootCAs = pool
	}
	return cfg, nil
}
