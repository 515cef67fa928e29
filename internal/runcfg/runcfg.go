// Package runcfg holds the host-independent half of a run's
// configuration: the fields that mean the same thing whether an algorithm
// executes under the deterministic simulator (internal/sim) or the
// real-time host (internal/rt).
//
// Both sim.Config and rt.GroupConfig embed RunConfig, so the shared knobs
// are declared once and promoted field access (cfg.GSM, cfg.Seed, ...)
// keeps working at every call site. Composite literals name the embedded
// struct explicitly:
//
//	sim.Config{RunConfig: sim.RunConfig{GSM: g, Seed: 1}, MaxSteps: 100}
//
// Observability is host-specific and lives on each host's config: the
// simulator takes Counters and a trace.Recorder, a real-time group a
// metrics.Registry (and its node a trace.Flight).
//
// (Each host package re-exports the type under an alias — sim.RunConfig,
// rt.RunConfig, mnm.RunConfig — so callers never import runcfg directly.)
package runcfg

import (
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/msgnet"
)

// RunConfig is the configuration shared by every m&m host.
type RunConfig struct {
	// GSM is the shared-memory graph; its vertex count is the system
	// size n. Required.
	GSM *graph.Graph
	// Links selects reliable or fair-lossy links. Defaults to reliable.
	Links msgnet.LinkKind
	// Drop is the fair-loss drop policy (fair-lossy links only).
	Drop msgnet.DropPolicy
	// Seed derives all per-process randomness. Simulated runs with equal
	// configurations and seeds are identical; real-time runs reuse the
	// same per-process sources but interleave nondeterministically.
	Seed int64
	// Logf, if non-nil, receives core.Env.Logf trace lines.
	Logf func(format string, args ...any)
}
