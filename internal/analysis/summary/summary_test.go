package summary_test

import (
	"go/types"
	"strings"
	"testing"

	"github.com/mnm-model/mnm/internal/analysis/loader"
	"github.com/mnm-model/mnm/internal/analysis/summary"
)

func build(t *testing.T) *summary.Set {
	t.Helper()
	pkg, err := loader.LoadDir("../testdata/engine")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	return summary.Build([]*loader.Package{pkg})
}

func fnByName(t *testing.T, s *summary.Set, name string) *types.Func {
	t.Helper()
	for fn := range s.Graph.Nodes {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("no function %q in graph", name)
	return nil
}

func TestRecursionFixpoint(t *testing.T) {
	s := build(t)
	for _, name := range []string{"wait", "pong", "ping"} {
		if eff := s.Effects(fnByName(t, s, name)); !eff.Has(summary.Blocks) {
			t.Errorf("%s: blocking effect lost through recursion (effects %v)", name, eff)
		}
	}
	if eff := s.DirectEffects(fnByName(t, s, "ping")); eff.Has(summary.Blocks) {
		t.Errorf("ping: blocking effect is transitive, not direct (direct %v)", eff)
	}
}

func TestMethodValuePropagates(t *testing.T) {
	s := build(t)
	if eff := s.Effects(fnByName(t, s, "methodValue")); !eff.Has(summary.Blocks) {
		t.Errorf("methodValue: effect of the captured method lost (effects %v)", eff)
	}
}

func TestDeferredCallPropagates(t *testing.T) {
	s := build(t)
	fn := fnByName(t, s, "deferred")
	if eff := s.Effects(fn); !eff.Has(summary.Blocks) {
		t.Errorf("deferred: deferred call's effect lost (effects %v)", eff)
	}
}

func TestGoDoesNotPropagate(t *testing.T) {
	s := build(t)
	if eff := s.Effects(fnByName(t, s, "spawns")); eff.Has(summary.Blocks) {
		t.Errorf("spawns: go'd call wrongly counted as synchronous blocking (effects %v)", eff)
	}
}

func TestLockEdgeSurvivesEarlyExitGuard(t *testing.T) {
	s := build(t)
	found := false
	for _, e := range s.LockEdges() {
		if e.Fn.Name() == "nest" && strings.HasSuffix(e.Held, "outer.mu") && strings.HasSuffix(e.Acquired, "inner.mu") {
			found = true
		}
		if strings.HasSuffix(e.Held, "inner.mu") {
			t.Errorf("spurious edge with inner.mu held: %v -> %v", e.Held, e.Acquired)
		}
	}
	if !found {
		t.Errorf("outer.mu -> inner.mu edge missing: the early-exit unlock guard blinded the replay (edges %v)", s.LockEdges())
	}
}

func TestGoArgumentsRunUnderTheLock(t *testing.T) {
	s := build(t)
	found := false
	for _, e := range s.LockEdges() {
		switch e.Fn.Name() {
		case "spawnWithArg":
			found = found || e.Via != nil && e.Via.Name() == "size" &&
				strings.HasSuffix(e.Held, "outer.mu") && strings.HasSuffix(e.Acquired, "inner.mu")
		case "spawnLiteral":
			t.Errorf("spawnLiteral: go'd literal replayed under the spawner's lock: %v -> %v", e.Held, e.Acquired)
		}
	}
	if !found {
		t.Errorf("spawnWithArg: outer.mu -> inner.mu edge through the go'd call's argument missing (edges %v)", s.LockEdges())
	}
}

// hasEdge reports whether s holds a held→acquired edge from a function
// named fn through a call of via.
func hasEdge(s *summary.Set, fn, via, held, acquired string) bool {
	for _, e := range s.LockEdges() {
		if e.Fn.Name() == fn && e.Via != nil && e.Via.Name() == via &&
			strings.HasSuffix(e.Held, held) && strings.HasSuffix(e.Acquired, acquired) {
			return true
		}
	}
	return false
}

func TestGenericMethodCallResolves(t *testing.T) {
	if s := build(t); !hasEdge(s, "fill", "put", "outer.mu", "box.mu") {
		t.Errorf("fill: outer.mu -> box.mu edge through the instantiated put missing (edges %v)", s.LockEdges())
	}
}

// TestCrossPackageCallResolves loads two packages of this module, each
// type-checked on its own: the tcp receive lock held across a push into
// a queue.Mailbox, a method of a generic type declared in the other
// package, must still give the edge peer.recvMu -> queue.Mailbox.mu.
func TestCrossPackageCallResolves(t *testing.T) {
	pkgs, err := loader.Load("../../..", "./internal/queue", "./internal/transport/tcp")
	if err != nil {
		t.Fatal(err)
	}
	if s := summary.Build(pkgs); !hasEdge(s, "deliverRun", "deliver", "tcp.peer.recvMu", "queue.Mailbox.mu") {
		t.Errorf("deliverRun: peer.recvMu -> queue.Mailbox.mu edge missing (edges %v)", s.LockEdges())
	}
}
