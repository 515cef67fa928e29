package mnm_test

import (
	"math/rand"
	"testing"

	"github.com/mnm-model/mnm"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSolveConsensusQuickstart(t *testing.T) {
	g := mnm.CompleteGraph(5)
	inputs := []mnm.ConsensusValue{mnm.V1, mnm.V1, mnm.V1, mnm.V1, mnm.V1}
	v, err := mnm.SolveConsensus(g, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != mnm.V1 {
		t.Errorf("unanimous run decided %v", v)
	}
}

func TestSolveConsensusBeyondMinority(t *testing.T) {
	g := mnm.CompleteGraph(7)
	inputs := make([]mnm.ConsensusValue, 7)
	for i := range inputs {
		inputs[i] = mnm.ConsensusValue(i % 2)
	}
	crashes := []mnm.Crash{{Proc: 0}, {Proc: 1}, {Proc: 2}, {Proc: 3}, {Proc: 4}}
	v, err := mnm.SolveConsensus(g, inputs, 3, crashes...)
	if err != nil {
		t.Fatal(err)
	}
	if v != mnm.V0 && v != mnm.V1 {
		t.Errorf("decided %v", v)
	}
}

func TestSolveConsensusReportsStall(t *testing.T) {
	// Edgeless graph with a crashed majority cannot decide; the helper
	// must report the stall rather than hang (bounded budget) or lie.
	g := mnm.EdgelessGraph(5)
	inputs := make([]mnm.ConsensusValue, 5)
	crashes := []mnm.Crash{{Proc: 0}, {Proc: 1}, {Proc: 2}}
	r, err := mnm.NewSim(mnm.SimConfig{
		RunConfig: mnm.RunConfig{GSM: g, Seed: 1},
		Crashes:   crashes,
		MaxSteps:  50_000,
		StopWhen:  mnm.AllDecided(mnm.HBODecisionKey),
	}, mnm.NewHBO(mnm.HBOConfig{Inputs: inputs}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped {
		t.Error("decided without a represented majority")
	}
}

func TestElectLeaderBothNotifiers(t *testing.T) {
	for _, kind := range []mnm.NotifierKind{mnm.MessageNotifier, mnm.SharedMemoryNotifier} {
		l, err := mnm.ElectLeader(4, kind, 2, 5)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if l == mnm.NoProc {
			t.Fatalf("%v: no leader", kind)
		}
	}
}

func TestFaultToleranceBoundFacade(t *testing.T) {
	h, _, err := mnm.PetersenGraph().ExactExpansion()
	if err != nil {
		t.Fatal(err)
	}
	if got := mnm.FaultToleranceBound(10, h); got != 7 {
		t.Errorf("Petersen bound = %d, want 7", got)
	}
}

func TestGraphConstructorsExposed(t *testing.T) {
	if mnm.Figure1Graph().N() != 5 {
		t.Error("Figure1Graph wrong size")
	}
	if mnm.MargulisGraph(4).N() != 16 {
		t.Error("MargulisGraph wrong size")
	}
	g, err := mnm.RandomRegularGraph(10, 3, testRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if reg, d := g.IsRegular(); !reg || d != 3 {
		t.Error("RandomRegularGraph not 3-regular")
	}
}

func TestCustomAlgorithmThroughFacade(t *testing.T) {
	// Users can write their own m&m algorithms against the public Env.
	alg := mnm.AlgorithmFunc(func(id mnm.ProcID) mnm.Process {
		return func(env mnm.Env) error {
			if err := env.Write(mnm.Ref{Owner: env.ID(), Name: "x"}, int(env.ID())); err != nil {
				return err
			}
			if err := env.Broadcast("hi"); err != nil {
				return err
			}
			env.Expose("ok", true)
			return nil
		}
	})
	r, err := mnm.NewSim(mnm.SimConfig{RunConfig: mnm.RunConfig{GSM: mnm.CompleteGraph(3)}}, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Halted) != 3 || len(res.Errors) != 0 {
		t.Fatalf("halted=%v errors=%v", res.Halted, res.Errors)
	}
	for p := mnm.ProcID(0); p < 3; p++ {
		if r.Exposed(p, "ok") != true {
			t.Errorf("process %v not ok", p)
		}
	}
}

func TestRTGroupThroughFacade(t *testing.T) {
	inputs := []mnm.ConsensusValue{mnm.V0, mnm.V1, mnm.V0}
	nd, err := mnm.NewRTNode(mnm.RTNodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	h, err := nd.OpenGroup(0, mnm.RTGroupConfig{RunConfig: mnm.RunConfig{GSM: mnm.CompleteGraph(3), Seed: 2}},
		mnm.NewHBO(mnm.HBOConfig{Inputs: inputs, HaltAfterDecide: true}))
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	errs := h.Wait().Errors
	for p, e := range errs {
		t.Fatalf("process %v: %v", p, e)
	}
	var agreed *mnm.ConsensusValue
	for p := mnm.ProcID(0); p < 3; p++ {
		v, ok := h.Exposed(p, mnm.HBODecisionKey).(mnm.ConsensusValue)
		if !ok {
			t.Fatalf("process %v undecided", p)
		}
		if agreed == nil {
			agreed = &v
		} else if *agreed != v {
			t.Fatalf("disagreement %v vs %v", *agreed, v)
		}
	}
}
