package mnm_test

import (
	"fmt"
	"time"

	"github.com/mnm-model/mnm"
)

// ExampleSolveConsensus runs HBO on a complete shared-memory graph: with
// unanimous inputs the decision is the common value, regardless of seed.
func ExampleSolveConsensus() {
	gsm := mnm.CompleteGraph(5)
	inputs := []mnm.ConsensusValue{mnm.V1, mnm.V1, mnm.V1, mnm.V1, mnm.V1}

	v, err := mnm.SolveConsensus(gsm, inputs, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("decided:", v)
	// Output: decided: 1
}

// ExampleSolveConsensus_beyondMinority shows the paper's headline: on a
// complete G_SM, consensus decides even after a majority of processes
// crashed — impossible with message passing alone.
func ExampleSolveConsensus_beyondMinority() {
	gsm := mnm.CompleteGraph(7)
	inputs := []mnm.ConsensusValue{
		mnm.V0, mnm.V0, mnm.V0, mnm.V0, mnm.V0, mnm.V0, mnm.V0,
	}
	crashes := []mnm.Crash{{Proc: 0}, {Proc: 1}, {Proc: 2}, {Proc: 3}, {Proc: 4}}

	v, err := mnm.SolveConsensus(gsm, inputs, 42, crashes...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("decided %v with 5 of 7 processes crashed\n", v)
	// Output: decided 0 with 5 of 7 processes crashed
}

// ExampleElectLeader elects an eventual leader (Ω) assuming only that one
// process — here p2 — is timely; everyone else and every link may be
// arbitrarily asynchronous.
func ExampleElectLeader() {
	leader, err := mnm.ElectLeader(4, mnm.MessageNotifier, 2, 5)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("stable leader:", leader)
	// Output: stable leader: p0
}

// ExampleFaultToleranceBound evaluates Theorem 4.3 for the Petersen graph:
// with exact vertex expansion h = 4/5, HBO tolerates up to 7 of 10 crashes.
func ExampleFaultToleranceBound() {
	g := mnm.PetersenGraph()
	h, _, err := g.ExactExpansion()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("h(G) = %v, tolerated crashes: %d of %d\n",
		h, mnm.FaultToleranceBound(g.N(), h), g.N())
	// Output: h(G) = 4/5, tolerated crashes: 7 of 10
}

// ExampleAlgorithmFunc writes a custom m&m algorithm against the public
// Env: each process stores a value in shared memory and reads its
// neighbor's.
func ExampleAlgorithmFunc() {
	alg := mnm.AlgorithmFunc(func(id mnm.ProcID) mnm.Process {
		return func(env mnm.Env) error {
			// Publish my id in my own register.
			if err := env.Write(mnm.Ref{Owner: env.ID(), Name: "val"}, int(env.ID())); err != nil {
				return err
			}
			// Wait until the next process (mod n) has published, then
			// read it — mixing polling steps with shared-memory reads.
			next := mnm.ProcID((int(env.ID()) + 1) % env.N())
			for {
				v, err := env.Read(mnm.Ref{Owner: next, Name: "val"})
				if err != nil {
					return err
				}
				if v != nil {
					env.Expose("saw", v)
					return nil
				}
			}
		}
	})
	r, err := mnm.NewSim(mnm.SimConfig{RunConfig: mnm.RunConfig{GSM: mnm.CompleteGraph(3)}}, alg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, err := r.Run(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("p0 saw:", r.Exposed(0, "saw"))
	// Output: p0 saw: 1
}

// ExampleNewRTNode runs Hybrid Ben-Or across two nodes over loopback TCP.
// Each node is one TCP transport wrapped in an RTNode; group 0 is opened
// on both like any other group, and the directory places process i on
// node i.
func ExampleNewRTNode() {
	var addrs []string
	var trs []*mnm.TCPTransport
	for range 2 {
		tr, err := mnm.NewTCPTransport(mnm.TCPConfig{ListenAddr: "127.0.0.1:0"})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		trs = append(trs, tr)
		addrs = append(addrs, tr.Addr())
	}
	alg := mnm.NewHBO(mnm.HBOConfig{Inputs: []mnm.ConsensusValue{mnm.V1, mnm.V1}, HaltAfterDecide: true})
	var nodes []*mnm.RTNode
	var groups []*mnm.RTGroup
	for _, tr := range trs {
		node, err := mnm.NewRTNode(mnm.RTNodeConfig{
			Transport: tr,
			Directory: mnm.UniformDirectory{Addrs: addrs},
		})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		nodes = append(nodes, node)
		g, err := node.OpenGroup(0, mnm.RTGroupConfig{
			RunConfig: mnm.RunConfig{GSM: mnm.CompleteGraph(2), Seed: 1},
		}, alg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		groups = append(groups, g)
	}
	// Close the nodes together, so each one's drain is acked by the other.
	defer func() {
		done := make(chan error)
		for _, node := range nodes {
			go func() { done <- node.Close() }()
		}
		for range nodes {
			<-done
		}
	}()
	for _, g := range groups {
		g.Start()
	}

	var decided []mnm.Value
	deadline := time.Now().Add(10 * time.Second)
	for p, g := range groups {
		for g.Exposed(mnm.ProcID(p), mnm.HBODecisionKey) == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		decided = append(decided, g.Exposed(mnm.ProcID(p), mnm.HBODecisionKey))
	}
	if decided[0] != decided[1] {
		fmt.Println("disagreement:", decided)
		return
	}
	fmt.Println("decided", decided[0])
	// Output: decided 1
}
