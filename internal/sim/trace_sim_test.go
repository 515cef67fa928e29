package sim

import (
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
	"github.com/mnm-model/mnm/internal/sched"
	"github.com/mnm-model/mnm/internal/trace"
)

// TestTraceRecordsRunEvents checks that a traced run records the expected
// structured events: ops, crash and halt markers, and that the extracted
// schedule certifies the scheduler-enforced timeliness bound.
func TestTraceRecordsRunEvents(t *testing.T) {
	rec := trace.NewRecorder(100_000)
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			if err := env.Write(core.Reg(env.ID(), "x"), int(env.ID())); err != nil {
				return err
			}
			if env.ID() == 0 {
				if err := env.Send(1, "ping"); err != nil {
					return err
				}
				return nil // halt
			}
			for {
				env.Yield()
			}
		}
	})
	const bound = 3
	r, err := New(Config{
		RunConfig: RunConfig{GSM: graph.Complete(3)},
		Trace:     rec,
		Scheduler: &sched.TimelyProcess{
			Timely: 2,
			Bound:  bound,
			Inner:  sched.NewRandom(5),
		},
		MaxSteps: 2_000,
		Crashes:  []Crash{{Proc: 1, AtStep: 500}},
	}, alg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	writes := rec.Filter(func(e trace.Event) bool { return e.Kind == trace.RegWrite })
	if len(writes) != 3 {
		t.Errorf("recorded %d writes, want 3", len(writes))
	}
	sends := rec.Filter(func(e trace.Event) bool { return e.Kind == trace.Send })
	if len(sends) != 1 || sends[0].To != 1 || sends[0].Note != "ping" {
		t.Errorf("sends = %v", sends)
	}
	crashes := rec.Filter(func(e trace.Event) bool { return e.Kind == trace.Crash })
	if len(crashes) != 1 || crashes[0].Proc != 1 {
		t.Errorf("crashes = %v", crashes)
	}
	halts := rec.Filter(func(e trace.Event) bool { return e.Kind == trace.Halt })
	if len(halts) == 0 || halts[0].Proc != 0 {
		t.Errorf("halts = %v", halts)
	}

	// The extracted schedule must certify the timeliness bound the
	// scheduler promised for p2 (the §3 definition, checked on the run).
	if !sched.IsTimelyWithBound(rec.Schedule(), 2, bound) {
		minB, _ := sched.MinTimelinessBound(rec.Schedule(), 2)
		t.Errorf("schedule violates the enforced bound %d (minimal bound %d)", bound, minB)
	}
}

// TestTraceStepsMatchMetrics cross-checks the trace against the metrics
// counters: the number of step-consuming events must equal the global step
// count.
func TestTraceStepsMatchMetrics(t *testing.T) {
	rec := trace.NewRecorder(100_000)
	alg := core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			for i := 0; i < 50; i++ {
				if err := env.Write(core.Reg(env.ID(), "x"), i); err != nil {
					return err
				}
				env.Yield()
			}
			return nil
		}
	})
	r, err := New(Config{RunConfig: RunConfig{GSM: graph.Complete(2)}, Trace: rec}, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each body-return consumes one final scheduler grant that records a
	// Halt (not a step op), so steps = op events + halts.
	halts := rec.Filter(func(e trace.Event) bool { return e.Kind == trace.Halt })
	if got, want := uint64(len(rec.Schedule())+len(halts)), res.Steps; got != want {
		t.Errorf("trace has %d step events + %d halts, run took %d steps", len(rec.Schedule()), len(halts), want)
	}
}
