package trace

import (
	"strings"
	"sync"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
)

func TestRecorderKeepsRecent(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(Event{Step: uint64(i), Proc: 0, Kind: Yield})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Step != uint64(i+2) {
			t.Errorf("event %d has step %d, want %d", i, e.Step, i+2)
		}
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{}) // must not panic
	if r.Events() != nil || r.Dropped() != 0 || r.Len() != 0 {
		t.Error("nil recorder returned data")
	}
}

func TestMinCapacity(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Event{Step: 1, Kind: Yield})
	r.Record(Event{Step: 2, Kind: Yield})
	if r.Len() != 1 || r.Events()[0].Step != 2 {
		t.Errorf("capacity-0 recorder misbehaved: %v", r.Events())
	}
}

func TestScheduleExtraction(t *testing.T) {
	r := NewRecorder(10)
	r.Record(Event{Proc: 0, Kind: RegWrite})
	r.Record(Event{Proc: 1, Kind: Expose}) // no step
	r.Record(Event{Proc: 1, Kind: Send})
	r.Record(Event{Proc: 2, Kind: Crash}) // no step
	r.Record(Event{Proc: 0, Kind: Yield})
	got := r.Schedule()
	want := []core.ProcID{0, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("Schedule = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Schedule = %v, want %v", got, want)
		}
	}
}

func TestFilterAndStrings(t *testing.T) {
	r := NewRecorder(10)
	r.Record(Event{Step: 5, Proc: 1, Kind: Send, To: 2, Note: "hello"})
	r.Record(Event{Step: 6, Proc: 1, Kind: RegWrite, Ref: core.Reg(1, "STATE"), Note: "← 7"})
	r.Record(Event{Step: 7, Proc: 2, Kind: Halt})

	sends := r.Filter(func(e Event) bool { return e.Kind == Send })
	if len(sends) != 1 || sends[0].To != 2 {
		t.Fatalf("Filter = %v", sends)
	}
	if s := sends[0].String(); !strings.Contains(s, "send→p2") || !strings.Contains(s, "hello") {
		t.Errorf("send String = %q", s)
	}
	writes := r.Filter(func(e Event) bool { return e.Kind == RegWrite })
	if s := writes[0].String(); !strings.Contains(s, "STATE") {
		t.Errorf("write String = %q", s)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "halt") {
		t.Errorf("WriteTo output missing halt: %q", sb.String())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Yield; k <= Log; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d unnamed", int(k))
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind string")
	}
}

// TestDroppedUnderConcurrentWriters hammers one bounded recorder from many
// goroutines (run under -race in CI) and checks the eviction accounting
// stays exact: every record beyond capacity is one drop, and the retained
// window is full.
func TestDroppedUnderConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		each    = 500
		cap     = 64
	)
	r := NewRecorder(cap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(Event{Step: uint64(i), Proc: core.ProcID(w), Kind: Yield})
				if i%100 == 0 {
					_ = r.Dropped() // concurrent reads must also be safe
					_ = r.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := r.Dropped(), uint64(writers*each-cap); got != want {
		t.Errorf("Dropped() = %d, want %d", got, want)
	}
	if r.Len() != cap {
		t.Errorf("Len() = %d, want full ring of %d", r.Len(), cap)
	}
}
