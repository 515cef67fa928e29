package durable

import (
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
)

func TestRegistersRecoverAfterReopen(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry(4)
	s, err := OpenRegisters(dir, RegistersOptions{Registry: reg})
	if err != nil {
		t.Fatalf("OpenRegisters: %v", err)
	}
	if len(s.Recovered()) != 0 {
		t.Fatalf("fresh store recovered %d registers", len(s.Recovered()))
	}
	writes := map[core.Ref]core.Value{
		core.Reg(0, "STATE"):         uint64(7),
		core.RegI(1, "LOG", 3):       "cmd-3",
		core.RegIJ(2, "RVals", 4, 1): int64(-9),
	}
	for ref, v := range writes {
		if err := s.Apply(ref, v); err != nil {
			t.Fatalf("Apply(%v): %v", ref, err)
		}
	}
	// Overwrite one: replay must surface the last value.
	if err := s.Apply(core.Reg(0, "STATE"), uint64(8)); err != nil {
		t.Fatalf("Apply overwrite: %v", err)
	}
	writes[core.Reg(0, "STATE")] = uint64(8)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := reg.Counters().Of(0, metrics.WALAppends); got != 2 {
		t.Errorf("proc 0 wal_appends = %d, want 2", got)
	}
	if reg.Histogram(metrics.HistFsync).Snapshot().Count == 0 {
		t.Error("no fsync latencies observed")
	}

	s2, err := OpenRegisters(dir, RegistersOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec) != len(writes) {
		t.Fatalf("recovered %d registers, want %d", len(rec), len(writes))
	}
	for ref, want := range writes {
		if got, ok := rec[ref]; !ok || got != want {
			t.Errorf("recovered %v = %v (present=%v), want %v", ref, got, ok, want)
		}
	}
}

// Compaction must fold the history down to one record per live register
// while replay still sees the same final state.
func TestRegistersCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenRegisters(dir, RegistersOptions{snapshotEvery: 16})
	if err != nil {
		t.Fatalf("OpenRegisters: %v", err)
	}
	ref := core.Reg(0, "STATE")
	for i := 0; i < 100; i++ {
		if err := s.Apply(ref, uint64(i)); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	// 100 appends over one register with snapshotEvery=16: the WAL holds
	// at most 16 uncompacted records, far below the 100 written.
	oneRec, err := encodeRegister(ref, uint64(99))
	if err != nil {
		t.Fatal(err)
	}
	if max := int64(16 * (len(oneRec) + 16)); s.wal.Size() > max {
		t.Errorf("WAL size %d after compaction, want <= %d", s.wal.Size(), max)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := OpenRegisters(dir, RegistersOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.Recovered()[ref]; got != uint64(99) {
		t.Fatalf("recovered %v = %v, want 99", ref, got)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}
