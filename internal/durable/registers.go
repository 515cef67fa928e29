package durable

import (
	"fmt"
	"path/filepath"
	"sync"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/metrics"
	"github.com/mnm-model/mnm/internal/wire"
)

// registersFile is the WAL filename inside a Registers directory.
const registersFile = "registers.wal"

// defaultSnapshotEvery is how many appends a Registers store absorbs
// before compacting the WAL into a snapshot of the live register map.
const defaultSnapshotEvery = 1024

// RegistersOptions configures a register store.
type RegistersOptions struct {
	// Registry, if non-nil, receives the store's instrumentation: the
	// wal_fsync latency histogram and the wal_appends counter (attributed
	// to the written register's owner).
	Registry *metrics.Registry
	// snapshotEvery is the append count that triggers WAL compaction;
	// zero takes the default (1024). Only this package's tests set it.
	snapshotEvery int
}

// Registers is the durable store for owner-resident registers: every
// apply is appended to a WAL and fsync'd before the in-memory register
// mutates, so a kill -9 can lose at most writes whose callers had not yet
// been acknowledged. It implements shm.Journal (structurally — see
// shm.WithJournal), and its recovered state seeds shm.Memory on restart.
//
// Because the RSM log stripes its slots over registers (internal/rsm,
// slot s = register LOG[s] at process s mod n), register durability is
// RSM-log durability: replaying the WAL recovers the node's share of the
// committed log prefix.
type Registers struct {
	mu        sync.Mutex
	wal       *WAL
	state     map[core.Ref]core.Value // mirror of everything applied, for compaction
	recovered map[core.Ref]core.Value // state at Open, for seeding
	appends   int
	every     int
	reg       *metrics.Registry
}

// OpenRegisters opens (creating if missing) the register WAL in dir and
// replays it. Recovered() returns the replayed state; the store is ready
// to journal new applies.
func OpenRegisters(dir string, opts RegistersOptions) (*Registers, error) {
	s := &Registers{
		state: make(map[core.Ref]core.Value),
		every: opts.snapshotEvery,
		reg:   opts.Registry,
	}
	if s.every <= 0 {
		s.every = defaultSnapshotEvery
	}
	w, err := Open(filepath.Join(dir, registersFile), func(rec []byte) error {
		ref, v, err := decodeRegister(rec)
		if err != nil {
			return err
		}
		s.state[ref] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.wal = w
	if opts.Registry != nil {
		hist := opts.Registry.Histogram(metrics.HistFsync)
		w.OnFsync = hist.Observe
	}
	s.recovered = make(map[core.Ref]core.Value, len(s.state))
	for ref, v := range s.state {
		s.recovered[ref] = v
	}
	return s, nil
}

// Recovered returns the register contents replayed at Open — the map to
// seed shm.Memory.Restore with before the run starts. The returned map is
// a snapshot: later applies do not show up in it.
func (s *Registers) Recovered() map[core.Ref]core.Value { return s.recovered }

// Apply journals one register write (or successful CAS): the record is
// appended and fsync'd before Apply returns, so the caller may expose the
// new value knowing it survives a crash. shm.Memory calls this under its
// own lock, which is what makes the WAL order equal the apply order.
func (s *Registers) Apply(ref core.Ref, v core.Value) error {
	rec, err := encodeRegister(ref, v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.wal.Append(rec); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.state[ref] = v
	s.reg.Record(ref.Owner, metrics.WALAppends, 1)
	s.appends++
	if s.appends >= s.every {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked rewrites the WAL as a snapshot of the live register map —
// one record per register instead of one per historical write. Caller
// holds s.mu.
func (s *Registers) compactLocked() error {
	recs := make([][]byte, 0, len(s.state))
	for ref, v := range s.state {
		rec, err := encodeRegister(ref, v)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	if err := s.wal.Rewrite(recs); err != nil {
		return err
	}
	s.appends = 0
	return nil
}

// Len returns the number of distinct registers the store holds.
func (s *Registers) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.state)
}

// Close fsyncs and closes the WAL.
func (s *Registers) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Close()
}

// encodeRegister flattens (ref, value) into one WAL record body using the
// wire helpers: owner, name, I, J, then the value through the registered
// payload codecs (same as frame payloads: a type without one is an error).
func encodeRegister(ref core.Ref, v core.Value) ([]byte, error) {
	b := wire.AppendVarint(nil, int64(ref.Owner))
	b = wire.AppendString(b, ref.Name)
	b = wire.AppendVarint(b, int64(ref.I))
	b = wire.AppendVarint(b, int64(ref.J))
	b, err := wire.AppendValue(b, v)
	if err != nil {
		return nil, fmt.Errorf("durable: encode register %v: %w", ref, err)
	}
	return b, nil
}

// decodeRegister inverts encodeRegister.
func decodeRegister(rec []byte) (core.Ref, core.Value, error) {
	d := wire.NewDecoder(rec)
	ref := core.Ref{Owner: core.ProcID(d.Varint())}
	ref.Name = d.String()
	ref.I = int(d.Varint())
	ref.J = int(d.Varint())
	v := d.Value()
	if err := d.Err(); err != nil {
		return core.Ref{}, nil, fmt.Errorf("%w: register record: %v", ErrCorrupt, err)
	}
	if d.Remaining() != 0 {
		return core.Ref{}, nil, fmt.Errorf("%w: register record has %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return ref, v, nil
}
