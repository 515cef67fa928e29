// Package durable is the crash-recovery persistence layer of the repo:
// a write-ahead log with CRC-framed records, fsync on append, periodic
// snapshot compaction, and torn-tail-tolerant replay.
//
// The paper's model assumes "the shared memory does not fail" — registers
// outlive the processes that own them (§3; with RDMA the NIC keeps memory
// regions registered after a process crash). In-memory register stores
// silently downgrade that to crash-stop: kill -9 a node and its
// owner-resident registers vanish. This package restores the
// crash-recovery fault model for the two states that must outlive a
// process:
//
//   - owner-resident registers (Registers, plugged into shm.Memory as a
//     Journal), which also makes the RSM log durable — log slots are
//     registers;
//   - the TCP transport's unacked retransmission queue and seq/ack
//     high-water marks (internal/transport/tcp layers its frame log over
//     the WAL here), the store-until-ack discipline.
//
// WAL format: a flat file of records, each
//
//	uvarint bodyLen | crc32(IEEE, body) uint32 LE | body
//
// Appends are fsync'd at the caller's chosen points (Append buffers into
// the OS, Sync makes it durable). Replay stops at the first torn or
// corrupt record — a crash mid-append leaves a bad tail, never a bad
// prefix — and Open truncates the tail so the file appends cleanly again.
// Compaction (Rewrite) replaces the log with a snapshot: records are
// written to a temp file, fsync'd, and renamed over the log, so a crash
// during compaction leaves either the old log or the new one, never a
// mix.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"
)

// maxRecordSize bounds one WAL record; larger means a corrupt length
// prefix (the transport's own frame limit is 16 MiB, and register values
// cross the wire in those frames).
const maxRecordSize = 17 << 20

// WAL is a single append-only log file. Methods are not safe for
// concurrent use: the owning store (Registers, the transport's frame log)
// serializes access under its own lock.
type WAL struct {
	path string
	f    *os.File
	size int64

	// OnFsync, when set, observes the duration of every fsync — the
	// store wires it to the registry's wal_fsync histogram. Called
	// outside any WAL-internal locking (there is none).
	OnFsync func(time.Duration)

	scratch []byte
}

// Open opens (creating if missing) the WAL at path and replays every
// intact record through fn in append order. A torn or corrupt tail —
// the signature of a crash mid-append — ends the replay and is truncated
// away; corruption before the tail is an error. fn errors abort the open.
func Open(path string, fn func(rec []byte) error) (*WAL, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	valid, err := replay(f, fn)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (if any) so subsequent appends extend a clean
	// prefix instead of burying records behind garbage.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &WAL{path: path, f: f, size: valid}, nil
}

// replay scans every record of f from the start, calling fn on each
// intact body, and returns the length of the valid prefix.
func replay(f *os.File, fn func(rec []byte) error) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	data := make([]byte, info.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return 0, fmt.Errorf("durable: read log: %w", err)
	}
	var off int64
	for int(off) < len(data) {
		rest := data[off:]
		n, ln := binary.Uvarint(rest)
		if ln <= 0 || n > maxRecordSize || int64(len(rest)) < int64(ln)+int64(n)+4 {
			break // torn tail: length prefix incomplete or body missing
		}
		body := rest[int64(ln)+4 : int64(ln)+4+int64(n)]
		want := binary.LittleEndian.Uint32(rest[ln : ln+4])
		if crc32.ChecksumIEEE(body) != want {
			break // torn tail: crash mid-append
		}
		if fn != nil {
			if err := fn(body); err != nil {
				return 0, err
			}
		}
		off += int64(ln) + 4 + int64(n)
	}
	return off, nil
}

// Append writes one record (length, CRC, body) into the OS buffer. Call
// Sync to make everything appended so far durable.
func (w *WAL) Append(rec []byte) error {
	if len(rec) > maxRecordSize {
		return fmt.Errorf("durable: record %d bytes exceeds limit", len(rec))
	}
	b := w.scratch[:0]
	b = binary.AppendUvarint(b, uint64(len(rec)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(rec))
	b = append(b, rec...)
	w.scratch = b[:0]
	n, err := w.f.Write(b)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	return nil
}

// Sync fsyncs the log: every record appended before the call is durable
// once Sync returns. The fsync latency feeds OnFsync.
func (w *WAL) Sync() error {
	start := time.Now()
	err := w.f.Sync()
	if w.OnFsync != nil {
		w.OnFsync(time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	return nil
}

// Size returns the current log length in bytes — the compaction trigger.
func (w *WAL) Size() int64 { return w.size }

// Rewrite atomically replaces the log's contents with the given records
// (the caller's snapshot of live state): they are written to a temp file,
// fsync'd, and renamed over the log. A crash at any point leaves either
// the complete old log or the complete new one.
func (w *WAL) Rewrite(recs [][]byte) error {
	tmpPath := w.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	nw := &WAL{path: tmpPath, f: tmp, OnFsync: w.OnFsync}
	for _, rec := range recs {
		if err := nw.Append(rec); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
	}
	if err := nw.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("durable: compact rename: %w", err)
	}
	// Make the rename itself durable before abandoning the old file.
	if dir, err := os.Open(filepath.Dir(w.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	old := w.f
	w.f = tmp
	w.size = nw.size
	old.Close()
	return nil
}

// Close fsyncs and closes the log file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if err != nil {
		return fmt.Errorf("durable: close: %w", err)
	}
	return nil
}

// ErrCorrupt marks a structurally invalid record during a store's replay
// (as opposed to a torn tail, which the WAL layer tolerates silently).
var ErrCorrupt = errors.New("durable: corrupt record")
