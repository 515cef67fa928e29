// Package wire is the binary payload-codec plane of the socket transport.
//
// The TCP backend (internal/transport/tcp) frames every message with a
// hand-rolled binary header, but the payload is a core.Value — an
// arbitrary Go interface. This package maps concrete payload types to
// named codecs so a payload crosses the wire as a short codec name plus a
// flat binary body.
//
// Codecs come from two places:
//
//   - builtin codecs for the model vocabulary (int, int64, uint64,
//     float64, bool, string, core.ProcID, core.Ref, []core.Value),
//     registered by this package;
//   - generated codecs: each algorithm package's wire_codec.go (emitted by
//     cmd/mnmwiregen from the //mnmwiregen:types directive in its
//     wire.go) registers one codec per wire-crossing type.
//
// There is no fallback: a value whose concrete type has no codec does not
// encode (AppendValue returns an error naming the type and the fix). The
// transport encodes each frame once, where it is sent, so the error
// surfaces to the sender: a message is dropped and counted, a call fails. mnmvet's wirecodec rule
// keeps that from happening to any type an algorithm package sends.
//
// The encode side is append-style ([]byte grows in place, no Writer
// interface on the hot path); the decode side is a bounds-checked Decoder
// over one frame body, which a reader reuses across frames (Reset). The
// codec registry is an immutable snapshot read without a lock, and a codec
// name is looked up by its bytes, so both directions are allocation-free
// for registered types, boxing the decoded value aside; the tcp
// package's TestDecodeFrameAllocs holds a whole frame decode to that one
// allocation.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"

	"github.com/mnm-model/mnm/internal/core"
)

// FrameVersion is the binary frame-header wire version. The TCP
// transport's stream preamble and hello handshake carry it, and
// cmd/mnmwiregen stamps it into every generated wire_codec.go, so a
// header-layout change that forgets to regenerate the codecs fails
// mnmvet's wirecodec rule, which compares each file with the
// generator's output.
//
// Version history: 2 = flat LE header (34 bytes), 3 = v2 plus a Group
// shard-routing field (38 bytes), 4 = v3 plus the trace context —
// TraceID, SpanID and a Lamport clock stamp (62 bytes), so a span
// started on one node continues causally on the next, 5 = v4 plus the
// wake frame kind (6), an unsequenced control frame naming a Group and a
// To process; the header layout is v4's.
const FrameVersion = 5

// AppendFunc encodes the concrete value v (asserted by the codec) onto b.
type AppendFunc func(b []byte, v any) ([]byte, error)

// ReadFunc decodes one value from d, consuming exactly the bytes Append
// produced.
type ReadFunc func(d *Decoder) (any, error)

// Codec encodes and decodes one concrete payload type.
type Codec struct {
	// Name travels on the wire before every body; both ends must agree.
	// Generated codecs use "pkg.Type"; builtins use terse names ("i",
	// "s", ...). "" is reserved for nil payloads.
	Name string
	// Type is the concrete Go type the codec handles.
	Type reflect.Type
	// Append and Read are the codec's two directions.
	Append AppendFunc
	Read   ReadFunc
}

// registry is one immutable snapshot of the installed codecs.
type registry struct {
	byName map[string]*Codec
	byType map[reflect.Type]*Codec
}

var (
	// codecs is the current snapshot: Lookup and ForType load it without a
	// lock, on every frame encoded or decoded.
	codecs atomic.Pointer[registry]
	// regMu serializes Register's copy-on-write of codecs.
	regMu sync.Mutex
)

// Register installs a codec. It panics on a nil function, an empty or
// duplicate name, or a duplicate type — codec registration happens in
// package init functions, so a collision is a build-time bug, not a
// runtime condition to tolerate. Register copies the registry and
// publishes the copy (copy-on-write), which costs O(codecs) per call: it
// is meant for init time, so that the per-frame lookups take no lock.
// A codec registered later is still seen by every lookup that starts
// after Register returns.
func Register(c Codec) {
	if c.Name == "" {
		panic("wire: the empty codec name is reserved for nil payloads")
	}
	if c.Type == nil || c.Append == nil || c.Read == nil {
		panic(fmt.Sprintf("wire: codec %q is incomplete", c.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := snapshot()
	if _, ok := old.byName[c.Name]; ok {
		panic(fmt.Sprintf("wire: duplicate codec name %q", c.Name))
	}
	if prev, ok := old.byType[c.Type]; ok {
		panic(fmt.Sprintf("wire: type %v already has codec %q", c.Type, prev.Name))
	}
	next := &registry{
		byName: make(map[string]*Codec, len(old.byName)+1),
		byType: make(map[reflect.Type]*Codec, len(old.byType)+1),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	cp := c
	next.byName[c.Name] = &cp
	next.byType[c.Type] = &cp
	codecs.Store(next)
}

// snapshot returns the current registry, an empty one before the first
// Register.
func snapshot() *registry {
	if r := codecs.Load(); r != nil {
		return r
	}
	return &registry{}
}

// Lookup returns the codec registered under name, or nil.
func Lookup(name string) *Codec { return snapshot().byName[name] }

// ForType returns the codec handling concrete type t, or nil.
func ForType(t reflect.Type) *Codec { return snapshot().byType[t] }

// --- append-style encode helpers ---

// AppendUvarint appends x in unsigned LEB128.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendVarint appends x in zig-zag LEB128.
func AppendVarint(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// AppendBool appends one byte, 0 or 1.
func AppendBool(b []byte, x bool) []byte {
	if x {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the IEEE-754 bits, little-endian.
func AppendFloat64(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

// AppendString appends a uvarint byte length followed by the bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint length followed by the raw bytes.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendValue appends one interface value: a codec name (varint string)
// followed by the codec's body. nil travels as the empty name; a
// concrete type without a codec is an error.
func AppendValue(b []byte, v any) ([]byte, error) {
	if v == nil {
		return AppendString(b, ""), nil
	}
	c := ForType(reflect.TypeOf(v))
	if c == nil {
		return nil, fmt.Errorf("wire: no payload codec for %T (list it in its package's wire.go //mnmwiregen:types directive and run mnmwiregen)", v)
	}
	b = AppendString(b, c.Name)
	return c.Append(b, v)
}

// --- bounds-checked decode ---

// Decoder consumes one encoded body. All reads are bounds-checked: the
// first malformed read latches an error, subsequent reads return zero
// values, and Err reports the failure — so generated decode functions
// read straight through and check once at the end.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b. The Decoder aliases b; the caller
// must not recycle b until decoding (including of any Bytes results) is
// done.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Reset points d at a new body b and clears its latched error, so one
// Decoder serves every frame of a stream. The aliasing rule of NewDecoder
// holds for b.
func (d *Decoder) Reset(b []byte) { *d = Decoder{b: b} }

// Remaining reports how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.b) }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf latches a decode error (the first one wins).
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Uvarint reads an unsigned LEB128 value.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Failf("truncated or overlong uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// Varint reads a zig-zag LEB128 value.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.Failf("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// Bool reads one byte as a bool (any non-zero byte is true).
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.Failf("truncated bool")
		return false
	}
	x := d.b[0] != 0
	d.b = d.b[1:]
	return x
}

// Float64 reads 8 little-endian IEEE-754 bytes.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.Failf("truncated float64")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return x
}

// String reads a uvarint-length-prefixed string.
func (d *Decoder) String() string {
	return string(d.Bytes())
}

// Bytes reads a uvarint-length-prefixed byte slice. The result aliases
// the Decoder's buffer — copy it if it outlives the frame.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.Failf("length %d exceeds remaining %d bytes", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// Value reads one interface value encoded by AppendValue. Unknown codec
// names latch an error naming the codec, so a node that never imported
// the sending algorithm's package fails loudly instead of desynchronizing.
//
// The codec is looked up by the name's bytes, which builds no string.
func (d *Decoder) Value() any {
	name := d.Bytes()
	if d.err != nil || len(name) == 0 {
		return nil
	}
	c := snapshot().byName[string(name)]
	if c == nil {
		d.Failf("unknown payload codec %q (import the package that registers it)", name)
		return nil
	}
	v, err := c.Read(d)
	if err != nil {
		d.Failf("codec %q: %v", c.Name, err)
		return nil
	}
	return v
}

// --- builtin codecs: the model vocabulary every payload may use ---

// simple registers a codec whose append/read cannot fail structurally.
func simple[T any](name string, app func(b []byte, x T) []byte, read func(d *Decoder) T) {
	Register(Codec{
		Name: name,
		Type: reflect.TypeOf(*new(T)),
		Append: func(b []byte, v any) ([]byte, error) {
			return app(b, v.(T)), nil
		},
		Read: func(d *Decoder) (any, error) {
			x := read(d)
			return x, d.Err()
		},
	})
}

func init() {
	simple("i", func(b []byte, x int) []byte { return AppendVarint(b, int64(x)) },
		func(d *Decoder) int { return int(d.Varint()) })
	simple("i64", func(b []byte, x int64) []byte { return AppendVarint(b, x) },
		func(d *Decoder) int64 { return d.Varint() })
	simple("u64", func(b []byte, x uint64) []byte { return AppendUvarint(b, x) },
		func(d *Decoder) uint64 { return d.Uvarint() })
	simple("f64", AppendFloat64, (*Decoder).Float64)
	simple("b", AppendBool, (*Decoder).Bool)
	simple("s", AppendString, (*Decoder).String)
	simple("pid", func(b []byte, x core.ProcID) []byte { return AppendVarint(b, int64(x)) },
		func(d *Decoder) core.ProcID { return core.ProcID(d.Varint()) })
	simple("ref", func(b []byte, x core.Ref) []byte {
		b = AppendVarint(b, int64(x.Owner))
		b = AppendString(b, x.Name)
		b = AppendVarint(b, int64(x.I))
		return AppendVarint(b, int64(x.J))
	}, func(d *Decoder) core.Ref {
		var x core.Ref
		x.Owner = core.ProcID(d.Varint())
		x.Name = d.String()
		x.I = int(d.Varint())
		x.J = int(d.Varint())
		return x
	})
	Register(Codec{
		Name: "vs",
		Type: reflect.TypeOf([]core.Value(nil)),
		Append: func(b []byte, v any) ([]byte, error) {
			xs := v.([]core.Value)
			b = AppendUvarint(b, uint64(len(xs)))
			var err error
			for _, x := range xs {
				if b, err = AppendValue(b, x); err != nil {
					return nil, err
				}
			}
			return b, nil
		},
		Read: func(d *Decoder) (any, error) {
			n := d.Uvarint()
			if n == 0 {
				return []core.Value(nil), d.Err()
			}
			// Every element costs at least one name-length byte, so a
			// count past Remaining is corrupt — refuse before allocating.
			if n > uint64(d.Remaining()) {
				d.Failf("value-slice length %d exceeds remaining %d bytes", n, d.Remaining())
				return nil, d.Err()
			}
			xs := make([]core.Value, n)
			for i := range xs {
				xs[i] = d.Value()
			}
			return xs, d.Err()
		},
	})
}
