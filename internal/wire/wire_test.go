package wire

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
)

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	b, err := AppendValue(nil, v)
	if err != nil {
		t.Fatalf("AppendValue(%#v): %v", v, err)
	}
	d := NewDecoder(b)
	got := d.Value()
	if err := d.Err(); err != nil {
		t.Fatalf("decode %#v: %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("decode %#v left %d bytes", v, d.Remaining())
	}
	return got
}

func TestBuiltinRoundTrip(t *testing.T) {
	vals := []any{
		nil,
		0, 7, -7, math.MaxInt64, math.MinInt64,
		int64(-1), int64(1 << 40),
		uint64(0), uint64(math.MaxUint64),
		float64(0), 3.25, math.Inf(-1),
		true, false,
		"", "hello", strings.Repeat("x", 300),
		core.ProcID(0), core.ProcID(41), core.NoProc,
		core.Ref{Owner: 2, Name: "reg", I: 3, J: -1},
		[]core.Value(nil),
		[]core.Value{1, "two", core.Ref{Owner: 1, Name: "r"}, nil},
	}
	for _, v := range vals {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %#v: got %#v", v, got)
		}
	}
}

func TestNestedValueSlice(t *testing.T) {
	v := []core.Value{[]core.Value{1, 2}, []core.Value(nil)}
	got := roundTrip(t, v)
	if !reflect.DeepEqual(got, v) {
		t.Errorf("round trip %#v: got %#v", v, got)
	}
}

// TestCodecLessTypeRefused: there is no fallback encoding. A type without
// a codec must fail to encode — at the top level and nested in a slice —
// with an error that names the type and the fix.
func TestCodecLessTypeRefused(t *testing.T) {
	type codecLess struct{ N int }
	for _, v := range []any{codecLess{N: 9}, []core.Value{1, codecLess{}}} {
		_, err := AppendValue(nil, v)
		if err == nil {
			t.Fatalf("AppendValue(%#v) succeeded without a codec", v)
		}
		for _, want := range []string{"wire.codecLess", "wire.go", "mnmwiregen"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("AppendValue(%#v): error %q does not mention %q", v, err, want)
			}
		}
	}
}

func TestUnknownCodecName(t *testing.T) {
	b := AppendString(nil, "no-such-codec")
	d := NewDecoder(b)
	if v := d.Value(); v != nil {
		t.Fatalf("Value() = %#v, want nil", v)
	}
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "no-such-codec") {
		t.Fatalf("err = %v, want unknown-codec error naming the codec", err)
	}
}

func TestTruncatedDecode(t *testing.T) {
	full, err := AppendValue(nil, []core.Value{1, "two", core.Ref{Owner: 3, Name: "r"}})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly (latched error, no panic),
	// never succeed: the encoding has no trailing slack to hide in.
	for n := 0; n < len(full); n++ {
		d := NewDecoder(full[:n])
		d.Value()
		if d.Err() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	// A string claiming to be far longer than the buffer must be refused
	// before allocation.
	b := AppendUvarint(nil, 1<<40)
	d := NewDecoder(b)
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

func TestDecoderErrorLatches(t *testing.T) {
	d := NewDecoder(nil)
	d.Uvarint()
	first := d.Err()
	if first == nil {
		t.Fatal("expected error on empty buffer")
	}
	d.Failf("second error")
	if d.Err() != first {
		t.Fatal("later failure displaced the first latched error")
	}
	// Post-error reads are inert zero values.
	if d.Varint() != 0 || d.Bool() || d.Float64() != 0 || d.String() != "" {
		t.Fatal("post-error reads returned non-zero values")
	}
}

func TestRegisterPanics(t *testing.T) {
	for name, c := range map[string]Codec{
		"reserved-empty": {Name: ""},
		"incomplete":     {Name: "t-incomplete"},
		"dup-name": {
			Name: "i", Type: reflect.TypeOf(struct{}{}),
			Append: func(b []byte, v any) ([]byte, error) { return b, nil },
			Read:   func(d *Decoder) (any, error) { return nil, nil },
		},
		"dup-type": {
			Name: "t-dup-type", Type: reflect.TypeOf(0),
			Append: func(b []byte, v any) ([]byte, error) { return b, nil },
			Read:   func(d *Decoder) (any, error) { return nil, nil },
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%s) did not panic", name)
				}
			}()
			Register(c)
		}()
	}
}

// regSerial makes every codec TestRegisterVisibleToConcurrentLookup
// registers new, so the test can run repeatedly in one process (-count).
var regSerial atomic.Int64

// TestRegisterVisibleToConcurrentLookup registers codecs at run time
// while other goroutines look codecs up, by name, by type and through
// Decoder.Value, as receive loops and senders do. Run under -race it
// checks that the lock-free snapshot is published safely; each codec must
// be found by every lookup after its Register returns, the builtins must
// never go missing, and a duplicate name or type must still panic without
// changing the registry.
func TestRegisterVisibleToConcurrentLookup(t *testing.T) {
	const codecs = 16
	base := regSerial.Add(codecs) - codecs
	name := func(i int) string { return fmt.Sprintf("wire_test.rt%d", base+int64(i)) }
	// A distinct array length gives each codec a type of its own.
	typ := func(i int) reflect.Type { return reflect.ArrayOf(int(1000+base)+i, reflect.TypeOf(byte(0))) }
	encoded, err := AppendValue(nil, int64(12345))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Value
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if Lookup("i64") == nil || ForType(reflect.TypeOf(int64(0))) == nil {
					bad.Store("a builtin codec went missing during Register")
				}
				if v := NewDecoder(encoded).Value(); v != int64(12345) {
					bad.Store(fmt.Sprintf("Value() = %#v during Register, want 12345", v))
				}
				for i := 0; i < codecs; i++ {
					if c := Lookup(name(i)); c != nil && c.Type != typ(i) {
						bad.Store(fmt.Sprintf("Lookup(%q) found a codec for %v", name(i), c.Type))
					}
				}
			}
		}()
	}
	for i := 0; i < codecs; i++ {
		ti := typ(i)
		Register(Codec{
			Name:   name(i),
			Type:   ti,
			Append: func(b []byte, v any) ([]byte, error) { return b, nil },
			Read:   func(d *Decoder) (any, error) { return reflect.New(ti).Elem().Interface(), nil },
		})
		if c := Lookup(name(i)); c == nil || c.Type != ti {
			t.Fatalf("codec %q not found by name right after Register", name(i))
		}
		if c := ForType(ti); c == nil || c.Name != name(i) {
			t.Fatalf("codec %q not found by type right after Register", name(i))
		}
		v := reflect.New(ti).Elem().Interface()
		b, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("AppendValue after Register: %v", err)
		}
		if got := NewDecoder(b).Value(); reflect.TypeOf(got) != ti {
			t.Fatalf("Value() after Register = %T, want %v", got, ti)
		}
	}
	close(stop)
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}

	// A duplicate of a codec registered at run time still panics, and the
	// refused codec leaves no trace.
	noop := func(b []byte, v any) ([]byte, error) { return b, nil }
	read := func(d *Decoder) (any, error) { return nil, nil }
	fresh := reflect.ArrayOf(int(1000+base)+codecs, reflect.TypeOf(byte(0)))
	for what, c := range map[string]Codec{
		"duplicate codec name": {Name: name(0), Type: fresh, Append: noop, Read: read},
		"already has codec":    {Name: name(0) + "-dup", Type: typ(0), Append: noop, Read: read},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), what) {
					t.Errorf("Register(%q, %v) panicked with %v, want %q", c.Name, c.Type, r, what)
				}
			}()
			Register(c)
		}()
	}
	if ForType(fresh) != nil || Lookup(name(0)+"-dup") != nil {
		t.Error("a refused Register changed the registry")
	}
}
