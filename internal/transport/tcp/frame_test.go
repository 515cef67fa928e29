package tcp

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
)

// goldenTable is the frame set pinned by testdata/frames.txt: one frame
// per kind plus payload-shape variety (builtin codecs, a generated
// algorithm codec, nil). Changing the wire layout changes these bytes and
// the test fails — the layout cannot drift silently.
func goldenTable() []struct {
	name string
	f    frame
} {
	return []struct {
		name string
		f    frame
	}{
		{"hello", frame{Kind: frameHello, Version: 5, Addr: "127.0.0.1:9000"}},
		{"ack", frame{Kind: frameAck, AckTo: 513}},
		{"wake", frame{Kind: frameWake, To: 3, Group: 9}},
		{"data-int", frame{Kind: frameData, Seq: 7, From: 0, To: 3, Payload: 42}},
		{"data-string", frame{Kind: frameData, Seq: 8, From: 1, To: 2, Payload: "hi"}},
		{"data-slice", frame{Kind: frameData, Seq: 9, From: 1, To: 0, Payload: []core.Value{1, "two", nil}}},
		{"data-benor-msg", frame{Kind: frameData, Seq: 10, From: 2, To: 1, Payload: benor.Msg{Phase: benor.PhaseP, Round: 4, Val: benor.V1}}},
		{"data-group", frame{Kind: frameData, Seq: 13, From: 0, To: 1, Group: 4096, Payload: "shard"}},
		{"data-traced", frame{Kind: frameData, Seq: 16, From: 1, To: 0, Payload: "t",
			TraceID: 0x0123456789abcdef, SpanID: 0xfedcba9876543210, Lamport: 42}},
		{"req-ref", frame{Kind: frameReq, Seq: 11, From: 1, To: 0, CallID: 77, Payload: core.Ref{Owner: 0, Name: "reg", I: 2, J: -1}}},
		{"req-group", frame{Kind: frameReq, Seq: 14, From: 2, To: 0, CallID: 78, Group: 9, Payload: core.Ref{Owner: 0, Name: "reg", I: 0, J: 0}}},
		{"req-traced", frame{Kind: frameReq, Seq: 17, From: 0, To: 1, CallID: 79, Group: 9, Payload: 5,
			TraceID: 0xa1a2a3a4a5a6a7a8, SpanID: 0xb1b2b3b4b5b6b7b8, Lamport: 7}},
		{"resp-err", frame{Kind: frameResp, Seq: 12, From: 0, To: 1, CallID: 77, ErrMsg: "remote: boom"}},
		{"resp-group", frame{Kind: frameResp, Seq: 15, From: 0, To: 2, CallID: 78, Group: 9, Payload: 1}},
		{"resp-traced", frame{Kind: frameResp, Seq: 18, From: 1, To: 0, CallID: 79, Group: 9, Payload: 6,
			TraceID: 0xa1a2a3a4a5a6a7a8, SpanID: 0xc1c2c3c4c5c6c7c8, Lamport: 11}},
	}
}

func TestGoldenWireVectors(t *testing.T) {
	data, err := os.ReadFile("testdata/frames.txt")
	if err != nil {
		t.Fatalf("golden vectors missing: %v", err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexBytes, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[name] = hexBytes
	}
	seen := map[string]bool{}
	for _, tc := range goldenTable() {
		seen[tc.name] = true
		b, err := appendFrame(nil, &tc.f)
		if err != nil {
			t.Errorf("%s: encode: %v", tc.name, err)
			continue
		}
		got := hex.EncodeToString(b)
		want, ok := golden[tc.name]
		if !ok {
			t.Errorf("no golden vector %q; add this line to testdata/frames.txt:\n%s %s", tc.name, tc.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: wire bytes changed\n got  %s\n want %s\n(if the layout change is intentional, update testdata/frames.txt)", tc.name, got, want)
		}
		// The pinned bytes must also decode back to the source frame —
		// both directions of the layout contract.
		raw, err := hex.DecodeString(want)
		if err != nil || len(raw) < 4 {
			t.Errorf("%s: bad golden bytes: %v", tc.name, err)
			continue
		}
		var f frame
		if err := decodeFrame(raw[4:], &f); err != nil {
			t.Errorf("%s: decode golden: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(f, tc.f) {
			t.Errorf("%s: golden decode mismatch\n got  %#v\n want %#v", tc.name, f, tc.f)
		}
	}
	for name := range golden {
		if !seen[name] {
			t.Errorf("stale golden vector %q has no frame in goldenTable", name)
		}
	}
	// This node writes hellos, acks and wakes only through appendCtrl: its
	// widening to the frame header must produce the same pinned bytes.
	for name, c := range map[string]ctrlFrame{
		"hello": {Kind: frameHello, Version: 5, Addr: "127.0.0.1:9000"},
		"ack":   {Kind: frameAck, AckTo: 513},
		"wake":  {Kind: frameWake, Group: 9, To: 3},
	} {
		if got := hex.EncodeToString(appendCtrl(nil, c)); got != golden[name] {
			t.Errorf("%s via appendCtrl: wire bytes differ\n got  %s\n want %s", name, got, golden[name])
		}
	}
}

func TestFrameRoundTripAllKinds(t *testing.T) {
	for _, tc := range goldenTable() {
		b, err := appendFrame(nil, &tc.f)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var f frame
		if err := decodeFrame(b[4:], &f); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(f, tc.f) {
			t.Fatalf("%s: round trip: got %#v, want %#v", tc.name, f, tc.f)
		}
	}
}

// TestDecodeTruncatedBody feeds every strict prefix of a valid body to
// the decoder: all must fail cleanly (no panic, no silent success — the
// trailing-bytes check means a frame has no slack to hide truncation in).
func TestDecodeTruncatedBody(t *testing.T) {
	src := frame{Kind: frameData, Seq: 3, From: 1, To: 2, Payload: []core.Value{7, "x", core.Ref{Owner: 1, Name: "r"}}}
	b, err := appendFrame(nil, &src)
	if err != nil {
		t.Fatal(err)
	}
	body := b[4:]
	for n := 0; n < len(body); n++ {
		var f frame
		if err := decodeFrame(body[:n], &f); err == nil {
			t.Fatalf("truncated body %d/%d decoded without error", n, len(body))
		}
	}
}

func TestReadFrameCorruptPrefix(t *testing.T) {
	fr := newFrameReader()
	defer fr.close()
	var f frame

	// Length prefix beyond the frame limit.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if err := fr.read(bufio.NewReader(bytes.NewReader(huge)), &f); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length prefix: err = %v", err)
	}
	// Length prefix promising more bytes than the stream has.
	short := []byte{0x00, 0x00, 0x01, 0x00, 0xab}
	if err := fr.read(bufio.NewReader(bytes.NewReader(short)), &f); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream: err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestAcceptHandshake pins the one handshake rule: an inbound stream
// opens with this version's preamble and a hello repeating the version
// and naming the dialer. Only a well-formed preamble of another version
// is a skewError (the acceptor answers those); everything else is a
// plain error (the acceptor just closes).
func TestAcceptHandshake(t *testing.T) {
	stream := func(pre string, f *frame) []byte {
		b := []byte(pre)
		if f != nil {
			var err error
			if b, err = appendFrame(b, f); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	const current = "MNM\x05"
	for _, tc := range []struct {
		name     string
		in       []byte
		wantAddr string
		wantSkew uint8  // non-zero: a skewError of that version
		wantErr  string // otherwise: a plain error containing this
	}{
		{name: "good", in: stream(current, &frame{Kind: frameHello, Version: 5, Addr: "127.0.0.1:9000"}), wantAddr: "127.0.0.1:9000"},
		{name: "bad tag", in: []byte("GET / HTTP/1.1\r\n"), wantErr: "bad stream preamble"},
		{name: "first byte 0x00", in: []byte{0x00, 0x00, 0x00, 0x05, 0x01}, wantErr: "bad stream preamble"},
		{name: "short read", in: []byte("MN"), wantErr: "unexpected EOF"},
		{name: "empty stream", in: nil, wantErr: "EOF"},
		{name: "wrong version", in: stream("MNM\x04", nil), wantSkew: 4},
		{name: "newer version", in: stream("MNM\x06", &frame{Kind: frameHello, Version: 6, Addr: "a:1"}), wantSkew: 6},
		{name: "no hello", in: stream(current, nil), wantErr: "read hello"},
		{name: "hello with Version 0", in: stream(current, &frame{Kind: frameHello, Addr: "127.0.0.1:9000"}), wantErr: "bad hello"},
		{name: "hello with empty Addr", in: stream(current, &frame{Kind: frameHello, Version: 5}), wantErr: "bad hello"},
		{name: "data before hello", in: stream(current, &frame{Kind: frameData, Version: 5, Addr: "a:1", Seq: 1}), wantErr: "bad hello"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := newFrameReader()
			defer fr.close()
			addr, err := acceptHandshake(bufio.NewReader(bytes.NewReader(tc.in)), fr)
			var skew skewError
			switch {
			case tc.wantAddr != "":
				if err != nil || addr != tc.wantAddr {
					t.Fatalf("addr %q, err %v; want %q", addr, err, tc.wantAddr)
				}
			case tc.wantSkew != 0:
				if !errors.As(err, &skew) || skew.version != tc.wantSkew {
					t.Fatalf("err = %v, want skewError{%d}", err, tc.wantSkew)
				}
			default:
				if err == nil || errors.As(err, &skew) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want a plain error containing %q", err, tc.wantErr)
				}
			}
		})
	}
}

// TestOversizedFrameRefusedAtEncode covers the drop path: a frame beyond
// maxFrameSize must come back errEncode (Send drops it and counts
// FrameDropEncode).
func TestOversizedFrameRefusedAtEncode(t *testing.T) {
	f := frame{Kind: frameData, Seq: 1, Payload: strings.Repeat("x", maxFrameSize+1)}
	if _, err := appendFrame(nil, &f); !errors.Is(err, errEncode) {
		t.Fatalf("oversized: err = %v, want errEncode", err)
	}
}

// TestBufPoolBoundedRetention is the regression test for the pool
// pinning bug: a buffer grown by one huge frame must not live in the
// pool forever. After pushing a large frame through encoder and reader,
// no pooled buffer may exceed the retention cap.
func TestBufPoolBoundedRetention(t *testing.T) {
	big := frame{Kind: frameData, Seq: 1, Payload: strings.Repeat("x", 4*maxPooledBuf)}

	buf, _, err := new(Transport).encode(&big)
	if err != nil {
		t.Fatal(err)
	}
	wireBytes := bytes.Clone(*buf)
	putBuf(buf)

	fr := newFrameReader()
	var f frame
	if err := fr.read(bufio.NewReader(bytes.NewReader(wireBytes)), &f); err != nil {
		t.Fatal(err)
	}
	fr.close()

	// Direct over-cap returns must be refused too.
	huge := make([]byte, 0, 4*maxPooledBuf)
	putBuf(&huge)

	for i := 0; i < 256; i++ {
		b := getBuf()
		if cap(*b) > maxPooledBuf {
			t.Fatalf("pool returned a %d-byte buffer (cap %d): oversized buffers are being retained", cap(*b), maxPooledBuf)
		}
		putBuf(b)
	}
}

// FuzzFrameDecode hammers the binary decoder with arbitrary bodies: it
// must never panic, and anything it accepts must re-encode to a frame
// that decodes identically (the codec has one meaning per byte string).
func FuzzFrameDecode(f *testing.F) {
	for _, tc := range goldenTable() {
		b, err := appendFrame(nil, &tc.f)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4:])
	}
	f.Add([]byte{})
	f.Add(make([]byte, binaryHeaderSize))
	f.Fuzz(func(t *testing.T, body []byte) {
		var fr frame
		if err := decodeFrame(body, &fr); err != nil {
			return
		}
		b2, err := appendFrame(nil, &fr)
		if err != nil {
			// A decoded payload always has a codec (that's how it was
			// decoded), so re-encoding may only fail for size.
			if !errors.Is(err, errEncode) {
				t.Fatalf("re-encode of decoded frame: %v", err)
			}
			return
		}
		var fr2 frame
		if err := decodeFrame(b2[4:], &fr2); err != nil {
			t.Fatalf("decode(encode(decode(body))) failed: %v\nbody:   %x\nreenc:  %x", err, body, b2)
		}
		if !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("frame not stable under re-encode:\n first  %#v\n second %#v", fr, fr2)
		}
	})
}

// FuzzFrameRoundTrip drives the encoder from structured inputs and
// requires exact field-level round trips.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint64(1), uint64(0), int32(0), int32(1), uint32(0), uint64(0), uint64(0), uint64(0), "127.0.0.1:1", "", "payload", int64(7), true)
	f.Add(uint8(3), uint8(0), uint64(1<<40), uint64(1<<30), int32(-1), int32(1<<20), uint32(1<<31), uint64(1<<63), uint64(3), uint64(1<<50), "", "remote: boom", "", int64(-1), false)
	f.Fuzz(func(t *testing.T, kind, ver uint8, seq, ack uint64, from, to int32, group uint32, traceID, spanID, lamport uint64, addr, errMsg, sPay string, iPay int64, useS bool) {
		src := frame{
			Kind:    frameKind(kind),
			Version: ver,
			Seq:     seq,
			AckTo:   ack,
			From:    core.ProcID(from),
			To:      core.ProcID(to),
			Group:   group,
			CallID:  seq ^ ack,
			TraceID: traceID,
			SpanID:  spanID,
			Lamport: lamport,
			Addr:    addr,
			ErrMsg:  errMsg,
		}
		if useS {
			src.Payload = sPay
		} else {
			src.Payload = iPay
		}
		b, err := appendFrame(nil, &src)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got frame
		if err := decodeFrame(b[4:], &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, src) {
			t.Fatalf("round trip: got %#v, want %#v", got, src)
		}
	})
}

// TestDecodeFrameAllocs reads a stream of data frames carrying
// int64(12345) through a frameReader over a bufio.Reader, as the receive
// loop does, and holds each frame's decode to one allocation: boxing the
// payload. The frame is decoded in place in the bufio buffer with the
// reader's own Decoder, and the payload codec is found by its name's
// bytes in the lock-free registry, so nothing else allocates.
func TestDecodeFrameAllocs(t *testing.T) {
	one, err := appendFrame(nil, &frame{Kind: frameData, Seq: 1, From: 0, To: 1, Group: 3, Payload: int64(12345)})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 1000
	br := bufio.NewReaderSize(bytes.NewReader(bytes.Repeat(one, frames)), batchBufSize)
	fr := newFrameReader()
	defer fr.close()
	var f frame
	var readErr error
	// AllocsPerRun calls the function once more, to warm up.
	allocs := testing.AllocsPerRun(frames-1, func() {
		if err := fr.read(br, &f); err != nil && readErr == nil {
			readErr = err
		}
	})
	if readErr != nil {
		t.Fatal(readErr)
	}
	if f.Kind != frameData || f.Group != 3 || f.Payload != int64(12345) {
		t.Fatalf("decoded %+v, want the data frame carrying 12345", f)
	}
	if allocs > 1 {
		t.Errorf("decoding a frame allocates %.1f times, want at most 1 (the payload box)", allocs)
	}
}
