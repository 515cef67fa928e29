package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/wire"
)

// frameKind tags the role of a frame on the wire.
type frameKind int

const (
	// frameHello is the first frame of every outbound connection: it
	// carries the sender node's canonical address and protocol version so
	// the receiver can attribute subsequent frames (and route acks back).
	frameHello frameKind = iota + 1
	// frameData carries one algorithm message (core.Message payload).
	frameData
	// frameAck cumulatively acknowledges received sequence numbers.
	frameAck
	// frameReq carries one RPC request (remote register access).
	frameReq
	// frameResp carries one RPC response.
	frameResp
	// frameWake hands one hosted process of one group a wake-up token
	// (see Group.Wake). It delivers nothing, and like the ack it is
	// unsequenced: never journaled, acked or retransmitted.
	frameWake
)

// preamble opens every stream: a three-byte tag and wire.FrameVersion. It
// is the one thing all versions of this transport agree on, so it is also
// the acceptor's whole answer to a dialer of another version (see
// acceptHandshake and peer.watch): frame layouts change between versions,
// these four bytes do not.
var preamble = [4]byte{'M', 'N', 'M', wire.FrameVersion}

// frame is the unit of the wire protocol. Data, request and response
// frames carry a per-(sender node → receiver node) sequence number; the
// receiver deduplicates on it, which preserves the Integrity axiom across
// retransmissions, and the sender retransmits unacknowledged frames after
// a reconnect, which preserves No-loss across connection faults.
type frame struct {
	Kind frameKind
	// Version is the sender's wire.FrameVersion (hello only).
	Version uint8
	// Addr is the sender node's canonical listen address (hello only).
	Addr string
	// Seq is the node-pair sequence number (data/req/resp).
	Seq uint64
	// AckTo cumulatively acknowledges all Seq ≤ AckTo (ack only).
	AckTo uint64
	// From and To are the endpoint processes (data/req/resp; To only on
	// wake).
	From, To core.ProcID
	// CallID matches a response to its request (req/resp) within the
	// frame's group: each group numbers its own calls.
	CallID uint64
	// Group routes the frame to one group's mailboxes and RPC handler
	// (data/req/resp/wake). Acks and hellos are written from ctrlFrame and
	// carry a zero Group that no receiver reads.
	Group uint32
	// TraceID and SpanID are the trace context of the operation the frame
	// carries (data/req/resp): the trace the op belongs to and the span
	// that emitted the frame — the receiver's parent. Zero = untraced.
	TraceID, SpanID uint64
	// Lamport is the sender's logical clock at the emit event
	// (data/req/resp); receivers merge it so a trace merger can order
	// spans across nodes without synchronized wall clocks. It flows even
	// for unsampled ops — the clock condition must hold for every message
	// a sampled trace might causally follow.
	Lamport uint64
	// Payload is the message body or RPC body.
	Payload core.Value
	// ErrMsg carries a response error, "" meaning nil.
	ErrMsg string
}

// ctrlFrame is what this node writes for a hello, an ack or a wake. They
// are transport bookkeeping rather than operations, so the type has no
// Seq, TraceID, SpanID or Lamport field: a sequenced or traced control
// frame cannot be written. Hellos and acks are per node pair, shared by
// every group on the connection, and leave Group and To zero; a wake
// names one process of one group. appendCtrl widens it to the frame
// header with the missing fields zero.
type ctrlFrame struct {
	Kind    frameKind   // frameHello, frameAck or frameWake
	Version uint8       // hello: the sender's wire.FrameVersion
	Addr    string      // hello: the sender node's canonical listen address
	AckTo   uint64      // ack: cumulatively acknowledges all Seq ≤ AckTo
	Group   uint32      // wake: the group of the process to wake
	To      core.ProcID // wake: the process to wake
}

// maxFrameSize bounds a frame body; anything larger is
// treated as a corrupt stream on read and refused at encode time on write.
const maxFrameSize = 16 << 20

// batchBufSize sizes the receive loop's bufio reader: one read syscall
// typically yields a whole batch, whose frames are then acked with a
// single cumulative ack. Frames larger than the buffer still work — they
// just cost extra read syscalls.
const batchBufSize = 64 << 10

// maxPooledBuf caps the capacity of buffers returned to the codec pools.
// One maxFrameSize frame used to pin 16 MiB per pooled buffer for the
// process lifetime; buffers that grew beyond this cap are dropped for the
// GC instead of pooled.
const maxPooledBuf = 64 << 10

// errEncode marks frames that can never be written — a payload type with
// no codec or an oversized body. It surfaces where the frame is created
// (Send, CallSpan, serve), which drop or answer it there: an unencodable
// frame never gets a sequence number or a slot in the retransmission
// queue.
var errEncode = errors.New("tcp: frame not encodable")

// bufPool recycles the byte-slice scratch buffers of the binary frame
// codec (pointer-to-slice, so Put stores no slice header on the heap).
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return // let the GC take oversized buffers instead of pinning them
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// A frame is a 4-byte big-endian body length followed by the body:
//
//	[0]     Kind     uint8
//	[1]     Version  uint8
//	[2:10]  Seq      uint64 LE
//	[10:18] AckTo    uint64 LE
//	[18:22] From     int32 LE
//	[22:26] To       int32 LE
//	[26:34] CallID   uint64 LE
//	[34:38] Group    uint32 LE
//	[38:46] TraceID  uint64 LE
//	[46:54] SpanID   uint64 LE
//	[54:62] Lamport  uint64 LE
//	[62:]   Addr     uvarint length + bytes
//	        ErrMsg   uvarint length + bytes
//	        Payload  uvarint codec-name length + name + codec body
//	                 (see internal/wire; name "" = nil payload)
//
// The fixed header is flat little-endian; only the three trailing
// variable fields pay for their length bytes. The golden vectors in
// testdata/frames.txt pin this layout.

// binaryHeaderSize is the fixed-width prefix of a binary frame body.
const binaryHeaderSize = 62

// appendFrame appends f's complete wire encoding (length prefix + body)
// to b. Payload encode failures are errEncode-wrapped: such a frame can
// never be sent and must be dropped, not retried.
func appendFrame(b []byte, f *frame) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length prefix, patched below
	var hdr [binaryHeaderSize]byte
	hdr[0] = uint8(f.Kind)
	hdr[1] = f.Version
	binary.LittleEndian.PutUint64(hdr[2:10], f.Seq)
	binary.LittleEndian.PutUint64(hdr[10:18], f.AckTo)
	binary.LittleEndian.PutUint32(hdr[18:22], uint32(int32(f.From)))
	binary.LittleEndian.PutUint32(hdr[22:26], uint32(int32(f.To)))
	binary.LittleEndian.PutUint64(hdr[26:34], f.CallID)
	binary.LittleEndian.PutUint32(hdr[34:38], f.Group)
	binary.LittleEndian.PutUint64(hdr[38:46], f.TraceID)
	binary.LittleEndian.PutUint64(hdr[46:54], f.SpanID)
	binary.LittleEndian.PutUint64(hdr[54:62], f.Lamport)
	b = append(b, hdr[:]...)
	b = wire.AppendString(b, f.Addr)
	b = wire.AppendString(b, f.ErrMsg)
	b, err := wire.AppendValue(b, f.Payload)
	if err != nil {
		return b[:start], fmt.Errorf("%w: %v", errEncode, err)
	}
	n := len(b) - start - 4
	if n > maxFrameSize {
		return b[:start], fmt.Errorf("%w: frame too large (%d bytes)", errEncode, n)
	}
	binary.BigEndian.PutUint32(b[start:start+4], uint32(n))
	return b, nil
}

// appendCtrl appends a control frame's wire encoding to b. It is the one
// place a ctrlFrame becomes a frame header, so Seq and the trace triple
// are always zero; with no payload, a control frame always encodes.
func appendCtrl(b []byte, c ctrlFrame) []byte {
	b, _ = appendFrame(b, &frame{Kind: c.Kind, Version: c.Version, Addr: c.Addr, AckTo: c.AckTo,
		Group: c.Group, To: c.To})
	return b
}

// stampSeqTo writes a sequence number and a destination process into the
// header of an encoded frame body: a frame is encoded once, before it has
// a sequence number, and a broadcast shares that encoding among all its
// remote copies, so enqueue addresses and numbers each copy in place.
func stampSeqTo(body []byte, seq uint64, to core.ProcID) {
	binary.LittleEndian.PutUint64(body[2:10], seq)
	binary.LittleEndian.PutUint32(body[22:26], uint32(int32(to)))
}

// peekHeader reads the kind, sequence number and sending process out of
// an encoded frame body without decoding the rest.
func peekHeader(body []byte) (frameKind, uint64, core.ProcID) {
	return frameKind(body[0]), binary.LittleEndian.Uint64(body[2:10]),
		core.ProcID(int32(binary.LittleEndian.Uint32(body[18:22])))
}

// decodeFrame decodes one binary frame body (the bytes after the length
// prefix) into f. The body must be fully consumed: trailing bytes mean a
// corrupt or incompatible stream. The receive loop decodes through its
// frameReader, which reuses one Decoder; this form, for the frame log's
// replay and the tests, makes its own.
func decodeFrame(body []byte, f *frame) error {
	return decodeFrameWith(new(wire.Decoder), body, f)
}

// decodeFrameWith is decodeFrame with the caller's Decoder.
func decodeFrameWith(d *wire.Decoder, body []byte, f *frame) error {
	if len(body) < binaryHeaderSize {
		return fmt.Errorf("tcp: frame body %d bytes, below header size", len(body))
	}
	*f = frame{
		Kind:    frameKind(body[0]),
		Version: body[1],
		Seq:     binary.LittleEndian.Uint64(body[2:10]),
		AckTo:   binary.LittleEndian.Uint64(body[10:18]),
		From:    core.ProcID(int32(binary.LittleEndian.Uint32(body[18:22]))),
		To:      core.ProcID(int32(binary.LittleEndian.Uint32(body[22:26]))),
		CallID:  binary.LittleEndian.Uint64(body[26:34]),
		Group:   binary.LittleEndian.Uint32(body[34:38]),
		TraceID: binary.LittleEndian.Uint64(body[38:46]),
		SpanID:  binary.LittleEndian.Uint64(body[46:54]),
		Lamport: binary.LittleEndian.Uint64(body[54:62]),
	}
	d.Reset(body[binaryHeaderSize:])
	f.Addr = d.String()
	f.ErrMsg = d.String()
	f.Payload = d.Value()
	if err := d.Err(); err != nil {
		return fmt.Errorf("tcp: decode frame: %w", err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("tcp: decode frame: %d trailing bytes", d.Remaining())
	}
	return nil
}

// frameReader decodes the frames of one connection, reusing one Decoder
// and, for frames too large for the bufio buffer, one scratch buffer.
type frameReader struct {
	d       wire.Decoder
	scratch *[]byte
}

func newFrameReader() *frameReader {
	return &frameReader{scratch: getBuf()}
}

func (fr *frameReader) close() {
	if fr.scratch != nil {
		putBuf(fr.scratch)
		fr.scratch = nil
	}
}

// read decodes the next frame of br into f. A frame that fits br's buffer
// (4+n ≤ br.Size(), every ordinary frame) is decoded in place, straight
// from the buffer (Peek, then Discard), so it is never copied; only a
// larger one is read into the scratch buffer first. Either way the bytes
// are reused by the next read, which is safe because no decoded value
// aliases them: Decoder.String copies, and the generated codecs copy the
// byte slices they read (append([]byte(nil), d.Bytes()...)). A stream
// that ends inside a frame reads as io.ErrUnexpectedEOF, one that ends
// between frames as io.EOF.
func (fr *frameReader) read(br *bufio.Reader, f *frame) error {
	prefix, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	n := int(binary.BigEndian.Uint32(prefix))
	if n > maxFrameSize {
		return fmt.Errorf("tcp: frame length %d exceeds limit", n)
	}
	if 4+n <= br.Size() {
		b, err := br.Peek(4 + n)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		err = decodeFrameWith(&fr.d, b[4:], f)
		br.Discard(4 + n)
		return err
	}
	br.Discard(4)
	if cap(*fr.scratch) < n {
		*fr.scratch = make([]byte, n)
	}
	body := (*fr.scratch)[:n]
	if cap(*fr.scratch) > maxPooledBuf {
		// One huge frame must not pin its buffer for the connection's
		// lifetime (the same retention hazard putBuf guards the pool
		// against).
		*fr.scratch = make([]byte, 0, 512)
	}
	if _, err := io.ReadFull(br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return decodeFrameWith(&fr.d, body, f)
}

// frameBuffered reports whether br holds the whole next frame, so that
// reading it cannot block on the connection.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	prefix, _ := br.Peek(4)
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(prefix))
}

// skewError is a well-formed preamble of another wire version — the one
// handshake failure the acceptor answers (with its own preamble) instead
// of just closing on, and the one a dialer treats as terminal.
type skewError struct{ version uint8 }

func (e skewError) Error() string {
	return fmt.Sprintf("peer speaks wire version %d, this node %d", e.version, wire.FrameVersion)
}

// readPreamble consumes a stream's four opening bytes and returns the
// wire version they announce; a foreign tag is not this protocol at all.
func readPreamble(r io.Reader) (version uint8, err error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return 0, fmt.Errorf("tcp: read stream preamble: %w", err)
	}
	if [3]byte(pre[:3]) != [3]byte(preamble[:3]) {
		return 0, fmt.Errorf("tcp: bad stream preamble %q", pre[:])
	}
	return pre[3], nil
}

// acceptHandshake reads the opening of an inbound stream — the preamble,
// then a hello frame repeating the version — and returns the dialer's
// canonical address.
func acceptHandshake(r *bufio.Reader, fr *frameReader) (string, error) {
	version, err := readPreamble(r)
	if err != nil {
		return "", err
	}
	if version != wire.FrameVersion {
		return "", skewError{version}
	}
	var f frame
	if err := fr.read(r, &f); err != nil {
		return "", fmt.Errorf("tcp: read hello: %w", err)
	}
	if f.Kind != frameHello || f.Addr == "" || f.Version != wire.FrameVersion {
		return "", fmt.Errorf("tcp: bad hello (kind %d, version %d, addr %q)", f.Kind, f.Version, f.Addr)
	}
	return f.Addr, nil
}
