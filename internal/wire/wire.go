// Package wire defines SEALDB's binary network protocol: a
// length-prefixed frame format carrying request-scoped opcodes and
// 64-bit request IDs, so a connection can pipeline many requests and
// receive the responses out of order.
//
// Frame layout (all integers little-endian):
//
//	uint32  length   (bytes after this field: opcode + id + payload)
//	uint8   opcode
//	uint64  request id (echoed verbatim in the response frame)
//	[]byte  payload  (opcode-specific, see payload.go)
//
// A connection starts with a handshake: the client's first frame must
// be OpHello carrying the protocol magic, its version, and a feature
// bitmask; the server answers with an OpReply Hello payload holding
// its version and the feature intersection. Everything after the
// handshake is free-form pipelined request/response traffic.
//
// The package is pure encoding — no sockets, no engine imports — so
// the server, the client, and the fuzzer all share one definition of
// what bytes mean.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Protocol identity.
const (
	// Magic is the handshake magic number ("SEAL" big-endian).
	Magic uint32 = 0x5345414C
	// Version is the protocol version this build speaks.
	Version uint16 = 1
)

// Feature bits advertised in the handshake. The server replies with
// the intersection of the client's mask and its own.
const (
	// Bits 0 and 1 are retired (pipeline, coalesce): a server drops
	// them from its reply like any unknown bit. A connection's requests
	// execute in arrival order and replies carry their request ids, so
	// pipelining needs no negotiation.

	// FeatureTrace: the client asks the server to enable request
	// tracing — its request ids are threaded into the engine so
	// sampled operations journal span trees attributing physical I/O
	// back to the wire request.
	FeatureTrace uint32 = 1 << 2
)

// Op is a frame opcode.
type Op uint8

// Request opcodes, plus the single response opcode OpReply.
const (
	OpHello      Op = 1
	OpGet        Op = 2
	OpPut        Op = 3
	OpDelete     Op = 4
	OpWriteBatch Op = 5
	OpScan       Op = 6
	OpStats      Op = 7

	// OpReply marks a response frame; the payload begins with a
	// Status byte followed by the op-specific body.
	OpReply Op = 0x80
)

func (o Op) String() string {
	switch o {
	case OpHello:
		return "HELLO"
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpWriteBatch:
		return "WRITEBATCH"
	case OpScan:
		return "SCAN"
	case OpStats:
		return "STATS"
	case OpReply:
		return "REPLY"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Status is the first byte of every reply payload.
type Status uint8

// Reply status codes. StatusDegraded is distinct from StatusInternal
// so clients can tell "this store is read-only after a permanent
// device failure" (retrying elsewhere may help, retrying here will
// not) from a transient server-side error.
const (
	StatusOK          Status = 0
	StatusNotFound    Status = 1
	StatusDegraded    Status = 2
	StatusClosed      Status = 3
	StatusBadRequest  Status = 4
	StatusInternal    Status = 5
	StatusTooLarge    Status = 6
	StatusUnavailable Status = 7
	// StatusCorrupt reports that the engine detected on-media
	// corruption (an SSTable block failed its CRC) while serving the
	// request. Distinct from StatusInternal so clients and operators
	// can tell media damage from software failure.
	StatusCorrupt Status = 8
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusDegraded:
		return "DEGRADED"
	case StatusClosed:
		return "CLOSED"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusInternal:
		return "INTERNAL"
	case StatusTooLarge:
		return "TOO_LARGE"
	case StatusUnavailable:
		return "UNAVAILABLE"
	case StatusCorrupt:
		return "CORRUPT"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Frame limits.
const (
	// headerLen is opcode + request id, the fixed bytes covered by the
	// length prefix alongside the payload.
	headerLen = 1 + 8
	// DefaultMaxFrame bounds a frame's length field unless the caller
	// chooses otherwise; it caps memory a peer can demand per frame.
	DefaultMaxFrame = 16 << 20
)

// Framing errors.
var (
	// ErrFrameTooLarge reports a length prefix above the reader's
	// configured bound.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadFrame reports a structurally invalid frame or payload.
	ErrBadFrame = errors.New("wire: malformed frame")
)

// Frame is one protocol message.
type Frame struct {
	Op    Op
	ReqID uint64
	// Payload is the opcode-specific body. From ReadFrame it is the
	// caller's to keep; from ReadFrameInto it aliases the reused buffer
	// and is overwritten by the next read into it. The payload decoders
	// return slices aliasing Payload, so the same lifetime holds for them.
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns the
// extended slice. It never fails: payload size policy is enforced by
// the reader on the other end.
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+len(f.Payload)))
	dst = append(dst, byte(f.Op))
	dst = binary.LittleEndian.AppendUint64(dst, f.ReqID)
	return append(dst, f.Payload...)
}

// AppendRequest appends a request frame for op and reqID whose payload
// is what payload appends to the frame's header, so a request is
// encoded in place with no payload buffer of its own.
func AppendRequest(dst []byte, op Op, reqID uint64, payload func([]byte) []byte) []byte {
	start := len(dst)
	dst = payload(AppendFrame(dst, &Frame{Op: op, ReqID: reqID}))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// AppendReplyHeader appends the header of a reply frame for reqID, up
// to and including its status byte, for a body of n bytes that the
// caller writes right after it.
func AppendReplyHeader(dst []byte, reqID uint64, st Status, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+1+n))
	dst = append(dst, byte(OpReply))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	return append(dst, byte(st))
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f *Frame) error {
	buf := AppendFrame(make([]byte, 0, 4+headerLen+len(f.Payload)), f)
	_, err := w.Write(buf)
	return err
}

// FrameBuffered reports whether br already holds one whole frame, so
// that reading it will not wait on the underlying reader.
func FrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	return int64(n-4) >= int64(binary.LittleEndian.Uint32(hdr))
}

// ReadFrame reads one frame from r, rejecting frames whose declared
// length exceeds max (0 means DefaultMaxFrame). The returned payload
// is freshly allocated and safe to retain.
func ReadFrame(r io.Reader, max int) (Frame, error) {
	var buf []byte
	return ReadFrameInto(r, max, &buf)
}

// ReadFrameInto is ReadFrame reading into *buf, which it grows when a
// frame does not fit and leaves holding the frame's bytes after the
// length prefix. The returned payload aliases *buf: it is valid only
// until the next read into the same buffer.
func ReadFrameInto(r io.Reader, max int, buf *[]byte) (Frame, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	// The length prefix is read into the buffer too: a local array
	// handed to r would escape to the heap on every read.
	b := slices.Grow((*buf)[:0], 4)[:4]
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(b)
	if n < headerLen {
		return Frame{}, fmt.Errorf("%w: length %d below header size", ErrBadFrame, n)
	}
	if int64(n) > int64(max) {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	b = slices.Grow(b[:0], int(n))[:n]
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		// A frame torn mid-body is a protocol error, not a clean EOF.
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{
		Op:      Op(b[0]),
		ReqID:   binary.LittleEndian.Uint64(b[1:9]),
		Payload: b[headerLen:],
	}, nil
}

// Hello is the handshake payload, sent by the client as OpHello and
// echoed (with the server's version and the negotiated features) in
// the reply body.
type Hello struct {
	Magic    uint32
	Version  uint16
	Features uint32
}

// AppendHello appends the encoded handshake payload to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, h.Magic)
	dst = binary.LittleEndian.AppendUint16(dst, h.Version)
	return binary.LittleEndian.AppendUint32(dst, h.Features)
}

// DecodeHello parses a handshake payload.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) != 10 {
		return Hello{}, fmt.Errorf("%w: hello payload %d bytes, want 10", ErrBadFrame, len(p))
	}
	return Hello{
		Magic:    binary.LittleEndian.Uint32(p[0:4]),
		Version:  binary.LittleEndian.Uint16(p[4:6]),
		Features: binary.LittleEndian.Uint32(p[6:10]),
	}, nil
}
