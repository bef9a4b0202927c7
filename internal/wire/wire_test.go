package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpHello, ReqID: 0, Payload: AppendHello(nil, Hello{Magic: Magic, Version: Version, Features: FeatureTrace})},
		{Op: OpGet, ReqID: 1, Payload: AppendGet(nil, []byte("k"))},
		{Op: OpPut, ReqID: 1 << 40, Payload: AppendPut(nil, []byte("key"), bytes.Repeat([]byte("v"), 1000))},
		{Op: OpDelete, ReqID: 3, Payload: AppendDelete(nil, nil)},
		{Op: OpStats, ReqID: 4},
	}
	var buf bytes.Buffer
	for i := range frames {
		if err := WriteFrame(&buf, &frames[i]); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	for i := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Op != frames[i].Op || got.ReqID != frames[i].ReqID || !bytes.Equal(got.Payload, frames[i].Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, frames[i])
		}
	}
	if _, err := ReadFrame(&buf, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("trailing read: %v, want EOF", err)
	}
}

func TestReadFrameLimits(t *testing.T) {
	big := Frame{Op: OpPut, ReqID: 9, Payload: make([]byte, 4096)}
	buf := AppendFrame(nil, &big)
	if _, err := ReadFrame(bytes.NewReader(buf), 128); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
	// A length prefix below the fixed header is malformed, not a short read.
	if _, err := ReadFrame(bytes.NewReader([]byte{3, 0, 0, 0, 1, 2, 3}), 0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short length: %v, want ErrBadFrame", err)
	}
	// A frame torn mid-body is ErrUnexpectedEOF, not a clean EOF.
	torn := buf[:len(buf)-10]
	if _, err := ReadFrame(bytes.NewReader(torn), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: %v, want ErrUnexpectedEOF", err)
	}
}

// TestFrameBuffered checks the whole-frame test a server uses to decide
// whether to flush before its next read: true only once every byte of
// the next frame is buffered, and never by reading on.
func TestFrameBuffered(t *testing.T) {
	frame := AppendFrame(nil, &Frame{Op: OpPut, ReqID: 1, Payload: AppendPut(nil, []byte("k"), []byte("v"))})
	two := append(append([]byte(nil), frame...), frame...)
	for n := 0; n <= len(two); n++ {
		br := bufio.NewReader(bytes.NewReader(two[:n]))
		if n > 0 {
			if _, err := br.Peek(n); err != nil {
				t.Fatalf("prefix %d: %v", n, err)
			}
		}
		if got, want := FrameBuffered(br), n >= len(frame); got != want {
			t.Fatalf("%d of %d bytes buffered: FrameBuffered = %v, want %v", n, len(frame), got, want)
		}
		if br.Buffered() != n {
			t.Fatalf("FrameBuffered read on: %d bytes buffered, want %d", br.Buffered(), n)
		}
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	if k, err := DecodeGet(AppendGet(nil, []byte("alpha"))); err != nil || string(k) != "alpha" {
		t.Fatalf("get: %q %v", k, err)
	}
	k, v, err := DecodePut(AppendPut(nil, []byte("k1"), []byte("v1")))
	if err != nil || string(k) != "k1" || string(v) != "v1" {
		t.Fatalf("put: %q %q %v", k, v, err)
	}
	if k, err := DecodeDelete(AppendDelete(nil, []byte("dead"))); err != nil || string(k) != "dead" {
		t.Fatalf("delete: %q %v", k, err)
	}

	entries := []BatchEntry{
		{Key: []byte("a"), Value: []byte("1")},
		{Delete: true, Key: []byte("b")},
		{Key: []byte("c"), Value: nil},
	}
	got, err := DecodeWriteBatch(AppendWriteBatch(nil, entries))
	if err != nil || len(got) != len(entries) {
		t.Fatalf("batch: %d entries, %v", len(got), err)
	}
	for i := range entries {
		if got[i].Delete != entries[i].Delete ||
			!bytes.Equal(got[i].Key, entries[i].Key) ||
			!bytes.Equal(got[i].Value, entries[i].Value) {
			t.Fatalf("batch entry %d: %+v want %+v", i, got[i], entries[i])
		}
	}

	start, limit, err := DecodeScan(AppendScan(nil, []byte("user0"), 42))
	if err != nil || string(start) != "user0" || limit != 42 {
		t.Fatalf("scan: %q %d %v", start, limit, err)
	}

	kvs := []KV{{Key: []byte("k"), Value: []byte("v")}, {Key: []byte("k2"), Value: nil}}
	gotKVs, err := DecodeScanReply(AppendScanReply(nil, kvs))
	if err != nil || len(gotKVs) != 2 {
		t.Fatalf("scan reply: %d %v", len(gotKVs), err)
	}

	h, err := DecodeHello(AppendHello(nil, Hello{Magic: Magic, Version: 7, Features: 3}))
	if err != nil || h.Magic != Magic || h.Version != 7 || h.Features != 3 {
		t.Fatalf("hello: %+v %v", h, err)
	}
}

func TestReply(t *testing.T) {
	f := Reply(77, StatusDegraded, []byte("read-only"))
	if f.Op != OpReply || f.ReqID != 77 {
		t.Fatalf("reply frame: %+v", f)
	}
	st, body, err := ParseReply(f.Payload)
	if err != nil || st != StatusDegraded || string(body) != "read-only" {
		t.Fatalf("parse reply: %v %q %v", st, body, err)
	}
	if _, _, err := ParseReply(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty reply: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {0xff}, {2, 1}, bytes.Repeat([]byte{0xff}, 16)}
	for _, p := range cases {
		// Every decoder must reject cleanly, never panic.
		if _, _, err := DecodePut(p); err == nil && len(p) != 0 {
			t.Logf("put accepted %x", p)
		}
		_, _ = DecodeGet(p)
		_, _ = DecodeWriteBatch(p)
		_, _, _ = DecodeScan(p)
		_, _ = DecodeScanReply(p)
		_, _ = DecodeHello(p)
	}
	// A batch whose declared count far exceeds its bytes must fail
	// before allocating for the count.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeWriteBatch(huge); err == nil {
		t.Fatal("huge batch count accepted")
	}
}

// TestInPlaceEncodingsMatchFrames pins the in-place encoders to the
// bytes of the frames they stand in for: a request whose payload is
// appended after its header, and a reply header followed by its body.
func TestInPlaceEncodingsMatchFrames(t *testing.T) {
	key, value := []byte("key"), bytes.Repeat([]byte("v"), 300)
	req := AppendRequest([]byte("prefix"), OpPut, 7, func(b []byte) []byte { return AppendPut(b, key, value) })
	want := AppendFrame([]byte("prefix"), &Frame{Op: OpPut, ReqID: 7, Payload: AppendPut(nil, key, value)})
	if !bytes.Equal(req, want) {
		t.Fatalf("AppendRequest = %x, want %x", req, want)
	}
	for _, body := range [][]byte{nil, value} {
		got := append(AppendReplyHeader(nil, 9, StatusNotFound, len(body)), body...)
		r := Reply(9, StatusNotFound, body)
		if want := AppendFrame(nil, &r); !bytes.Equal(got, want) {
			t.Fatalf("reply header + %d-byte body = %x, want %x", len(body), got, want)
		}
	}
}

// TestReadFrameIntoReusesBuffer reads a stream of frames into one
// buffer: each payload aliases it, and once it has grown to the
// largest frame no read allocates.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var stream []byte
	for i, n := range []int{100, 3, 0, 40} {
		stream = AppendFrame(stream, &Frame{Op: OpGet, ReqID: uint64(i), Payload: bytes.Repeat([]byte{byte(i)}, n)})
	}
	r := bytes.NewReader(stream)
	var buf []byte
	readAll := func() {
		r.Reset(stream)
		for i := 0; ; i++ {
			f, err := ReadFrameInto(r, 0, &buf)
			if err == io.EOF {
				return
			}
			if err != nil || f.ReqID != uint64(i) || len(f.Payload) > 0 && (f.Payload[0] != byte(i) || &f.Payload[0] != &buf[headerLen]) {
				t.Fatalf("frame %d: %+v, %v", i, f, err)
			}
		}
	}
	readAll()
	if n := testing.AllocsPerRun(100, readAll); n > 0 {
		t.Fatalf("reading a stream into a warm buffer allocates %.1f objects, want 0", n)
	}
}
