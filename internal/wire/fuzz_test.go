package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// errClass names which framing failure err is, "" for none.
func errClass(err error) string {
	for _, e := range []error{ErrBadFrame, ErrFrameTooLarge, io.ErrUnexpectedEOF, io.EOF} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	if err != nil {
		return "other: " + err.Error()
	}
	return ""
}

// FuzzFrameDecode drives the full decode surface — framing plus every
// payload decoder — with arbitrary bytes. The invariants: no decoder
// may panic, and anything a decoder accepts must re-encode to bytes
// the decoder accepts again with equal meaning (round-trip stability).
func FuzzFrameDecode(f *testing.F) {
	seed := [][]byte{
		AppendFrame(nil, &Frame{Op: OpHello, Payload: AppendHello(nil, Hello{Magic: Magic, Version: Version, Features: FeatureTrace})}),
		AppendFrame(nil, &Frame{Op: OpGet, ReqID: 1, Payload: AppendGet(nil, []byte("user000001"))}),
		AppendFrame(nil, &Frame{Op: OpPut, ReqID: 2, Payload: AppendPut(nil, []byte("k"), []byte("v"))}),
		AppendFrame(nil, &Frame{Op: OpDelete, ReqID: 3, Payload: AppendDelete(nil, []byte("k"))}),
		AppendFrame(nil, &Frame{Op: OpWriteBatch, ReqID: 4, Payload: AppendWriteBatch(nil, []BatchEntry{
			{Key: []byte("a"), Value: []byte("1")}, {Delete: true, Key: []byte("b")},
		})}),
		AppendFrame(nil, &Frame{Op: OpScan, ReqID: 5, Payload: AppendScan(nil, []byte("user"), 100)}),
		AppendFrame(nil, &Frame{Op: OpReply, ReqID: 6, Payload: Reply(6, StatusOK, AppendScanReply(nil, []KV{{Key: []byte("k"), Value: []byte("v")}})).Payload}),
		{0, 0, 0, 0}, {9, 0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8},
	}
	for _, s := range seed {
		f.Add(s)
	}
	// long is an earlier frame longer than any input, read into the
	// reused buffer first so its stale bytes lie past every new frame.
	long := func(n int) []byte {
		return AppendFrame(nil, &Frame{Op: OpPut, ReqID: 1<<64 - 1, Payload: bytes.Repeat([]byte{0xA5}, n)})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), 1<<20)
		// The buffer-reusing read agrees with ReadFrame, from an empty
		// buffer and from one still holding a longer earlier frame.
		var stale []byte
		if _, err := ReadFrameInto(bytes.NewReader(long(len(data))), 0, &stale); err != nil {
			t.Fatalf("reading the earlier frame: %v", err)
		}
		for _, buf := range [][]byte{nil, stale} {
			got, gerr := ReadFrameInto(bytes.NewReader(data), 1<<20, &buf)
			if errClass(gerr) != errClass(err) {
				t.Fatalf("ReadFrameInto err %v, ReadFrame err %v", gerr, err)
			}
			if err == nil && (got.Op != fr.Op || got.ReqID != fr.ReqID || !bytes.Equal(got.Payload, fr.Payload)) {
				t.Fatalf("ReadFrameInto %+v, ReadFrame %+v", got, fr)
			}
		}
		if err != nil {
			return
		}
		// Re-encoding an accepted frame must reproduce a decodable
		// prefix of the input.
		re := AppendFrame(nil, &fr)
		fr2, err := ReadFrame(bytes.NewReader(re), 1<<20)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if fr2.Op != fr.Op || fr2.ReqID != fr.ReqID || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("frame round-trip mismatch: %+v vs %+v", fr, fr2)
		}

		p := fr.Payload
		switch fr.Op {
		case OpHello:
			if h, err := DecodeHello(p); err == nil {
				if got, err := DecodeHello(AppendHello(nil, h)); err != nil || got != h {
					t.Fatalf("hello round-trip: %+v %v", got, err)
				}
			}
		case OpGet:
			if k, err := DecodeGet(p); err == nil {
				if k2, err := DecodeGet(AppendGet(nil, k)); err != nil || !bytes.Equal(k, k2) {
					t.Fatalf("get round-trip: %v", err)
				}
			}
		case OpPut:
			if k, v, err := DecodePut(p); err == nil {
				if k2, v2, err := DecodePut(AppendPut(nil, k, v)); err != nil || !bytes.Equal(k, k2) || !bytes.Equal(v, v2) {
					t.Fatalf("put round-trip: %v", err)
				}
			}
		case OpDelete:
			_, _ = DecodeDelete(p)
		case OpWriteBatch:
			if entries, err := DecodeWriteBatch(p); err == nil {
				re, err := DecodeWriteBatch(AppendWriteBatch(nil, entries))
				if err != nil || len(re) != len(entries) {
					t.Fatalf("batch round-trip: %d/%d %v", len(re), len(entries), err)
				}
			}
		case OpScan:
			if start, limit, err := DecodeScan(p); err == nil {
				s2, l2, err := DecodeScan(AppendScan(nil, start, limit))
				if err != nil || !bytes.Equal(start, s2) || limit != l2 {
					t.Fatalf("scan round-trip: %v", err)
				}
			}
		case OpReply:
			if st, body, err := ParseReply(p); err == nil {
				if kvs, err := DecodeScanReply(body); err == nil {
					if _, err := DecodeScanReply(AppendScanReply(nil, kvs)); err != nil {
						t.Fatalf("scan reply round-trip: %v", err)
					}
				}
				_ = st
			}
		}
	})
}
