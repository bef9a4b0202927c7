package vlog

import (
	"bytes"
	"testing"
)

// FuzzVlogRecordDecode drives the record, frame and pointer decoders
// and the group scanner with arbitrary bytes under an arbitrary
// segment seed. The invariants: no decoder may panic, anything
// accepted must re-encode to bytes that decode again with equal
// meaning, and the Scanner's ValidLen must always sit on a group
// boundary the scanner itself accepts.
func FuzzVlogRecordDecode(f *testing.F) {
	group := func(seg uint64, payload string, kvs ...string) []byte {
		var sink bytes.Buffer
		w := NewWriter(&sink, seg, 0)
		w.Begin()
		for i := 0; i+1 < len(kvs); i += 2 {
			w.Add([]byte(kvs[i]), []byte(kvs[i+1]))
		}
		w.Commit([]byte(payload))
		return sink.Bytes()
	}
	seed := [][]byte{
		AppendRecord(nil, 1, []byte("key000001"), []byte("value")),
		AppendRecord(nil, 1, nil, nil),
		group(1, "payload", "key000001", "value"),
		append(group(42, "", "a", string(bytes.Repeat([]byte("x"), 300)), "b", "y"), group(42, "p")...),
		group(42, "torn", "k", "v")[:20],
		AppendPointer(nil, Pointer{Seg: 9, Off: 4096, Len: 128}),
		AppendHeader(nil),
		{0, 0, 0, 0}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for _, s := range seed {
		f.Add(uint64(1), s)
		f.Add(uint64(42), s)
	}
	f.Fuzz(func(t *testing.T, seg uint64, data []byte) {
		if key, val, n, err := DecodeRecord(seg, data); err == nil {
			if n <= crcSize || n > len(data) {
				t.Fatalf("accepted record length %d out of range (%d, %d]", n, crcSize, len(data))
			}
			re := AppendRecord(nil, seg, key, val)
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("accepted record is not canonical: re-encode differs")
			}
			k2, v2, n2, err := DecodeRecord(seg, re)
			if err != nil || n2 != n || !bytes.Equal(k2, key) || !bytes.Equal(v2, val) {
				t.Fatalf("record round trip: n=%d/%d err=%v", n2, n, err)
			}
			if _, _, _, err := decodeFrame(seg, data); err == nil {
				t.Fatalf("the same bytes decode as a record and as a frame")
			}
		}
		if rbytes, payload, n, err := decodeFrame(seg, data); err == nil {
			if re := appendFrame(nil, seg, rbytes, payload); !bytes.Equal(re, data[:n]) {
				t.Fatalf("accepted frame is not canonical: re-encode differs")
			}
		}

		// The scanner must consume exactly whole groups and stop exactly
		// where no whole group follows.
		s := NewScanner(seg, data, 0)
		var groups int
		prev := int64(0)
		for s.Next() {
			groups++
			size := s.FrameLen()
			for i, r := range s.Records() {
				size += int64(r.Ptr.Len)
				if r.Ptr.Seg != seg || int64(r.Ptr.Off) < prev || int64(r.Ptr.Off)+int64(r.Ptr.Len) > s.ValidLen() {
					t.Fatalf("record %d pointer %+v outside its group [%d, %d)", i, r.Ptr, prev, s.ValidLen())
				}
			}
			if prev+size != s.ValidLen() {
				t.Fatalf("group at %d: records+frame = %d bytes, scanner advanced to %d", prev, size, s.ValidLen())
			}
			prev = s.ValidLen()
		}
		valid := s.ValidLen()
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("ValidLen %d out of range", valid)
		}
		if (s.Err() == nil) != (valid == int64(len(data))) {
			t.Fatalf("scan ended at %d of %d with err %v", valid, len(data), s.Err())
		}
		// Re-scanning the valid prefix must accept all of it, and so must
		// a scan started at any group boundary.
		s2 := NewScanner(seg, data[:valid], 0)
		n2 := 0
		for s2.Next() {
			n2++
		}
		if n2 != groups || s2.Err() != nil || s2.ValidLen() != valid {
			t.Fatalf("prefix rescan: %d/%d groups, err=%v, valid=%d/%d", n2, groups, s2.Err(), s2.ValidLen(), valid)
		}

		if p, err := DecodePointer(data); err == nil {
			if p2, err := DecodePointer(AppendPointer(nil, p)); err != nil || p2 != p {
				t.Fatalf("pointer round trip: %+v vs %+v, %v", p, p2, err)
			}
		}
		if err := CheckHeader(data); err == nil && !bytes.Equal(data[:HeaderSize], AppendHeader(nil)) {
			t.Fatalf("accepted header is not this format's")
		}
	})
}
