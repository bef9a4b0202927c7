package vlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []struct{ key, value string }{
		{"k", "v"},
		{"key000042", string(bytes.Repeat([]byte{0xab}, 4096))},
		{"", "value-with-empty-key"},
		{"empty-value", ""},
		{"", ""},
	}
	var buf []byte
	for _, c := range cases {
		buf = AppendRecord(buf[:0], 7, []byte(c.key), []byte(c.value))
		if got := RecordSize(len(c.key), len(c.value)); got != len(buf) {
			t.Fatalf("RecordSize(%d, %d) = %d, encoded %d", len(c.key), len(c.value), got, len(buf))
		}
		k, v, n, err := DecodeRecord(7, buf)
		if err != nil {
			t.Fatalf("decode (%q, %q): %v", c.key, c.value, err)
		}
		if n != len(buf) || string(k) != c.key || string(v) != c.value {
			t.Fatalf("round trip (%q, %q): got (%q, %q) n=%d", c.key, c.value, k, v, n)
		}
	}
}

func TestRecordSegmentSeedMismatch(t *testing.T) {
	rec := AppendRecord(nil, 7, []byte("k"), []byte("v"))
	if _, _, _, err := DecodeRecord(8, rec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode under wrong segment seed: %v, want ErrCorrupt", err)
	}
}

func TestCRCSeedIsSegmentNumberPrefix(t *testing.T) {
	// The checksum is CRC-32C over the segment number's eight
	// little-endian bytes followed by the body, computed without a heap
	// allocation (pointer chases checksum one record per Get).
	body := []byte("kind, lengths, key and value")
	for _, seg := range []uint64{0, 1, 42, 1<<40 + 17, ^uint64(0)} {
		prefixed := append(binary.LittleEndian.AppendUint64(nil, seg), body...)
		if got, want := bodyCRC(seg, body), mask(crc32.Checksum(prefixed, castagnoli)); got != want {
			t.Fatalf("segment %d: crc %#x, want %#x", seg, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { bodyCRC(9, body) }); n != 0 {
		t.Fatalf("bodyCRC allocates %v times per call", n)
	}
}

func TestRecordCorruption(t *testing.T) {
	rec := AppendRecord(nil, 3, []byte("key"), bytes.Repeat([]byte("v"), 100))
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x40
		if _, _, _, err := DecodeRecord(3, mut); err == nil {
			t.Fatalf("flipped byte %d decoded clean", i)
		}
	}
	for cut := 0; cut < len(rec); cut++ {
		if _, _, _, err := DecodeRecord(3, rec[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestPointerRoundTrip(t *testing.T) {
	p := Pointer{Seg: 1<<40 + 17, Off: 123456, Len: 789}
	b := AppendPointer(nil, p)
	if len(b) != PointerSize {
		t.Fatalf("encoded pointer is %d bytes, want %d", len(b), PointerSize)
	}
	got, err := DecodePointer(b)
	if err != nil || got != p {
		t.Fatalf("pointer round trip: %+v, %v", got, err)
	}
	if _, err := DecodePointer(b[:PointerSize-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short pointer: %v, want ErrCorrupt", err)
	}
}

func TestHeader(t *testing.T) {
	h := AppendHeader(nil)
	if len(h) != HeaderSize {
		t.Fatalf("header is %d bytes, want %d", len(h), HeaderSize)
	}
	if err := CheckHeader(append(h, "trailing group bytes"...)); err != nil {
		t.Fatalf("own header rejected: %v", err)
	}
	future := append([]byte(nil), h...)
	future[4]++
	for name, b := range map[string][]byte{
		"future version":    future,
		"short":             h[:HeaderSize-1],
		"empty":             nil,
		"version-1 segment": {0xde, 0xad, 0xbe, 0xef, 3, 5, 'k', 'e', 'y', 'v', 'a', 'l', 'u', 'e'}, // headerless: crc klen vlen key value
	} {
		if err := CheckHeader(b); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: %v, want ErrFormat", name, err)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	frame := appendFrame(nil, 3, 1234, []byte("the batch that stayed out of the log"))
	if got := FrameSize(1234, 36); got != len(frame) {
		t.Fatalf("FrameSize = %d, encoded %d", got, len(frame))
	}
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, _, _, err := decodeFrame(3, mut); err == nil {
			t.Fatalf("flipped byte %d decoded clean", i)
		}
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, _, err := decodeFrame(3, frame[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: %v, want ErrCorrupt", cut, err)
		}
	}
	// A record is not a frame and a frame is not a record.
	rec := AppendRecord(nil, 3, []byte("k"), []byte("v"))
	if _, _, _, err := decodeFrame(3, rec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("record decoded as a frame: %v", err)
	}
	if _, _, _, err := DecodeRecord(3, frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("frame decoded as a record: %v", err)
	}
}

// countingSink counts Write calls: a group must reach the device as
// exactly one.
type countingSink struct {
	bytes.Buffer
	writes int
}

func (s *countingSink) Write(p []byte) (int, error) {
	s.writes++
	return s.Buffer.Write(p)
}

func TestWriterScannerTornTail(t *testing.T) {
	var sink countingSink
	sink.Buffer.Write(AppendHeader(nil))
	w := NewWriter(&sink, 11, HeaderSize)
	type group struct {
		keys, vals []string
		payload    string
		ptrs       []Pointer
		end        int64
	}
	groups := []group{
		{keys: []string{"alpha"}, vals: []string{string(bytes.Repeat([]byte("A"), 200))}, payload: "first"},
		{keys: []string{"beta", "gamma", ""}, vals: []string{string(bytes.Repeat([]byte("B"), 90)), "", "empty key"}, payload: ""},
		{keys: []string{"delta"}, vals: []string{string(bytes.Repeat([]byte("C"), 500))}, payload: "third frame payload"},
	}
	for i := range groups {
		g := &groups[i]
		w.Begin()
		for j := range g.keys {
			g.ptrs = append(g.ptrs, w.Add([]byte(g.keys[j]), []byte(g.vals[j])))
		}
		if want := w.GroupSize(len(g.payload)); !w.Fits(want) {
			t.Fatalf("group %d does not fit an unbounded writer", i)
		}
		before, overhead := w.Offset(), w.Overhead()
		n, err := w.Commit([]byte(g.payload))
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		// The writer counts what no pointer will reference: its frames.
		frame := int(w.Overhead() - overhead)
		if w.Offset() != before+int64(n) || w.Offset() != int64(sink.Len()) || frame != FrameSize(n-frame, len(g.payload)) {
			t.Fatalf("group %d: offset %d after %d+%d (frame %d), sink holds %d", i, w.Offset(), before, n, frame, sink.Len())
		}
		g.end = w.Offset()
	}
	if sink.writes != len(groups) {
		t.Fatalf("%d groups took %d writes, want one each", len(groups), sink.writes)
	}
	full := sink.Bytes()
	if err := CheckHeader(full); err != nil {
		t.Fatal(err)
	}

	// Clean scan: every group, records and pointers matching what Add
	// issued, frames carrying their payloads.
	s := NewScanner(11, full[HeaderSize:], HeaderSize)
	for i, g := range groups {
		if !s.Next() {
			t.Fatalf("scan stopped at group %d: %v", i, s.Err())
		}
		recs := s.Records()
		if len(recs) != len(g.keys) || string(s.Payload()) != g.payload || s.ValidLen() != g.end {
			t.Fatalf("group %d: %d records, payload %q, end %d; want %d, %q, %d",
				i, len(recs), s.Payload(), s.ValidLen(), len(g.keys), g.payload, g.end)
		}
		var recBytes int64
		for j, r := range recs {
			if string(r.Key) != g.keys[j] || string(r.Value) != g.vals[j] || r.Ptr != g.ptrs[j] {
				t.Fatalf("group %d record %d: key %q value len %d ptr %+v, want %q/%d/%+v",
					i, j, r.Key, len(r.Value), r.Ptr, g.keys[j], len(g.vals[j]), g.ptrs[j])
			}
			// Pointer-addressed slice must decode back to the same record.
			k, v, _, err := DecodeRecord(11, full[r.Ptr.Off:r.Ptr.Off+r.Ptr.Len])
			if err != nil || string(k) != g.keys[j] || string(v) != g.vals[j] {
				t.Fatalf("pointer chase of group %d record %d: %q, %v", i, j, k, err)
			}
			recBytes += int64(r.Ptr.Len)
		}
		if want := int64(FrameSize(int(recBytes), len(g.payload))); s.FrameLen() != want {
			t.Fatalf("group %d: FrameLen %d, want %d", i, s.FrameLen(), want)
		}
	}
	if s.Next() || s.Err() != nil {
		t.Fatalf("clean scan did not end cleanly: err=%v", s.Err())
	}

	// Torn tail: cut the last group's write at every byte. Whether the
	// cut lands in a record or in the frame, the whole group is dropped
	// — records without their frame were never acknowledged — and
	// ValidLen lands on the boundary before it.
	lastStart := groups[1].end
	for cut := lastStart + 1; cut < int64(len(full)); cut++ {
		ts := NewScanner(11, full[HeaderSize:cut], HeaderSize)
		n := 0
		for ts.Next() {
			n++
		}
		if n != 2 || ts.ValidLen() != lastStart || !errors.Is(ts.Err(), ErrCorrupt) || len(ts.Records()) != 0 {
			t.Fatalf("cut %d: %d groups, ValidLen %d, err %v; want 2 groups at %d", cut, n, ts.ValidLen(), ts.Err(), lastStart)
		}
	}
	// A frame that vouches for a different record run than the one in
	// front of it (a group missing its first record) is refused.
	g1 := groups[0].end
	spliced := append(append([]byte(nil), full[:g1]...), full[g1+int64(groups[1].ptrs[0].Len):groups[1].end]...)
	ss := NewScanner(11, spliced[g1:], g1)
	if ss.Next() || !errors.Is(ss.Err(), ErrCorrupt) {
		t.Fatalf("group short of a record scanned clean: %v", ss.Err())
	}

	// A scanner started at a later group boundary (the replay head)
	// yields the same pointers.
	hs := NewScanner(11, full[groups[0].end:], groups[0].end)
	if !hs.Next() || hs.Records()[0].Ptr != groups[1].ptrs[0] {
		t.Fatalf("scan from a group boundary: %+v, %v", hs.Records(), hs.Err())
	}

	// A writer reopened at the recovered length keeps issuing correct
	// pointers.
	w2 := NewWriter(&sink, 11, int64(sink.Len()))
	p, err := w2.Append([]byte("epsilon"), []byte("E"))
	if err != nil {
		t.Fatalf("reopened append: %v", err)
	}
	k, v, _, err := DecodeRecord(11, sink.Bytes()[p.Off:p.Off+p.Len])
	if err != nil || string(k) != "epsilon" || string(v) != "E" {
		t.Fatalf("reopened pointer chase: %q %q %v", k, v, err)
	}
}

func TestWriterNeverStraddlesSegment(t *testing.T) {
	var sink countingSink
	var w Writer // the zero Writer has no segment and no room
	if w.Seg() != 0 || w.Fits(1) {
		t.Fatalf("zero writer: seg %d, fits a byte: %v", w.Seg(), w.Fits(1))
	}
	w.Reset(&sink, 5, HeaderSize, HeaderSize, 256)
	w.Begin()
	w.Add([]byte("k"), bytes.Repeat([]byte("v"), 300))
	if w.Fits(w.GroupSize(0)) {
		t.Fatal("a 300-byte value fits a 256-byte segment")
	}
	if _, err := w.Commit(nil); err == nil {
		t.Fatal("oversized group committed")
	}
	if sink.writes != 0 || w.Offset() != HeaderSize {
		t.Fatalf("refused commit wrote %d times, offset %d", sink.writes, w.Offset())
	}
	// The same group fits after the engine rotates to a big enough
	// segment; Reset kept nothing of the refused one.
	w.Reset(&sink, 6, HeaderSize, HeaderSize, 1024)
	p := w.Add([]byte("k"), bytes.Repeat([]byte("v"), 300))
	if p.Seg != 6 || p.Off != HeaderSize || len(w.Records()) != 1 {
		t.Fatalf("after reset: pointer %+v, %d records", p, len(w.Records()))
	}
	if _, err := w.Commit(nil); err != nil {
		t.Fatal(err)
	}
}
