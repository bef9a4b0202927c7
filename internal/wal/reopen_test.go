package wal

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// TestReopenedWriterContinuesBlockFraming: records appended by a
// reopened writer mid-block must read back in one pass with the
// originals.
func TestReopenedWriterContinuesBlockFraming(t *testing.T) {
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	var want [][]byte
	for i := 0; i < 10; i++ {
		rec := []byte(fmt.Sprintf("first-phase-%02d", i))
		w.AddRecord(rec)
		want = append(want, rec)
	}
	size := int64(buf.Len())

	// Reopen mid-block (size is nowhere near a 32 KiB boundary).
	w2 := NewReopenedWriter(&buf, testTag, size)
	for i := 0; i < 10; i++ {
		rec := []byte(fmt.Sprintf("second-phase-%02d", i))
		w2.AddRecord(rec)
		want = append(want, rec)
	}

	r := NewTaggedReader(bytes.NewReader(buf.Bytes()), testTag)
	for i, wantRec := range want {
		got, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, wantRec) {
			t.Fatalf("record %d: %q != %q", i, got, wantRec)
		}
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if r.Skipped() != 0 {
		t.Errorf("skipped %d bytes on a clean reopened log", r.Skipped())
	}
}

// TestReopenedWriterAcrossBlockBoundary: reopening exactly at and
// just past block boundaries.
func TestReopenedWriterAcrossBlockBoundary(t *testing.T) {
	for _, pad := range []int{0, 1, headerSize, BlockSize / 2} {
		var buf bytes.Buffer
		w := NewTaggedWriter(&buf, testTag)
		// Fill to an exact point near the boundary.
		fill := make([]byte, BlockSize-headerSize-headerSize-pad)
		w.AddRecord(fill)
		size := int64(buf.Len())

		w2 := NewReopenedWriter(&buf, testTag, size)
		w2.AddRecord([]byte("tail-record"))

		r := NewTaggedReader(bytes.NewReader(buf.Bytes()), testTag)
		got1, err1 := r.ReadRecord()
		if err1 != nil || len(got1) != len(fill) {
			t.Fatalf("pad %d: first record err=%v len=%d", pad, err1, len(got1))
		}
		got2, err2 := r.ReadRecord()
		if err2 != nil || string(got2) != "tail-record" {
			t.Fatalf("pad %d: second record err=%v %q", pad, err2, got2)
		}
	}
}
