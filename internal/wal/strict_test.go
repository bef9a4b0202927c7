package wal

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// TestStopsAtFirstCorruption: the reader must end the stream at the
// first damaged fragment even when later blocks hold valid records.
func TestStopsAtFirstCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	big := make([]byte, BlockSize) // spans two blocks
	for i := range big {
		big[i] = byte(i)
	}
	w.AddRecord([]byte("good-one"))
	w.AddRecord(big)
	w.AddRecord([]byte("good-two"))
	data := append([]byte(nil), buf.Bytes()...)
	data[len("good-one")+headerSize+headerSize+3] ^= 0xff // damage the big record's first block

	r := NewTaggedReader(bytes.NewReader(data), testTag)
	got, err := r.ReadRecord()
	if err != nil || string(got) != "good-one" {
		t.Fatalf("first record: %q, %v", got, err)
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("reader continued past corruption: %v", err)
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("reader did not stay at EOF: %v", err)
	}
	if r.Skipped() == 0 {
		t.Error("reader reported no skipped bytes")
	}
	wantEnd := int64(headerSize + len("good-one"))
	if r.LastRecordEnd() != wantEnd {
		t.Errorf("LastRecordEnd = %d, want %d", r.LastRecordEnd(), wantEnd)
	}
}

// TestLastRecordEndResumesWriter: appending at LastRecordEnd with a
// reopened writer after a torn tail must yield a log that reads back
// as the intact prefix plus the new records.
func TestLastRecordEndResumesWriter(t *testing.T) {
	for _, torn := range []int{1, headerSize - 1, headerSize + 5} {
		var buf bytes.Buffer
		w := NewTaggedWriter(&buf, testTag)
		var want [][]byte
		for i := 0; i < 40; i++ {
			rec := []byte(fmt.Sprintf("rec-%04d-%s", i, string(make([]byte, i*7%200))))
			w.AddRecord(rec)
			want = append(want, rec)
		}
		// Tear the final append: keep a partial fragment.
		data := buf.Bytes()
		partial := append([]byte(nil), data...)
		partial = append(partial, make([]byte, torn)...) // torn garbage header/payload prefix

		r := NewTaggedReader(bytes.NewReader(partial), testTag)
		n := 0
		for {
			if _, err := r.ReadRecord(); err != nil {
				break
			}
			n++
		}
		if n != len(want) {
			t.Fatalf("torn %d: read %d records, want %d", torn, n, len(want))
		}
		end := r.LastRecordEnd()

		resumed := bytes.NewBuffer(partial[:end])
		w2 := NewReopenedWriter(resumed, testTag, end)
		w2.AddRecord([]byte("after-tear"))
		want = append(want, []byte("after-tear"))

		r2 := NewTaggedReader(bytes.NewReader(resumed.Bytes()), testTag)
		for i, wantRec := range want {
			got, err := r2.ReadRecord()
			if err != nil || !bytes.Equal(got, wantRec) {
				t.Fatalf("torn %d: record %d: %q, %v", torn, i, got, err)
			}
		}
	}
}

// TestTaggedStreamsReject: a reader with the wrong tag must treat
// every fragment as corrupt — the stale-extent protection.
func TestTaggedStreamsReject(t *testing.T) {
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, 7)
	w.AddRecord([]byte("tagged-record"))

	good := NewTaggedReader(bytes.NewReader(buf.Bytes()), 7)
	if rec, err := good.ReadRecord(); err != nil || string(rec) != "tagged-record" {
		t.Fatalf("matching tag: %q, %v", rec, err)
	}

	for _, tag := range []uint64{0, 8} {
		bad := NewTaggedReader(bytes.NewReader(buf.Bytes()), tag)
		if _, err := bad.ReadRecord(); err != io.EOF {
			t.Fatalf("tag %d accepted a foreign stream: %v", tag, err)
		}
	}
}
