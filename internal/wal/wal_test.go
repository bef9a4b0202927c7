package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// testTag is the file number the tests' streams are bound to.
const testTag = 7

func roundTrip(t *testing.T, records [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	for i, rec := range records {
		if err := w.AddRecord(rec); err != nil {
			t.Fatalf("AddRecord %d: %v", i, err)
		}
	}
	r := NewTaggedReader(bytes.NewReader(buf.Bytes()), testTag)
	for i, want := range records {
		got, err := r.ReadRecord()
		if err != nil {
			t.Fatalf("ReadRecord %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if r.Skipped() != 0 {
		t.Errorf("clean log reported %d skipped bytes", r.Skipped())
	}
}

func TestRoundTripSmall(t *testing.T) {
	roundTrip(t, [][]byte{
		[]byte("hello"),
		[]byte(""),
		[]byte("world"),
		bytes.Repeat([]byte("x"), 100),
	})
}

func TestRoundTripLargeRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var records [][]byte
	for _, size := range []int{
		BlockSize - headerSize,     // exactly one block
		BlockSize - headerSize - 1, // just under
		BlockSize,                  // must fragment
		3*BlockSize + 17,           // first/middle/middle/last
		1,
		0,
	} {
		b := make([]byte, size)
		rng.Read(b)
		records = append(records, b)
	}
	roundTrip(t, records)
}

func TestRoundTripRandom(t *testing.T) {
	f := func(recs [][]byte) bool {
		var buf bytes.Buffer
		w := NewTaggedWriter(&buf, testTag)
		for _, r := range recs {
			if err := w.AddRecord(r); err != nil {
				return false
			}
		}
		rd := NewTaggedReader(bytes.NewReader(buf.Bytes()), testTag)
		for _, want := range recs {
			got, err := rd.ReadRecord()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := rd.ReadRecord()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTornTailDropped(t *testing.T) {
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	w.AddRecord([]byte("complete"))
	w.AddRecord(bytes.Repeat([]byte("t"), 2*BlockSize)) // fragmented
	data := buf.Bytes()
	// Truncate mid-way through the fragmented record, simulating a
	// crash during append.
	data = data[:BlockSize+100]

	r := NewTaggedReader(bytes.NewReader(data), testTag)
	got, err := r.ReadRecord()
	if err != nil || string(got) != "complete" {
		t.Fatalf("complete record lost: %v", err)
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("torn tail should yield EOF, got %v", err)
	}
}

func TestZeroFilledTailIgnored(t *testing.T) {
	// A preallocated log extent has zero blocks past the last record.
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	w.AddRecord([]byte("rec"))
	data := append(buf.Bytes(), make([]byte, 2*BlockSize)...)
	r := NewTaggedReader(bytes.NewReader(data), testTag)
	if got, err := r.ReadRecord(); err != nil || string(got) != "rec" {
		t.Fatalf("got %q, %v", got, err)
	}
	if _, err := r.ReadRecord(); err != io.EOF {
		t.Fatalf("zero tail should read as EOF, got %v", err)
	}
}

func TestBlockBoundaryTrailer(t *testing.T) {
	// Force a record to start with < headerSize bytes left in the
	// block: the writer must zero-fill and move to the next block.
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	first := make([]byte, BlockSize-headerSize-headerSize-3) // leaves 3 bytes
	w.AddRecord(first)
	w.AddRecord([]byte("second"))
	r := NewTaggedReader(bytes.NewReader(buf.Bytes()), testTag)
	got1, err1 := r.ReadRecord()
	got2, err2 := r.ReadRecord()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(got1) != len(first) || string(got2) != "second" {
		t.Error("trailer handling corrupted records")
	}
}

func TestWriterSize(t *testing.T) {
	var buf bytes.Buffer
	w := NewTaggedWriter(&buf, testTag)
	w.AddRecord([]byte("abc"))
	if w.Size() != int64(buf.Len()) {
		t.Errorf("Size %d != buffer %d", w.Size(), buf.Len())
	}
}

// countingWriter counts the writes it is handed.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// twoWriteLog frames records as a writer that hands each fragment's
// header and payload to the stream in two writes, and returns the bytes
// and the number of one-write fragments and trailers they make.
func twoWriteLog(records [][]byte) ([]byte, int) {
	var out bytes.Buffer
	var seed [9]byte
	off, units := 0, 0
	for _, rec := range records {
		for begin := true; ; begin = false {
			if left := BlockSize - off; left < headerSize {
				if left > 0 {
					out.Write(make([]byte, left))
					units++
				}
				off = 0
			}
			frag := rec[:min(len(rec), BlockSize-off-headerSize)]
			end := len(frag) == len(rec)
			ftype := byte(typeMiddle)
			switch {
			case begin && end:
				ftype = typeFull
			case begin:
				ftype = typeFirst
			case end:
				ftype = typeLast
			}
			var hdr [headerSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], fragmentCRC(&seed, testTag, ftype, frag))
			binary.LittleEndian.PutUint16(hdr[4:6], uint16(len(frag)))
			hdr[6] = ftype
			out.Write(hdr[:])
			out.Write(frag)
			off += headerSize + len(frag)
			units++
			rec = rec[len(frag):]
			if end {
				break
			}
		}
	}
	return out.Bytes(), units
}

// TestOneWritePerFragmentIsByteIdentical checks that assembling a
// fragment in the writer's buffer changes only the number of writes: the
// stream equals the two-write framing byte for byte, on records that
// span blocks and leave trailers, and each fragment is one write.
func TestOneWritePerFragmentIsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var records [][]byte
	for _, size := range []int{
		100, 3*BlockSize + 17, BlockSize - 2*headerSize - 3, 0, 50000,
		BlockSize - headerSize, 1, 2 * BlockSize,
	} {
		b := make([]byte, size)
		rng.Read(b)
		records = append(records, b)
	}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(3000))
		rng.Read(b)
		records = append(records, b)
	}
	var got countingWriter
	w := NewTaggedWriter(&got, testTag)
	for _, rec := range records {
		if err := w.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	want, units := twoWriteLog(records)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stream differs from the two-write framing (%d vs %d bytes)", got.Len(), len(want))
	}
	if got.writes != units {
		t.Fatalf("%d writes for %d fragments and trailers", got.writes, units)
	}
}
