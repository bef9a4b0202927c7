package sstable

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"sealdb/internal/kv"
)

// TestOpenNeverPanicsOnGarbage: arbitrary bytes must produce an error,
// never a panic or a successfully "opened" garbage table.
func TestOpenNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Open panicked on %d bytes: %v", len(data), r)
			}
		}()
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
		if err == nil && tbl != nil {
			// Vanishingly unlikely to be valid; if Open accepted it,
			// reads must still not panic.
			tbl.Get([]byte("probe"), kv.MaxSeqNum)
			it := tbl.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBitFlipsNeverPanic: flip random bits in a valid table; every
// read path must fail cleanly or return consistent data, never panic.
func TestBitFlipsNeverPanic(t *testing.T) {
	entries := genEntries(500, 21)
	data, _ := buildTable(t, entries)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		for flips := 0; flips < 1+rng.Intn(4); flips++ {
			mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			tbl, err := Open(bytes.NewReader(mut), int64(len(mut)), 1, nil)
			if err != nil {
				return
			}
			for k := range entries {
				tbl.Get([]byte(k), kv.MaxSeqNum)
			}
			for _, it := range []kv.Iterator{tbl.NewIterator(), tbl.NewSpanIterator(new(SpanIter), 16<<10, 0, nil), tbl.NewMemIterator(mut)} {
				n := 0
				for it.SeekToFirst(); it.Valid() && n < 10000; it.Next() {
					n++
				}
				for it.SeekToLast(); it.Valid() && n < 20000; it.Prev() {
					n++
				}
			}
		}()
	}
}

// TestTruncationsNeverPanic: every possible truncation of a valid
// table must be rejected or read cleanly.
func TestTruncationsNeverPanic(t *testing.T) {
	entries := genEntries(100, 23)
	data, _ := buildTable(t, entries)
	for cut := 0; cut < len(data); cut += 37 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d panicked: %v", cut, r)
				}
			}()
			tbl, err := Open(bytes.NewReader(data[:cut]), int64(cut), 1, nil)
			if err != nil {
				return
			}
			tbl.Get([]byte("key00000001"), kv.MaxSeqNum)
		}()
	}
}

// TestDecodeBlockGarbage: the low-level block decoder on arbitrary
// input.
func TestDecodeBlockGarbage(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decodeBlock panicked: %v", r)
			}
		}()
		b, err := decodeBlock(data)
		if err == nil && b != nil {
			it := newBlockIter(b)
			n := 0
			for it.SeekToFirst(); it.Valid() && n < 100000; it.Next() {
				n++
			}
			it.Seek(kv.MakeInternalKey(nil, []byte("x"), 1, kv.KindSet))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
