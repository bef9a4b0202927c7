package sstable

import (
	"bytes"
	"testing"

	"sealdb/internal/kv"
)

// FuzzTableRead drives the table reader and the low-level block
// decoder with fuzzed bytes: whatever the input, Open must either
// reject it or serve reads without panicking. The corpus is seeded
// with a small valid table (so the fuzzer starts from structurally
// interesting bytes) plus a few degenerate shapes.
//
// CI runs this as a smoke pass (go test -fuzz=Fuzz -fuzztime=30s);
// locally it can run for as long as you like. The deterministic
// corruption sweeps in fuzz_robustness_test.go stay the regression
// baseline — this target explores beyond them.
func FuzzTableRead(f *testing.F) {
	b := NewBuilder()
	for i, k := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		ik := kv.MakeInternalKey(nil, []byte(k), kv.SeqNum(i+1), kv.KindSet)
		b.Add(ik, bytes.Repeat([]byte{byte('a' + i)}, 16))
	}
	seed, _, err := b.Finish()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	multi, _, _ := streamTable(f, 20) // five blocks: enough to stream
	f.Add(multi)
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
		if err == nil && tbl != nil {
			tbl.Get([]byte("alpha"), kv.MaxSeqNum)
			tbl.Get([]byte("zulu"), kv.MaxSeqNum)
			// Every iterator kind, both ways: a damaged index can name
			// any two numbers as a block, and the streaming iterator
			// builds its reads from several of them.
			for _, it := range []kv.Iterator{
				tbl.NewIterator(), tbl.NewStreamingIterator(1, nil),
				tbl.NewStreamingIterator(1<<20, nil), tbl.NewMemIterator(data),
			} {
				n := 0
				for it.SeekToFirst(); it.Valid() && n < 100000; it.Next() {
					n++
				}
				for it.SeekToLast(); it.Valid() && n < 200000; it.Prev() {
					n++
				}
				it.Seek(kv.MakeInternalKey(nil, []byte("charlie"), kv.MaxSeqNum, kv.KindSet))
				for i := 0; i < 4 && it.Valid(); i++ {
					it.Next()
				}
			}
		}
		if blk, err := decodeBlock(data); err == nil && blk != nil {
			it := newBlockIter(blk)
			n := 0
			for it.SeekToFirst(); it.Valid() && n < 100000; it.Next() {
				n++
			}
		}
	})
}
