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
	f.Add(versionedTable(f)) // versions of "k" across a block boundary, a tombstone on "t"
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
		if err == nil && tbl != nil {
			// Point reads, also through a shared cache and three times
			// each — device miss that leaves a row or the block, block hit
			// that may form a row, row hit — which must agree with the cache-less read or fail with its
			// error: a block that fails its CRC never becomes a row.
			shared, err := Open(bytes.NewReader(data), int64(len(data)), 1, NewCache(1<<20))
			if err != nil {
				t.Fatalf("Open through a cache: %v", err)
			}
			for _, k := range []string{"alpha", "key00000006", "k", "t", "zulu"} {
				for _, seq := range []kv.SeqNum{kv.MaxSeqNum, 8, 3, 0} {
					v, fseq, kind, ok, err := tbl.GetEntry([]byte(k), seq)
					for pass := 0; pass < 3; pass++ {
						cv, cseq, ckind, cok, cerr := shared.GetEntry([]byte(k), seq)
						if !bytes.Equal(cv, v) || cseq != fseq || ckind != kind || cok != ok || (cerr == nil) != (err == nil) || err != nil && cerr.Error() != err.Error() {
							t.Fatalf("GetEntry(%q, %d) pass %d through the cache = %q, %d, %v, %v, %v; without = %q, %d, %v, %v, %v",
								k, seq, pass, cv, cseq, ckind, cok, cerr, v, fseq, kind, ok, err)
						}
					}
				}
			}
			// Every iterator kind, both ways: a damaged index can name
			// any two numbers as a block, and the streaming iterator
			// builds its reads from several of them.
			for _, it := range []kv.Iterator{
				tbl.NewIterator(), tbl.NewSpanIterator(new(SpanIter), 1, 0, nil),
				tbl.NewSpanIterator(new(SpanIter), 1<<20, 0, nil), tbl.NewMemIterator(data),
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
