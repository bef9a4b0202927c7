package sstable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"sealdb/internal/kv"
)

// TestNoCompressionPolicyIsRaw: every data block a table holds is stored
// raw, under type byte 0, and its bytes are exactly what a block builder
// writes for the block's entries on its own: building the blocks in place
// at the tail of the table changes no byte of them, restart offsets
// included (64-byte values put several restarts in each block).
func TestNoCompressionPolicyIsRaw(t *testing.T) {
	b := NewBuilder()
	identityFill(b, 3000, func(int) int { return 64 })
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range dataBlocks(t, tbl) {
		if typ := data[h.offset+h.length]; typ != rawBlock {
			t.Fatalf("block %d stored with type %d", i, typ)
		}
		var bb blockBuilder
		var alone []byte
		it := newBlockIter(mustBlock(t, tbl, h))
		for it.SeekToFirst(); it.Valid(); it.Next() {
			alone = bb.add(alone, it.Key(), it.Value())
		}
		if got := data[h.offset : h.offset+h.length]; !bytes.Equal(got, bb.finish(alone)) {
			t.Fatalf("block %d at %d differs from its entries encoded alone", i, h.offset)
		}
	}
}

// TestDecompressUnknownType: a data block whose type byte is 1, the
// encoding of the DEFLATE codec the store no longer has, with its CRC
// recomputed so that only the type is wrong, is an error on every read
// path, not a panic and not entries.
func TestDecompressUnknownType(t *testing.T) {
	data, keys, _ := streamTable(t, 400)
	clean, err := Open(bytes.NewReader(data), int64(len(data)), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := dataBlocks(t, clean)
	h := blocks[len(blocks)/2]
	first := newBlockIter(mustBlock(t, clean, h))
	first.SeekToFirst()
	victim := append([]byte(nil), first.Key().UserKey()...)

	mut := append([]byte(nil), data...)
	end := h.offset + h.length
	mut[end] = 1
	binary.LittleEndian.PutUint32(mut[end+1:], crc32.Checksum(mut[h.offset:end+1], castagnoliTable))
	open := func() *Table {
		tbl, err := Open(bytes.NewReader(mut), int64(len(mut)), 7, NewCache(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	unknown := func(path string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unknown block type 1") {
			t.Errorf("%s: err %v, want unknown block type 1", path, err)
		}
	}

	_, _, _, err = open().Get(victim, kv.MaxSeqNum)
	unknown("Get", err)
	if _, _, _, err := open().Get([]byte(keys[0]), kv.MaxSeqNum); err != nil {
		t.Errorf("Get of a key in a sound block: %v", err)
	}
	for path, it := range map[string]kv.Iterator{
		"iterator":            open().NewIterator(),
		"span iterator":       open().NewSpanIterator(new(SpanIter), 64<<10, 0, nil),
		"compaction iterator": open().NewCompactionIterator(64 << 10),
	} {
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if bytes.Equal(it.Key().UserKey(), victim) {
				t.Fatalf("%s: entry %q of the block came out", path, victim)
			}
			n++
		}
		unknown(path, it.Error())
		if n == 0 {
			t.Errorf("%s: no entry before the block", path)
		}
	}
}
