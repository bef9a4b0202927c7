package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"sealdb/internal/invariant"
	"sealdb/internal/kv"
)

// buildInto builds the benchmark's table shape (240 entries of 1 KiB)
// with b into buf.
func buildInto(t testing.TB, b *Builder, buf []byte, keys []kv.InternalKey, value []byte) []byte {
	b.Reset(buf, 10)
	for _, k := range keys {
		b.Add(k, value)
	}
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func tableKeys(n int) []kv.InternalKey {
	keys := make([]kv.InternalKey, n)
	for i := range keys {
		keys[i] = kv.MakeInternalKey(nil, fmt.Appendf(nil, "user%012d", i), kv.SeqNum(i+1), kv.KindSet)
	}
	return keys
}

// TestBuildIntoRecycledBufferAllocs: a table built into a recycled
// buffer by a builder that has built one before allocates its two
// boundary keys and little else, and no garbage of a table's size: the
// 256 KiB it writes are written once, into the buffer it was handed.
func TestBuildIntoRecycledBufferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	keys, value := tableKeys(240), bytes.Repeat([]byte{'v'}, 1024)
	b, bufs := NewBuilder(), NewCache(0)
	const size = 300 << 10
	bufs.PutBuf(buildInto(t, b, bufs.GetBuf(size), keys, value))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, func() {
		bufs.PutBuf(buildInto(t, b, bufs.GetBuf(size), keys, value))
	})
	runtime.ReadMemStats(&after)
	t.Logf("%v allocations per table", allocs)
	if allocs > 12 {
		t.Errorf("%v allocations per table, want at most 12", allocs)
	}
	// 21 runs of 256 KiB tables; a collection that empties the pool
	// mid-test costs one buffer.
	if perTable := (after.TotalAlloc - before.TotalAlloc) / 21; perTable > 32<<10 {
		t.Errorf("%d bytes allocated per table built, want none of a table's size", perTable)
	}
}

// TestReleasedBufferIsPoisoned: under the sealdb_invariants tag a table
// still read through a buffer that went back to the pool fails: the
// block it stands in no longer parses, and every other fails its
// checksum. It is never served whatever the buffer holds next. And a
// buffer cannot go back twice.
func TestReleasedBufferIsPoisoned(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("released buffers are poisoned under -tags sealdb_invariants only")
	}
	bufs := NewCache(0)
	data := buildInto(t, NewBuilder(), bufs.GetBuf(64<<10), tableKeys(40), bytes.Repeat([]byte{'v'}, 1024))
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := tbl.NewMemIterator(data)
	it.SeekToFirst()
	if !it.Valid() {
		t.Fatalf("iterator over a held buffer: %v", it.Error())
	}
	bufs.PutBuf(data)
	if it.Next(); it.Valid() || it.Error() == nil {
		t.Fatalf("iterator stepped inside a released block: valid %v, error %v", it.Valid(), it.Error())
	}
	if it.SeekToFirst(); !errors.Is(it.Error(), ErrCorruptBlock) {
		t.Fatalf("loading a block of a released buffer: %v, want a checksum failure", it.Error())
	}
	defer func() {
		if recover() == nil {
			t.Error("releasing the same buffer again did not trip the invariant")
		}
	}()
	bufs.PutBuf(data)
}

// TestPointReadScratchIsPoisoned: under the sealdb_invariants tag the
// scratch a point read decoded a block in is overwritten when it goes back
// to the pool, so the block no longer parses.
func TestPointReadScratchIsPoisoned(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("released buffers are poisoned under -tags sealdb_invariants only")
	}
	data := buildInto(t, NewBuilder(), nil, tableKeys(40), bytes.Repeat([]byte{'v'}, 1024))
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tbl.readScratch(dataBlocks(t, tbl)[0])
	if err != nil {
		t.Fatal(err)
	}
	it := blockIter{b: &s.blk}
	if it.SeekToFirst(); !it.Valid() {
		t.Fatalf("set-up: the scratch block does not parse: %v", it.Error())
	}
	buf := s.buf[:cap(s.buf)]
	tbl.cache.putScratch(s)
	for i, c := range buf {
		if c != poison {
			t.Fatalf("byte %d of the released scratch is %#x, want the poison", i, c)
		}
	}
}

// TestOpenBuiltOutlivesItsBuffer: a table opened from the bytes Finish
// returned reads nothing through its handle to open, holds the filter and
// index one opened by reading the file holds, and keeps answering Gets,
// through the handle, once its buffer has gone back to the pool (poisoned
// under -tags sealdb_invariants).
func TestOpenBuiltOutlivesItsBuffer(t *testing.T) {
	bufs := NewCache(0)
	keys := tableKeys(40)
	data := buildInto(t, NewBuilder(), bufs.GetBuf(64<<10), keys, bytes.Repeat([]byte{'v'}, 1024))
	file := &trackingReader{r: bytes.NewReader(append([]byte(nil), data...))}
	read, err := Open(file, int64(len(data)), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	file.calls = 0
	built, err := OpenBuilt(data, file, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if file.calls != 0 {
		t.Errorf("opening from the built bytes read the file %d times", file.calls)
	}
	if !bytes.Equal(built.bloom, read.bloom) || !bytes.Equal(built.index.data, read.index.data) || !slices.Equal(built.index.restarts, read.index.restarts) {
		t.Fatal("the filter or index opened from the built bytes differs from the file's")
	}
	bufs.PutBuf(data)
	for _, k := range keys {
		if v, deleted, ok, err := built.Get(k.UserKey(), kv.MaxSeqNum); err != nil || !ok || deleted || len(v) != 1024 {
			t.Fatalf("Get(%s) after the buffer went back: %d bytes, ok %v, deleted %v, %v", k.UserKey(), len(v), ok, deleted, err)
		}
	}
	if file.calls == 0 {
		t.Error("Gets were not read through the handle")
	}
}

// TestClosedWindowIsPoisoned: under the sealdb_invariants tag the window
// a streaming iterator hands back on Close is overwritten first, so a
// block still decoded in it fails instead of serving the bytes of
// whichever table reads into the window next; the iterator itself is left
// unpositioned, and positioned again reads into a window of its own.
func TestClosedWindowIsPoisoned(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("released buffers are poisoned under -tags sealdb_invariants only")
	}
	bufs := NewCache(0)
	data := buildInto(t, NewBuilder(), bufs.GetBuf(64<<10), tableKeys(40), bytes.Repeat([]byte{'v'}, 1024))
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := tbl.NewSpanIterator(new(SpanIter), 8192, 4, nil).(*tableIter)
	it.SeekToFirst()
	for i := 0; i < 6; i++ { // into the second block, decoded in the window
		it.Next()
	}
	if !it.Valid() || it.data.b != &it.win.blk {
		t.Fatalf("set-up: not in a block decoded in the window: valid %v, err %v", it.Valid(), it.Error())
	}
	window := (*it.win.box)[:cap(*it.win.box)]
	it.Close()
	if it.Valid() {
		t.Error("a closed iterator is still positioned")
	}
	for i, c := range window {
		if c != poison {
			t.Fatalf("byte %d of the closed window is %#x, want the poison", i, c)
		}
	}
	if it.SeekToFirst(); !it.Valid() || it.Error() != nil || string(it.Key().UserKey()) != "user000000000000" {
		t.Fatalf("iterator positioned after Close: valid %v, err %v", it.Valid(), it.Error())
	}
}
