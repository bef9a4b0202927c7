package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"sealdb/internal/kv"
	"sealdb/internal/obs"
	"sealdb/internal/platter"
)

// The streaming iterator (DESIGN.md §sstable.Cache, Streaming) reads
// ahead through its own window and decodes blocks in a buffer it reuses.
// These tests cover what that newly makes possible: reads that overlap,
// leave gaps or run past the data blocks, a window that serves stale or
// unchecked bytes, a cache probed for what the window holds, and
// allocations per block; and, for a scan's span, the one read a seek
// makes and what of it the cache keeps.

// streamTable builds a table of n entries with values near 1 KiB, four to
// a block, and returns its bytes, its sorted user keys and their values.
func streamTable(t testing.TB, n int) ([]byte, []string, map[string]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	vals := make(map[string]string, n)
	keys := make([]string, n)
	b := NewBuilder()
	for i := range keys {
		keys[i] = fmt.Sprintf("key%08d", 3*i)
		v := make([]byte, 900+rng.Intn(200))
		rng.Read(v)
		vals[keys[i]] = string(v)
		b.Add(kv.MakeInternalKey(nil, []byte(keys[i]), kv.SeqNum(i+1), kv.KindSet), v)
	}
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, keys, vals
}

// dataBlocks lists the table's data-block handles in index order.
func dataBlocks(t testing.TB, tbl *Table) []blockHandle {
	t.Helper()
	var hs []blockHandle
	ix := newBlockIter(tbl.index)
	for ix.SeekToFirst(); ix.Valid(); ix.Next() {
		h, _, err := decodeHandle(ix.Value())
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return hs
}

// readLog is an io.ReaderAt that records every read's range.
type readLog struct {
	r     io.ReaderAt
	reads [][2]int64 // offset, end
}

func (l *readLog) ReadAt(p []byte, off int64) (int, error) {
	l.reads = append(l.reads, [2]int64{off, off + int64(len(p))})
	return l.r.ReadAt(p, off)
}

// platterFile reads a file stored at base on a modelled disk.
type platterFile struct {
	d    *platter.Disk
	base int64
}

func (f platterFile) ReadAt(p []byte, off int64) (int, error) {
	_, err := f.d.ReadAt(p, f.base+off)
	return len(p), err
}

type accessLog []platter.AccessInfo

func (l *accessLog) ObserveAccess(a platter.AccessInfo) { *l = append(*l, a) }

// TestStreamingScanIsOneSequentialPass: a forward scan of one table is
// one seek and then continuations only — every read starts where the
// previous one ended, on a block boundary — it covers the data blocks
// exactly and never reaches into the bloom or index blocks behind them,
// and windows grow to the read-ahead bound, not past it.
func TestStreamingScanIsOneSequentialPass(t *testing.T) {
	data, keys, _ := streamTable(t, 600)
	const base = 3 << 20
	for _, readahead := range []int{1, 8192, 16 << 10, 128 << 10, 64 << 20} {
		disk := platter.New(platter.DefaultConfig(64 << 20))
		if _, err := disk.WriteAt(data, base); err != nil {
			t.Fatal(err)
		}
		tbl, err := Open(platterFile{disk, base}, int64(len(data)), 1, NewCache(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		blocks := dataBlocks(t, tbl)
		boundary := map[int64]bool{}
		for _, h := range blocks {
			boundary[base+int64(h.offset)] = true
			boundary[base+int64(h.end())] = true
		}
		var log accessLog
		disk.ResetStats()
		disk.SetSink(&log)
		var streamed obs.Counter
		it := tbl.NewSpanIterator(new(SpanIter), readahead, 0, &streamed)
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if it.Error() != nil || n != len(keys) {
			t.Fatalf("readahead %d: scanned %d of %d entries, err %v", readahead, n, len(keys), it.Error())
		}
		if s := disk.Stats(); s.Seeks != 1 || int(s.ReadOps) != len(log) {
			t.Errorf("readahead %d: %d seeks over %d reads, want 1", readahead, s.Seeks, s.ReadOps)
		}
		// Two single blocks through the cache, then windows of whole
		// blocks: 2, 4, 8, ... while they fit the bound, two regardless.
		end := base + int64(blocks[0].offset)
		for i, a := range log {
			if a.Write || a.Offset != end || !boundary[a.Offset+int64(a.Length)] {
				t.Fatalf("readahead %d: read %d is [%d,%d), previous ended at %d (block boundaries only)",
					readahead, i, a.Offset, a.Offset+int64(a.Length), end)
			}
			end = a.Offset + int64(a.Length)
			n := 0
			for _, h := range blocks {
				if off := base + int64(h.offset); off >= a.Offset && off < end {
					n++
				}
			}
			last := end == base+int64(blocks[len(blocks)-1].end())
			switch {
			case i < streamAfter && n != 1,
				i >= streamAfter && n > streamAfter<<min(i-streamAfter, 20),
				i >= streamAfter && n < streamAfter && !last,
				n > streamAfter && a.Length > readahead:
				t.Errorf("readahead %d: read %d holds %d blocks in %d bytes", readahead, i, n, a.Length)
			}
		}
		if last := base + int64(blocks[len(blocks)-1].end()); end != last {
			t.Errorf("readahead %d: reads ended at %d, the last data block at %d", readahead, end, last)
		}
		if readahead >= 128<<10 && len(log) > 12 {
			t.Errorf("readahead %d: %d reads for %d blocks: windows did not grow", readahead, len(log), len(blocks))
		}
		if got := int(streamed.Value()); got != len(blocks)-streamAfter {
			t.Errorf("readahead %d: %d blocks counted as streamed, want %d", readahead, got, len(blocks)-streamAfter)
		}
	}
}

// TestStreamingIteratorMatchesPlain: random walks across block boundaries
// see exactly what the plain iterator sees, whatever the window, whether
// the cache has room, is full or is absent.
func TestStreamingIteratorMatchesPlain(t *testing.T) {
	data, keys, _ := streamTable(t, 700)
	plainTbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const blk = 4200
	for i, readahead := range []int{0, 2 * blk, 3 * blk, 4 * blk, 8 * blk, 32 * blk} {
		var cache *Cache
		switch i % 3 {
		case 0:
			cache = NewCache(40 << 10) // fills during the walk, then admits nothing
		case 1:
			cache = NewCache(4 << 20) // always room
		}
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, cache)
		if err != nil {
			t.Fatal(err)
		}
		walks := []kv.Iterator{tbl.NewSpanIterator(new(SpanIter), readahead, 0, nil), tbl.NewMemIterator(data)}
		for _, it := range walks {
			plain := plainTbl.NewIterator()
			rng := rand.New(rand.NewSource(int64(readahead)))
			for step := 0; step < 30000; step++ {
				switch r := rng.Intn(100); {
				case r < 1:
					it.SeekToFirst()
					plain.SeekToFirst()
				case r < 2:
					it.SeekToLast()
					plain.SeekToLast()
				case r < 5:
					target := kv.MakeSearchKey(nil, []byte(fmt.Sprintf("key%08d", rng.Intn(3*len(keys)+5))), kv.MaxSeqNum)
					it.Seek(target)
					plain.Seek(target)
				case r < 15 && plain.Valid():
					it.Prev()
					plain.Prev()
				case plain.Valid():
					it.Next()
					plain.Next()
				}
				if it.Valid() != plain.Valid() || it.Error() != nil {
					t.Fatalf("readahead %d step %d: valid %v, plain %v, err %v", readahead, step, it.Valid(), plain.Valid(), it.Error())
				}
				if it.Valid() && (kv.CompareInternal(it.Key(), plain.Key()) != 0 || !bytes.Equal(it.Value(), plain.Value())) {
					t.Fatalf("readahead %d step %d: at %s, plain at %s", readahead, step, it.Key(), plain.Key())
				}
			}
		}
	}
}

// TestStreamedCorruptBlockIsNeverEmitted: a bit flipped in a block that
// arrives through the window is found when that block is reached — the
// same error, offset and counter as on the cache path — after every entry
// before it and none of its own.
func TestStreamedCorruptBlockIsNeverEmitted(t *testing.T) {
	data, keys, vals := streamTable(t, 400)
	clean, err := Open(bytes.NewReader(data), int64(len(data)), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := dataBlocks(t, clean)
	for _, victim := range []int{2, 3, 4, 9, len(blocks) - 1} {
		h := blocks[victim]
		mut := append([]byte(nil), data...)
		mut[h.offset+h.length/2] ^= 0x10
		cache := NewCache(1 << 20)
		var seen int
		var seenFile, seenOff uint64
		cache.SetCorruptObserver(func(file, offset uint64) { seen, seenFile, seenOff = seen+1, file, offset })
		tbl, err := Open(bytes.NewReader(mut), int64(len(mut)), 7, cache)
		if err != nil {
			t.Fatal(err)
		}
		// The first key of the damaged block: nothing from there on may
		// come out.
		first := newBlockIter(mustBlock(t, clean, h))
		first.SeekToFirst()
		stop := sort.SearchStrings(keys, string(first.Key().UserKey()))
		it := tbl.NewSpanIterator(new(SpanIter), 64<<10, 0, nil)
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if k := string(it.Key().UserKey()); n >= stop || k != keys[n] || string(it.Value()) != vals[k] {
				t.Fatalf("victim block %d: entry %d is %q, want %q and fewer than %d entries", victim, n, k, keys[min(n, len(keys)-1)], stop)
			}
			n++
		}
		var cbe *CorruptBlockError
		if err := it.Error(); n != stop || !errors.Is(err, ErrCorruptBlock) || !errors.As(err, &cbe) || cbe.FileNum != 7 || cbe.Offset != h.offset {
			t.Fatalf("victim block %d at %d: %d entries (want %d), err %v", victim, h.offset, n, stop, err)
		}
		if seen != 1 || seenFile != 7 || seenOff != h.offset {
			t.Errorf("victim block %d: observer called %d times, last with file %d offset %d", victim, seen, seenFile, seenOff)
		}
		if cache.get(7, h.offset, true) != nil {
			t.Errorf("victim block %d was cached", victim)
		}
	}
}

func mustBlock(t *testing.T, tbl *Table, h blockHandle) *block {
	t.Helper()
	b, err := tbl.readBlock(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamingServesCachedBlockFromCache: past its second block the
// iterator still asks the cache for a block its window does not hold, and
// a hit costs no device read; a block the window does hold is not asked
// for at all.
func TestStreamingServesCachedBlockFromCache(t *testing.T) {
	data, keys, _ := streamTable(t, 80)
	cache := NewCache(1) // admits and keeps nothing on its own
	log := &readLog{r: bytes.NewReader(data)}
	tbl, err := Open(log, int64(len(data)), 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	blocks := dataBlocks(t, tbl)
	// Two-block windows: blocks 0 and 1 go through the cache, [2,3] is the
	// first window, so block 4 is wanted with no window holding it.
	h := blocks[4]
	warm := mustBlock(t, tbl, h)
	cache.mu.Lock()
	cache.capacity = 1 << 20
	cache.mu.Unlock()
	cache.admit(1, h.offset, warm, true)
	before := cache.Stats()
	log.reads = nil

	it := tbl.NewSpanIterator(new(SpanIter), 1, 0, nil)
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if it.Error() != nil || n != len(keys) {
		t.Fatalf("scanned %d of %d entries, err %v", n, len(keys), it.Error())
	}
	for _, r := range log.reads {
		if r[0] < int64(h.end()) && r[1] > int64(h.offset) {
			t.Errorf("read [%d,%d) covers the cached block [%d,%d)", r[0], r[1], h.offset, h.end())
		}
	}
	after := cache.Stats()
	if hits := after.Hits - before.Hits; hits != 1 {
		t.Errorf("%d cache hits during the scan, want 1", hits)
	}
	// Blocks 0 and 1, then one probe per refill: [2,3], block 4 hit,
	// [5,6], [7,8], ... A probe per block would be len(blocks)-1 misses.
	refills := 1 + (len(blocks)-5+1)/2
	if misses := after.Misses - before.Misses; int(misses) != streamAfter+refills {
		t.Errorf("%d cache misses during the scan of %d blocks, want %d", misses, len(blocks), streamAfter+refills)
	}
}

// TestStreamingAdmitsOnlyIntoFreeRoom: a scan fills a cache that has
// room, so a table that fits is read from the device once; it evicts
// nothing from a cache that is full.
func TestStreamingAdmitsOnlyIntoFreeRoom(t *testing.T) {
	data, keys, _ := streamTable(t, 200)
	scan := func(tbl *Table) {
		t.Helper()
		it := tbl.NewSpanIterator(new(SpanIter), 32<<10, 0, nil)
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if it.Error() != nil || n != len(keys) {
			t.Fatalf("scanned %d of %d entries, err %v", n, len(keys), it.Error())
		}
	}
	log := &readLog{r: bytes.NewReader(data)}
	tbl, err := Open(log, int64(len(data)), 1, NewCache(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	scan(tbl)
	log.reads = nil
	scan(tbl)
	if len(log.reads) != 0 {
		t.Errorf("second scan of a table that fits the cache made %d device reads", len(log.reads))
	}

	// A full cache: one resident block of another file and no room for a
	// second. The scan must leave it there.
	small := NewCache(1 << 20)
	other, err := Open(bytes.NewReader(data), int64(len(data)), 2, small)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err = Open(bytes.NewReader(data), int64(len(data)), 1, small)
	if err != nil {
		t.Fatal(err)
	}
	small.EvictFile(1)
	small.EvictFile(2)
	hot := dataBlocks(t, other)[10]
	full := mustBlock(t, other, hot).charge()
	small.mu.Lock()
	small.capacity = full
	small.mu.Unlock()
	it := tbl.NewSpanIterator(new(SpanIter), 32<<10, 0, nil)
	it.Seek(kv.MakeSearchKey(nil, []byte(keys[40]), kv.MaxSeqNum))
	for i := 0; i < 12 && it.Valid(); i++ { // into the third block and beyond
		it.Next()
	}
	// The two blocks read through the cache evicted as they always did;
	// put the hot block back and stream on.
	mustBlock(t, other, hot)
	for it.Valid() {
		it.Next()
	}
	if it.Error() != nil {
		t.Fatal(it.Error())
	}
	if s := small.Stats(); small.get(2, hot.offset, true) == nil || s.Entries != 1 {
		t.Errorf("streaming through a full cache: resident block kept = %v, %d entries", small.get(2, hot.offset, true) != nil, s.Entries)
	}
}

// TestStreamingSteadyStateAllocatesNothingPerBlock: after the first
// refill sized its buffer, a scan allocates for the two blocks it reads
// through the cache path and for nothing else, however long it is.
func TestStreamingSteadyStateAllocatesNothingPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	allocs := func(entries int, cache *Cache) float64 {
		data, _, _ := streamTable(t, entries)
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, cache)
		if err != nil {
			t.Fatal(err)
		}
		it := tbl.NewSpanIterator(new(SpanIter), 8192, 0, nil)
		return testing.AllocsPerRun(5, func() {
			for it.SeekToFirst(); it.Valid(); it.Next() {
			}
		})
	}
	for _, cache := range []*Cache{nil, NewCache(1)} {
		short, long := allocs(100, cache), allocs(800, cache)
		if short != long || long > 12 {
			t.Errorf("cache %v: %v allocations per scan of 25 blocks, %v per scan of 200", cache != nil, short, long)
		}
	}
}

// blockKeys decodes the user keys of every data block, in order, through
// a table with no cache.
func blockKeys(t *testing.T, data []byte) [][]string {
	t.Helper()
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, h := range dataBlocks(t, tbl) {
		var ks []string
		it := newBlockIter(mustBlock(t, tbl, h))
		for it.SeekToFirst(); it.Valid(); it.Next() {
			ks = append(ks, string(it.Key().UserKey()))
		}
		out = append(out, ks)
	}
	return out
}

// TestSpanPositioningIsOneRead: a seek that misses the cache reads span
// blocks, or the rest of the data blocks if fewer, in one block-aligned
// device read whatever the read-ahead bound, and the scan through them
// reads nothing more; a seek whose block is cached reads nothing. A
// target past a block's last key (the index may land on that block) is
// covered by the same read.
func TestSpanPositioningIsOneRead(t *testing.T) {
	data, _, _ := streamTable(t, 600)
	bk := blockKeys(t, data)
	for _, span := range []int{2, 3, 8, 40} {
		for _, readahead := range []int{1, 8192} {
			log := &readLog{r: bytes.NewReader(data)}
			tbl, err := Open(log, int64(len(data)), 1, NewCache(4<<20))
			if err != nil {
				t.Fatal(err)
			}
			blocks := dataBlocks(t, tbl)
			for _, b := range []int{0, 7, len(blocks) - 5, len(blocks) - 1} {
				n := min(span, len(blocks)-b)
				seek := func() kv.Iterator {
					log.reads = nil
					it := tbl.NewSpanIterator(new(SpanIter), readahead, span, nil)
					it.Seek(kv.MakeSearchKey(nil, []byte(bk[b][0]), kv.MaxSeqNum))
					if !it.Valid() || string(it.Key().UserKey()) != bk[b][0] {
						t.Fatalf("span %d: seek to block %d: valid %v, err %v", span, b, it.Valid(), it.Error())
					}
					return it
				}
				tbl.cache.EvictFile(1)
				it := seek()
				if want := [2]int64{int64(blocks[b].offset), int64(blocks[b+n-1].end())}; len(log.reads) != 1 || log.reads[0] != want {
					t.Fatalf("span %d readahead %d: seek to block %d of %d read %v, want one read %v", span, readahead, b, len(blocks), log.reads, want)
				}
				for i := b; i < b+n; i++ {
					for j, k := range bk[i] {
						if !it.Valid() || string(it.Key().UserKey()) != k {
							t.Fatalf("span %d: at %q (err %v), want %q", span, it.Key(), it.Error(), k)
						}
						if i < b+n-1 || j < len(bk[i])-1 { // not into the block after
							it.Next()
						}
					}
				}
				if len(log.reads) != 1 {
					t.Errorf("span %d: the scan through the span's %d blocks read %v", span, n, log.reads)
				}
				if seek(); len(log.reads) != 0 {
					t.Errorf("span %d: a seek to the cached block %d read %v", span, b, log.reads)
				}
			}
			// Between two blocks: key 3i+1 follows block 6's last key 3i.
			var i int
			fmt.Sscanf(bk[6][len(bk[6])-1], "key%08d", &i)
			log.reads = nil
			tbl.cache.EvictFile(1)
			it := tbl.NewSpanIterator(new(SpanIter), readahead, span, nil)
			if it.Seek(kv.MakeSearchKey(nil, []byte(fmt.Sprintf("key%08d", i+1)), kv.MaxSeqNum)); !it.Valid() || string(it.Key().UserKey()) != bk[7][0] {
				t.Fatalf("span %d: seek between blocks 6 and 7 is at %q (err %v), want %q", span, it.Key(), it.Error(), bk[7][0])
			}
			if len(log.reads) != 1 || log.reads[0][0] != int64(blocks[6].offset) && log.reads[0][0] != int64(blocks[7].offset) {
				t.Errorf("span %d: seek between blocks 6 and 7 read %v", span, log.reads)
			}
		}
	}
}

// TestSpanCachesOnlyTheLandingBlock: the block a span's seek lands in is
// cached as readBlock caches it, evicting if it must; the other blocks of
// the span enter only free room.
func TestSpanCachesOnlyTheLandingBlock(t *testing.T) {
	data, _, _ := streamTable(t, 200)
	bk := blockKeys(t, data)
	small := NewCache(1 << 20)
	other, err := Open(bytes.NewReader(data), int64(len(data)), 2, small)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, small)
	if err != nil {
		t.Fatal(err)
	}
	small.EvictFile(1)
	small.EvictFile(2)
	blocks := dataBlocks(t, tbl)
	land, hot := blocks[20], blocks[10]
	full := max(mustBlock(t, other, hot).charge(), mustBlock(t, tbl, land).charge())
	small.EvictFile(1)
	small.mu.Lock()
	small.capacity = full
	small.mu.Unlock()

	it := tbl.NewSpanIterator(new(SpanIter), 32<<10, 6, nil)
	it.Seek(kv.MakeSearchKey(nil, []byte(bk[20][0]), kv.MaxSeqNum))
	for i := 0; i < 6*4 && it.Valid(); i++ { // through the span's six blocks
		it.Next()
	}
	if it.Error() != nil {
		t.Fatal(it.Error())
	}
	if s := small.Stats(); small.get(1, land.offset, false) == nil || small.get(2, hot.offset, false) != nil || s.Entries != 1 {
		t.Errorf("landing block cached %v, hot block kept %v, %d entries; want the landing block alone",
			small.get(1, land.offset, false) != nil, small.get(2, hot.offset, false) != nil, s.Entries)
	}
}

// TestSpanOfOneIsStreaming: span 1 makes exactly the device reads and
// cache probes span 0 (no span) makes, on any walk.
func TestSpanOfOneIsStreaming(t *testing.T) {
	data, keys, _ := streamTable(t, 400)
	for _, readahead := range []int{0, 8192, 64 << 10} {
		var logs [2]readLog
		var stats [2]CacheStats
		for span := range logs {
			logs[span].r = bytes.NewReader(data)
			tbl, err := Open(&logs[span], int64(len(data)), 1, NewCache(40<<10))
			if err != nil {
				t.Fatal(err)
			}
			it := tbl.NewSpanIterator(new(SpanIter), readahead, span, nil)
			rng := rand.New(rand.NewSource(int64(readahead)))
			for step := 0; step < 5000; step++ {
				switch r := rng.Intn(100); {
				case r < 3:
					it.Seek(kv.MakeSearchKey(nil, []byte(keys[rng.Intn(len(keys))]), kv.MaxSeqNum))
				case r < 10 && it.Valid():
					it.Prev()
				case it.Valid():
					it.Next()
				default:
					it.SeekToFirst()
				}
			}
			stats[span] = tbl.cache.Stats()
		}
		if fmt.Sprint(logs[1].reads) != fmt.Sprint(logs[0].reads) || stats[1] != stats[0] {
			t.Errorf("readahead %d: span 1 made %d reads (cache %+v), span 0 %d (cache %+v)",
				readahead, len(logs[1].reads), stats[1], len(logs[0].reads), stats[0])
		}
	}
}

// TestSpanIteratorMatchesPlain: random walks with spans from two blocks to
// the whole table see exactly what the plain iterator sees, whether the
// cache has room, is full or is absent, and an iterator closed part way
// and positioned again goes on with a window from the pool.
func TestSpanIteratorMatchesPlain(t *testing.T) {
	data, keys, _ := streamTable(t, 700)
	plainTbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, span := range []int{2, 3, 5, 17, 1 << 20} {
		var cache *Cache
		switch i % 3 {
		case 0:
			cache = NewCache(40 << 10)
		case 1:
			cache = NewCache(4 << 20)
		}
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, cache)
		if err != nil {
			t.Fatal(err)
		}
		it, plain := tbl.NewSpanIterator(new(SpanIter), 8192, span, nil), plainTbl.NewIterator()
		rng := rand.New(rand.NewSource(int64(span)))
		for step := 0; step < 20000; step++ {
			switch r := rng.Intn(200); {
			case r < 1:
				closeTable(it)
				fallthrough
			case r < 8:
				target := kv.MakeSearchKey(nil, []byte(fmt.Sprintf("key%08d", rng.Intn(3*len(keys)+5))), kv.MaxSeqNum)
				it.Seek(target)
				plain.Seek(target)
			case r < 10:
				it.SeekToFirst()
				plain.SeekToFirst()
			case r < 20 && plain.Valid():
				it.Prev()
				plain.Prev()
			case plain.Valid():
				it.Next()
				plain.Next()
			}
			if it.Valid() != plain.Valid() || it.Error() != nil {
				t.Fatalf("span %d step %d: valid %v, plain %v, err %v", span, step, it.Valid(), plain.Valid(), it.Error())
			}
			if it.Valid() && (kv.CompareInternal(it.Key(), plain.Key()) != 0 || !bytes.Equal(it.Value(), plain.Value())) {
				t.Fatalf("span %d step %d: at %s, plain at %s", span, step, it.Key(), plain.Key())
			}
		}
	}
}

func closeTable(it kv.Iterator) { it.(*tableIter).Close() }

// TestSpanIterServesTableAfterTable: one SpanIter, closed and initialised
// again for each table in turn, as a sorted level steps through its tables,
// returns each table exactly, and keeps the key room its index peek grew.
func TestSpanIterServesTableAfterTable(t *testing.T) {
	cache := NewCache(1 << 20)
	var s SpanIter
	for round, n := range []int{100, 160, 100} {
		data, keys, vals := streamTable(t, n)
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), uint64(n), cache)
		if err != nil {
			t.Fatal(err)
		}
		peek := cap(s.win.peek.key)
		it, i := tbl.NewSpanIterator(&s, 8192, 3, nil), 0
		if cap(s.win.peek.key) != peek || round > 0 && peek == 0 {
			t.Fatalf("round %d: initialising dropped the peek's key room (%d bytes)", round, peek)
		}
		for it.Seek(kv.MakeSearchKey(nil, []byte(keys[0]), kv.MaxSeqNum)); it.Valid(); it.Next() {
			if i >= len(keys) || string(it.Key().UserKey()) != keys[i] || string(it.Value()) != vals[keys[i]] {
				t.Fatalf("round %d: entry %d is %q, want %q", round, i, it.Key().UserKey(), keys[min(i, len(keys)-1)])
			}
			i++
		}
		if it.Error() != nil || i != len(keys) {
			t.Fatalf("round %d: %d of %d entries, err %v", round, i, len(keys), it.Error())
		}
		if closeTable(it); s.win.box != nil {
			t.Fatalf("round %d: Close kept the window", round)
		}
	}
}
