package sstable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sealdb/internal/kv"
	"sealdb/internal/ycsb"
)

// checkCache holds the cache's bookkeeping to what its two rings, three
// maps and file chains actually contain.
func checkCache(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var used, protectedBytes, valueBytes, rowBytes int64
	var entries, values, rows int
	for i := range c.seg {
		for e := c.seg[i].next; e != c.seg[i]; e = e.next {
			if e.next.prev != e || e.protected != (i == 1) {
				t.Fatalf("segment %d: entry %+v is mislinked or misfiled", i, e.key)
			}
			idx := c.items
			switch {
			case e.klen > 0:
				idx, rows, rowBytes = c.rows, rows+1, rowBytes+e.size
			case e.block == nil:
				values, valueBytes = values+1, valueBytes+e.size
			}
			if idx[e.key] != e {
				t.Fatalf("entry %+v is not the one indexed under its key", e.key)
			}
			entries, used = entries+1, used+e.size
			if i == 1 {
				protectedBytes += e.size
			}
		}
	}
	if used != c.used || used > c.capacity || entries != c.entries || entries != len(c.items)+len(c.rows) {
		t.Fatalf("segments hold %d bytes in %d entries; used %d of %d, entries %d, indexed %d+%d",
			used, entries, c.used, c.capacity, c.entries, len(c.items), len(c.rows))
	}
	if protectedBytes != c.protectedBytes || protectedBytes > c.capacity*protectedNum/protectedDen {
		t.Fatalf("protected holds %d bytes, accounted %d, share %d", protectedBytes, c.protectedBytes, c.capacity*protectedNum/protectedDen)
	}
	if values != c.valueEntries || valueBytes != c.valueBytes || rows != c.rowEntries || rowBytes != c.rowBytes {
		t.Fatalf("values %d/%d accounted %d/%d, rows %d/%d accounted %d/%d",
			values, valueBytes, c.valueEntries, c.valueBytes, rows, rowBytes, c.rowEntries, c.rowBytes)
	}
	chained := 0
	for file, head := range c.files {
		if head == nil || head.filePrev != nil {
			t.Fatalf("file %d: bad chain head", file)
		}
		for e := head; e != nil; e = e.fileNext {
			if e.key.file != file || e.fileNext != nil && e.fileNext.filePrev != e {
				t.Fatalf("file %d: entry %+v is mislinked", file, e.key)
			}
			chained++
		}
	}
	if chained != entries {
		t.Fatalf("file chains hold %d entries, segments %d", chained, entries)
	}
}

// TestCacheAccountingUnderRandomOps: whatever the sequence of block, value
// and row operations and file evictions, used is the sum of both segments'
// charges and never exceeds capacity, and every entry is indexed, chained
// and counted exactly once.
func TestCacheAccountingUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(int64(8+rng.Intn(56)) << 10)
		buf := make([]byte, 4096)
		for i := 0; i < 20000; i++ {
			file, off := uint64(1+rng.Intn(12)), uint64(rng.Intn(40))
			ukey := []byte(fmt.Sprintf("key%03d", off))
			switch rng.Intn(12) {
			case 0, 1:
				c.put(file, off, &block{data: buf[:rng.Intn(len(buf))], restarts: []uint32{0}})
			case 2:
				c.admit(file, off, &block{data: buf[:rng.Intn(len(buf))], restarts: []uint32{0}})
			case 3, 4:
				c.get(file, off, rng.Intn(2) == 0)
			case 5:
				c.promote(file, off)
			case 6:
				// Values live under files 100 and up, as segments never
				// share a number with a table; one put per pointer.
				c.PutValue(100+file, uint64(i), buf[:rng.Intn(2048)])
			case 7:
				c.GetValue(nil, 100+file, uint64(rng.Intn(i+1)))
			case 8, 9:
				c.putRow(file, ukey, buf[:rng.Intn(2048)], kv.SeqNum(rng.Intn(9)), kv.KindSet)
			case 10:
				c.getRow(file, ukey, kv.SeqNum(rng.Intn(9)))
			case 11:
				if rng.Intn(8) == 0 {
					c.EvictFile(file + uint64(rng.Intn(2))*100)
				}
			}
			if i%64 == 0 {
				checkCache(t, c)
			}
		}
		checkCache(t, c)
		for file := uint64(0); file < 120; file++ {
			c.EvictFile(file)
		}
		checkCache(t, c)
		if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
			t.Fatalf("seed %d: evicting every file left %+v", seed, st)
		}
	}
}

// TestCacheSweepLeavesProtectedAlone: blocks touched once, ten times the
// budget of them, push out each other and nothing that was read twice.
func TestCacheSweepLeavesProtectedAlone(t *testing.T) {
	const capacity = 256 << 10
	c := NewCache(capacity)
	data := make([]byte, 4000)
	mk := func() *block { return &block{data: data, restarts: []uint32{0}} }
	hot := 0
	for ; int64(hot+1)*mk().charge() <= capacity*protectedNum/protectedDen; hot++ {
		c.put(1, uint64(hot), mk())
		c.get(1, uint64(hot), true)
	}
	for i := 0; int64(i)*mk().charge() < 10*capacity; i++ {
		c.put(2, uint64(i), mk())
	}
	checkCache(t, c)
	c.mu.Lock()
	for i := 0; i < hot; i++ {
		if e := c.items[cacheKey{1, uint64(i)}]; e == nil || !e.protected {
			t.Fatalf("block %d of %d read twice did not survive the sweep in protected", i, hot)
		}
	}
	c.mu.Unlock()
	if hot < 40 {
		t.Fatalf("only %d blocks fit protected", hot)
	}
}

// zipfMissRatio replays scrambled-zipfian point reads (θ = 0.99 over 100k
// keys, four 1 KiB entries to a 4 KiB block, as get_zipf's) against a 2 MiB
// cache with the calls Table.GetEntry makes, and returns the share that
// would have read the device. rows false is the policy over blocks alone.
func zipfMissRatio(rows bool) float64 {
	const (
		keys, perBlock = 100_000, 4
		warm, measured = 100_000, 400_000
	)
	c := NewCache(2 << 20)
	value := make([]byte, 1024-16-kv.TrailerLen)
	blk := &block{data: make([]byte, perBlock*1024), restarts: []uint32{0}}
	gen, rng := ycsb.NewScrambledZipfian(keys), rand.New(rand.NewSource(1))
	misses := 0
	for i := 0; i < warm+measured; i++ {
		k := uint64(gen.Next(rng))
		ukey := []byte(fmt.Sprintf("user%012d", k))
		if rows {
			if _, _, _, ok := c.getRow(1, ukey, kv.MaxSeqNum); ok {
				continue
			}
		}
		off := k / perBlock
		switch b := c.get(1, off, !rows); {
		case b == nil:
			if c.put(1, off, blk); i >= warm {
				misses++
			}
		case rows && !c.putRow(1, ukey, value, 1, kv.KindSet):
			c.promote(1, off)
		}
	}
	return float64(misses) / measured
}

// TestCacheZipfMissRatio pins what the policy is for: under get_zipf's
// skew a single LRU of blocks misses 0.556 of the reads; the two segments
// may miss at most 0.48, and with rows at most 0.40.
func TestCacheZipfMissRatio(t *testing.T) {
	blocks, rows := zipfMissRatio(false), zipfMissRatio(true)
	t.Logf("miss ratio: blocks only %.3f, with rows %.3f", blocks, rows)
	if blocks > 0.48 || rows > 0.40 {
		t.Errorf("miss ratio: blocks only %.3f (want <= 0.48), with rows %.3f (want <= 0.40)", blocks, rows)
	}
}

// versionedTable builds a table whose key "k" has three versions, the
// newest ending one block and the older two starting the next, and whose
// last block is small and starts with a tombstone over an older value of
// "t". The padding keys "a0".."a2" fill the first block.
func versionedTable(t testing.TB) []byte {
	t.Helper()
	b := NewBuilder()
	big := func(c byte) []byte { return bytes.Repeat([]byte{c}, 1100) }
	add := func(k string, seq kv.SeqNum, kind kv.Kind, v []byte) {
		b.Add(kv.MakeInternalKey(nil, []byte(k), seq, kind), v)
	}
	add("a0", 1, kv.KindSet, big('a'))
	add("a1", 2, kv.KindSet, big('b'))
	add("a2", 3, kv.KindSet, big('c'))
	add("k", 9, kv.KindSet, big('9')) // cuts the first block
	add("k", 7, kv.KindSet, big('7'))
	add("k", 5, kv.KindSet, big('5'))
	add("m", 6, kv.KindSet, big('m'))
	add("n", 6, kv.KindSet, big('n')) // cuts the second block
	add("t", 8, kv.KindDelete, nil)
	add("t", 4, kv.KindSet, []byte("old"))
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRowsAnswerAsBlocksDo: with rows warm, GetEntry at every sequence
// number returns what a table without a cache returns, and only the newest
// version of a key in the file ever becomes a row — here also a tombstone,
// which its small block lets in.
func TestRowsAnswerAsBlocksDo(t *testing.T) {
	data := versionedTable(t)
	plain, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(dataBlocks(t, plain)); n != 3 {
		t.Fatalf("set-up: %d data blocks, want 3", n)
	}
	cache := NewCache(1 << 20)
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		value string
		seq   kv.SeqNum
		kind  kv.Kind
		ok    bool
	}
	get := func(tb *Table, k string, seq kv.SeqNum) answer {
		v, s, kind, ok, err := tb.GetEntry([]byte(k), seq)
		if err != nil {
			t.Fatalf("GetEntry(%q, %d): %v", k, seq, err)
		}
		return answer{string(v), s, kind, ok}
	}
	// Three passes: the first reads the device, the second finds the
	// blocks cached and forms rows, the third is served by them.
	for pass := 0; pass < 3; pass++ {
		for _, k := range []string{"a0", "a2", "k", "m", "n", "t", "zz"} {
			for seq := kv.SeqNum(0); seq <= 11; seq++ {
				if got, want := get(tbl, k, seq), get(plain, k, seq); got != want {
					t.Fatalf("pass %d: GetEntry(%q, %d) = %+v through the cache, %+v without", pass, k, seq, got, want)
				}
			}
		}
	}
	checkCache(t, cache)
	newest := map[string]kv.SeqNum{"a0": 1, "a2": 3, "k": 9, "m": 6, "n": 6, "t": 8}
	cache.mu.Lock()
	for _, e := range cache.rows {
		k := string(e.value[:e.klen])
		if newest[k] != e.seq {
			t.Errorf("row for %q holds seq %d, the file's newest is %d", k, e.seq, newest[k])
		}
		delete(newest, k)
	}
	cache.mu.Unlock()
	if len(newest) != 0 {
		t.Errorf("no row was formed for %v", newest)
	}
	hits := cache.Stats().Hits
	if a := get(tbl, "k", 9); !a.ok || a.seq != 9 {
		t.Fatalf("row read = %+v", a)
	}
	if a := get(tbl, "t", 10); !a.ok || a.kind != kv.KindDelete || a.value != "" {
		t.Fatalf("tombstone row read = %+v", a)
	}
	if st := cache.Stats(); st.Hits != hits+2 || st.Misses != 3 {
		t.Errorf("two row reads moved hits %d -> %d, misses %d: a row hit is a hit, the table has three blocks to miss", hits, st.Hits, st.Misses)
	}
	// Rows leave with their table.
	cache.EvictFile(1)
	if st := cache.Stats(); st.Entries != 0 || st.RowEntries != 0 || st.UsedBytes != 0 {
		t.Errorf("EvictFile left %+v", st)
	}
}

// TestRowSteadyStateAllocations: a row hit allocates the copy it hands
// out and nothing else, and once the cache is full of like-sized rows a
// new one recycles the entry and buffer of the one it evicts.
func TestRowSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	c := NewCache(64 << 10)
	value, ukey := make([]byte, 1024), make([]byte, 16)
	next := 0
	put := func() {
		next++
		copy(ukey, fmt.Sprintf("user%012d", next))
		if !c.putRow(1, ukey, value, kv.SeqNum(next), kv.KindSet) {
			t.Fatal("row refused")
		}
	}
	for c.Stats().UsedBytes+2*int64(len(value)) < 64<<10 {
		put()
	}
	put()
	full := c.Stats()
	if n := testing.AllocsPerRun(200, func() {
		next++
		for i, v := len(ukey)-1, next; i >= 4; i, v = i-1, v/10 {
			ukey[i] = byte('0' + v%10)
		}
		if !c.putRow(1, ukey, value, kv.SeqNum(next), kv.KindSet) {
			t.Fatal("row refused")
		}
	}); n != 0 {
		t.Errorf("a row into a full cache allocates %.1f times, want 0", n)
	}
	if st := c.Stats(); st.RowEntries != full.RowEntries || st.UsedBytes != full.UsedBytes {
		t.Fatalf("steady state drifted: %+v -> %+v", full, st)
	}
	checkCache(t, c)
	if n := testing.AllocsPerRun(200, func() {
		if v, _, _, ok := c.getRow(1, ukey, kv.MaxSeqNum); !ok || len(v) != len(value) {
			t.Fatal("row miss")
		}
	}); n != 1 {
		t.Errorf("a row hit allocates %.1f times, want 1 (the caller's copy)", n)
	}
	for i := 0; i < 8; i++ { // promotion and demotion: hits on cold rows
		copy(ukey, fmt.Sprintf("user%012d", next-40-i))
		if n := testing.AllocsPerRun(1, func() { c.getRow(1, ukey, kv.MaxSeqNum) }); n > 1 {
			t.Errorf("a hit that reorders the segments allocates %.1f times", n)
		}
	}
}
