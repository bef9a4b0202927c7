package sstable

import (
	"bytes"
	"encoding/binary"
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
			indexed := c.items[e.key]
			switch {
			case e.klen > 0:
				indexed, rows, rowBytes = c.rows[e.key.offset], rows+1, rowBytes+e.size
			case e.block == nil:
				indexed, values, valueBytes = c.values[e.slot], values+1, valueBytes+e.size
			}
			if indexed != e {
				t.Fatalf("entry %+v is not the one indexed under its key", e.key)
			}
			entries, used = entries+1, used+e.size
			if i == 1 {
				protectedBytes += e.size
			}
		}
	}
	if used != c.used || used > c.capacity || entries != c.entries || entries != len(c.items)+len(c.rows)+len(c.values) {
		t.Fatalf("segments hold %d bytes in %d entries; used %d of %d, entries %d, indexed %d+%d+%d",
			used, entries, c.used, c.capacity, c.entries, len(c.items), len(c.rows), len(c.values))
	}
	if protectedBytes != c.protectedBytes || protectedBytes > c.capacity*protectedNum/protectedDen {
		t.Fatalf("protected holds %d bytes, accounted %d, share %d", protectedBytes, c.protectedBytes, c.capacity*protectedNum/protectedDen)
	}
	if values != c.valueEntries || valueBytes != c.valueBytes || int64(rows) != c.rowEntries.Load() || rowBytes != c.rowBytes {
		t.Fatalf("values %d/%d accounted %d/%d, rows %d/%d accounted %d/%d",
			values, valueBytes, c.valueEntries, c.valueBytes, rows, rowBytes, c.rowEntries.Load(), c.rowBytes)
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
// and row operations, re-homes and file evictions, used is
// the sum of both segments' charges and never exceeds capacity, and every
// entry is indexed, chained and counted exactly once.
func TestCacheAccountingUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(int64(8+rng.Intn(56)) << 10)
		buf, huge := make([]byte, 4096), make([]byte, maxCachedValue)
		for i := 0; i < 20000; i++ {
			// Twelve tables under numbers 1..12.
			slot, off := rng.Intn(12), uint64(rng.Intn(40))
			file, segment := uint64(1+slot), uint64(101+slot)
			ukey := []byte(fmt.Sprintf("key%03d", off))
			switch rng.Intn(14) {
			case 0, 1:
				c.admit(file, off, &block{data: buf[:rng.Intn(len(buf))], restarts: make([]byte, 4)}, true)
			case 2:
				c.admit(file, off, &block{data: buf[:rng.Intn(len(buf))], restarts: make([]byte, 4)}, false)
			case 3, 4:
				c.get(file, off, rng.Intn(2) == 0)
			case 5:
				c.promote(file, off)
			case 6:
				// Values live under files 100 and up, as segments never
				// share a number with a table; a key's next put is to a
				// newer pointer, or an older one in a lower segment.
				c.PutValue(ukey, segment, uint64(i), buf[:rng.Intn(2048)])
			case 7:
				c.GetValue(nil, ukey, segment, uint64(rng.Intn(i+1)))
			case 8, 9:
				c.putRow(file, ukey, buf[:rng.Intn(2048)], kv.SeqNum(rng.Intn(9)), kv.KindSet, true)
			case 10:
				c.getRow(file, ukey, kv.SeqNum(rng.Intn(9)))
			case 11:
				if rng.Intn(8) == 0 {
					c.EvictFile([2]uint64{file, segment}[rng.Intn(2)])
				}
			case 12, 13:
				// Tombstones, values too small and too large for a row,
				// and sizes that reuse, shrink and grow the buffer.
				kind, value := kv.KindSet, buf[:rng.Intn(2048)]
				if rng.Intn(8) == 0 {
					kind = kv.KindDelete
				}
				if rng.Intn(16) == 0 {
					value = huge
				}
				c.rehome(file, bloomHash(ukey), kv.MakeInternalKey(nil, ukey, kv.SeqNum(rng.Intn(9)), kind), value)
			}
			if i%64 == 0 {
				checkCache(t, c)
			}
		}
		checkCache(t, c)
		if st := c.Stats(); st.RowsRehomed == 0 {
			t.Fatalf("seed %d: the op mix re-homed no row", seed)
		}
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
	mk := func() *block { return &block{data: data, restarts: make([]byte, 4)} }
	hot := 0
	for ; int64(hot+1)*mk().charge() <= capacity*protectedNum/protectedDen; hot++ {
		c.admit(1, uint64(hot), mk(), true)
		c.get(1, uint64(hot), true)
	}
	for i := 0; int64(i)*mk().charge() < 10*capacity; i++ {
		c.admit(2, uint64(i), mk(), true)
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
	blk := &block{data: make([]byte, perBlock*1024), restarts: make([]byte, 4)}
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
			if !rows || !c.putRow(1, ukey, value, 1, kv.KindSet, false) {
				c.admit(1, off, blk, true)
			}
			if i >= warm {
				misses++
			}
		case rows && !c.putRow(1, ukey, value, 1, kv.KindSet, true):
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

// TestPointReadAdmission: a point read that misses caches the row it came
// for, in probation, and not its block; the key's second read is a row hit
// that moves the row to protected and reads nothing through the file. An
// entry too small to be a row, and a key the table does not hold, leave
// the block cached instead, and the next read in the block hits it.
func TestPointReadAdmission(t *testing.T) {
	keys := tableKeys(40)
	open := func(value []byte) (*Table, *trackingReader, *Cache) {
		t.Helper()
		data := buildInto(t, NewBuilder(), nil, keys, value)
		file := &trackingReader{r: bytes.NewReader(data)}
		cache := NewCache(1 << 20)
		tbl, err := Open(file, int64(len(data)), 1, cache)
		if err != nil {
			t.Fatal(err)
		}
		file.calls = 0
		return tbl, file, cache
	}
	get := func(tbl *Table, ukey []byte) bool {
		t.Helper()
		_, _, _, ok, err := tbl.GetEntry(ukey, kv.MaxSeqNum)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	ukey := keys[5].UserKey()

	tbl, file, cache := open(bytes.Repeat([]byte{'v'}, 1024))
	if !get(tbl, ukey) {
		t.Fatal("first read: not found")
	}
	row, ok := stateOfRow(t, cache, ukey)
	if st := cache.Stats(); !ok || row.protected || st.Misses != 1 || st.Hits != 0 || st.Entries != 1 || st.RowEntries != 1 || file.calls != 1 {
		t.Fatalf("first read of a large entry: row %v (protected %v), %+v, %d reads; want one miss, one row in probation, no block, one read",
			ok, row.protected, st, file.calls)
	}
	if !get(tbl, ukey) {
		t.Fatal("second read: not found")
	}
	row, _ = stateOfRow(t, cache, ukey)
	if st := cache.Stats(); !row.protected || st.Misses != 1 || st.Hits != 1 || st.Entries != 1 || file.calls != 1 {
		t.Fatalf("second read: row protected %v, %+v, %d reads; want a row hit into protected and no read", row.protected, st, file.calls)
	}
	checkCache(t, cache)

	for _, tc := range []struct {
		name  string
		value []byte
		ukey  []byte
	}{
		{"a small entry", make([]byte, 64), ukey},
		{"an absent key", make([]byte, 1024), []byte("user000000000005x")},
	} {
		tbl, file, cache := open(tc.value)
		tbl.bloom = nil // every key gets past the filter
		get(tbl, tc.ukey)
		if st := cache.Stats(); st.Misses != 1 || st.Entries != 1 || st.RowEntries != 0 || file.calls != 1 {
			t.Fatalf("%s: %+v, %d reads; want one miss, the block cached, no row", tc.name, st, file.calls)
		}
		if !get(tbl, keys[6].UserKey()) {
			t.Fatalf("%s: a key in the same block not found", tc.name)
		}
		if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 || file.calls != 1 {
			t.Fatalf("%s: the next read in the block: %+v, %d reads; want a block hit", tc.name, st, file.calls)
		}
		checkCache(t, cache)
	}
}

// rowState is what a re-home must leave alone or move: the table a row is
// bound to, its version, its segment and its neighbours in it.
type rowState struct {
	file       uint64
	seq        kv.SeqNum
	protected  bool
	prev, next *cacheEntry
	size       int64
}

func stateOfRow(t *testing.T, c *Cache, ukey []byte) (rowState, bool) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.rows[rowHash(ukey)]
	if e == nil {
		return rowState{}, false
	}
	return rowState{e.key.file, e.seq, e.protected, e.prev, e.next, e.size}, true
}

// collidingKeys returns two user keys with one bloom hash.
func collidingKeys(t *testing.T) (a, b []byte) {
	t.Helper()
	seen := map[uint32]int{}
	for i := 0; i < 2_000_000; i++ {
		k := []byte(fmt.Sprintf("user%012d", i))
		if j, ok := seen[bloomHash(k)]; ok {
			return []byte(fmt.Sprintf("user%012d", j)), k
		}
		seen[bloomHash(k)] = i
	}
	t.Fatal("no two keys of two million share a bloom hash")
	return nil, nil
}

// TestRowFollowsItsKey: a key has one row, bound to one table; the writer of
// another table that carries the key binds the row to that table with the
// entry written, where it lies in its segment, and everything else a writer
// can present leaves the row as it was or drops it.
func TestRowFollowsItsKey(t *testing.T) {
	key, value := []byte("k"), func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	ik := func(k []byte, seq kv.SeqNum, kind kv.Kind) kv.InternalKey {
		return kv.MakeInternalKey(nil, k, seq, kind)
	}
	rehome := func(c *Cache, file uint64, k kv.InternalKey, v []byte) {
		c.rehome(file, bloomHash(k.UserKey()), k, v)
		checkCache(t, c)
	}
	for _, demoted := range []bool{false, true} {
		c := NewCache(64 << 10)
		c.putRow(1, []byte("before"), value('b', 1000), 1, kv.KindSet, true)
		if !c.putRow(1, key, value('5', 1000), 5, kv.KindSet, true) {
			t.Fatal("row refused")
		}
		// Rows read after k; enough of them push k out of protected.
		for i := 0; i < 3 || demoted && i < 45; i++ {
			c.putRow(1, []byte(fmt.Sprintf("after%02d", i)), value('a', 1000), 1, kv.KindSet, true)
		}
		was, _ := stateOfRow(t, c, key)
		if was.protected == demoted {
			t.Fatalf("set-up: row protected %v, want %v", was.protected, !demoted)
		}
		before := c.Stats()

		rehome(c, 2, ik(key, 9, kv.KindSet), value('9', 1000))
		now, _ := stateOfRow(t, c, key)
		if want := (rowState{2, 9, was.protected, was.prev, was.next, was.size}); now != want {
			t.Fatalf("demoted %v: re-homed row is %+v, want %+v: same segment, same place, same charge", demoted, now, want)
		}
		if st := c.Stats(); st.RowsRehomed != 1 || st.UsedBytes != before.UsedBytes || st.RowEntries != before.RowEntries || st.Hits != before.Hits {
			t.Fatalf("re-home moved %+v to %+v", before, st)
		}
		if _, _, _, ok := c.getRow(1, key, kv.MaxSeqNum); ok {
			t.Fatal("table 1 still answers for a row bound to table 2")
		}
		if _, _, _, ok := c.getRow(2, key, 8); ok {
			t.Fatal("the row answered below its sequence number")
		}
		if now2, _ := stateOfRow(t, c, key); now2 != now {
			t.Fatal("a row probe that did not answer moved the row")
		}

		// A larger entry: the charge follows, the place does not change.
		rehome(c, 3, ik(key, 10, kv.KindSet), value('x', 3000))
		now, _ = stateOfRow(t, c, key)
		grown := now.size - was.size
		if want := (rowState{3, 10, was.protected, was.prev, was.next, was.size + grown}); grown < 2000 || now != want {
			t.Fatalf("demoted %v: grown row is %+v, want %+v", demoted, now, want)
		}
		if st := c.Stats(); st.UsedBytes != before.UsedBytes+grown || st.RowBytes != before.RowBytes+grown || st.RowsRehomed != 2 {
			t.Fatalf("a row grew by %d bytes: %+v to %+v", grown, before, st)
		}

		// Left alone: an older version, the table the row is bound to.
		rehome(c, 4, ik(key, 9, kv.KindSet), value('o', 3000))
		rehome(c, 3, ik(key, 11, kv.KindSet), value('s', 3000))
		if same, _ := stateOfRow(t, c, key); same != now || c.Stats().RowsRehomed != 2 {
			t.Fatalf("an older version or the row's own table moved it: %+v to %+v", now, same)
		}
		if v, seq, _, ok := c.getRow(3, key, 10); !ok || seq != 10 || !bytes.Equal(v, value('x', 3000)) {
			t.Fatalf("getRow(3) = %d bytes at seq %d, %v", len(v), seq, ok)
		}

		// Dropped: what no read would have made a row.
		c.EvictFile(3)
		for name, e := range map[string]struct {
			kind  kv.Kind
			value []byte
		}{
			"tombstone":      {kv.KindDelete, nil},
			"small value":    {kv.KindSet, value('v', 64)},
			"oversize value": {kv.KindSet, value('v', maxCachedValue)},
		} {
			if !c.putRow(1, key, value('5', 1000), 5, kv.KindSet, true) {
				t.Fatal("row refused")
			}
			st := c.Stats()
			rehome(c, 5, ik(key, 20, e.kind), e.value)
			if _, ok := stateOfRow(t, c, key); ok || c.Stats().RowEntries != st.RowEntries-1 || c.Stats().RowsRehomed != st.RowsRehomed {
				t.Fatalf("%s: the row stayed: %+v to %+v", name, st, c.Stats())
			}
		}
	}

	// A colliding key has no row of its own and does not move the other's.
	c := NewCache(64 << 10)
	k1, k2 := collidingKeys(t)
	c.putRow(1, k1, value('1', 1000), 5, kv.KindSet, true)
	was, _ := stateOfRow(t, c, k1)
	rehome(c, 2, ik(k2, 9, kv.KindSet), value('2', 1000))
	if c.putRow(2, k2, value('2', 1000), 9, kv.KindSet, true) {
		t.Fatal("a colliding key took the slot")
	}
	if now, _ := stateOfRow(t, c, k1); now != was || c.Stats().RowsRehomed != 0 {
		t.Fatalf("a colliding key moved the row: %+v to %+v", was, now)
	}
	if _, _, _, ok := c.getRow(1, k2, kv.MaxSeqNum); ok {
		t.Fatal("a row answered for a colliding key")
	}

	// A read replaces the key's row only with a version no older, from
	// another table.
	if c.putRow(2, k1, value('o', 1000), 4, kv.KindSet, true) || c.putRow(1, k1, value('n', 1000), 6, kv.KindSet, true) {
		t.Fatal("an older version, or the same table, replaced the row")
	}
	if !c.putRow(2, k1, value('n', 1000), 6, kv.KindSet, true) {
		t.Fatal("a newer version in another table did not replace the row")
	}
	if now, _ := stateOfRow(t, c, k1); now.file != 2 || now.seq != 6 || c.Stats().RowEntries != 1 {
		t.Fatalf("replaced row is %+v", now)
	}
	checkCache(t, c)

	// A cache without rows costs a writer nothing per entry.
	empty := NewCache(64 << 10)
	empty.admit(1, 0, &block{data: value('b', 4000), restarts: make([]byte, 4)}, true)
	if b := NewBuilder().Carry(empty, 2); b.rows != nil {
		t.Fatal("a builder carries rows for a cache that has none")
	}
	if b := NewBuilder().Carry(nil, 2); b.rows != nil {
		t.Fatal("a builder carries rows for no cache")
	}
}

// valueState is where a key's value entry lies and what it is charged.
type valueState struct {
	key        cacheKey
	protected  bool
	prev, next *cacheEntry
	size       int64
}

func stateOfValue(c *Cache, ukey []byte) (valueState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.values[rowHash(ukey)]
	if e == nil {
		return valueState{}, false
	}
	return valueState{e.key, e.protected, e.prev, e.next, e.size}, true
}

// TestValueFollowsItsKey: a key's separated value has one entry, and it
// answers only for the pointer it was filled from. A newer record of the
// key takes the entry over where it lies in its segment, charged exactly;
// an older record — a read that looked at the tree before a commit wrote
// through — leaves it alone.
func TestValueFollowsItsKey(t *testing.T) {
	key, value := []byte("k"), func(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }
	for _, protected := range []bool{false, true} {
		c := NewCache(64 << 10)
		c.PutValue([]byte("before"), 10, 8, value('b', 1000))
		c.PutValue(key, 10, 100, value('1', 1000))
		c.PutValue([]byte("after"), 10, 2000, value('a', 1000))
		if protected { // a hit moves each to protected, in the same order
			c.GetValue(nil, []byte("before"), 10, 8)
			c.GetValue(nil, key, 10, 100)
			c.GetValue(nil, []byte("after"), 10, 2000)
		}
		checkCache(t, c)
		was, _ := stateOfValue(c, key)
		if was.protected != protected || was.prev == c.seg[0] || was.next == c.seg[0] {
			t.Fatalf("set-up: entry %+v, want protected %v between two others", was, protected)
		}
		c.mu.Lock()
		prot := c.protectedBytes
		c.mu.Unlock()
		before := c.Stats()

		// An overwrite of the same size: new pointer, new bytes, same place,
		// same charge, and the old pointer answers nothing.
		c.PutValue(key, 11, 8, value('2', 1000))
		checkCache(t, c)
		now, _ := stateOfValue(c, key)
		if want := (valueState{cacheKey{11, 8}, protected, was.prev, was.next, was.size}); now != want {
			t.Fatalf("protected %v: replaced entry is %+v, want %+v", protected, now, want)
		}
		c.mu.Lock()
		protNow := c.protectedBytes
		c.mu.Unlock()
		if st := c.Stats(); st.UsedBytes != before.UsedBytes || st.ValueBytes != before.ValueBytes || st.ValueEntries != before.ValueEntries || protNow != prot {
			t.Fatalf("an in-place replace moved %+v (protected %d) to %+v (protected %d)", before, prot, st, protNow)
		}
		if _, ok := c.GetValue(nil, key, 10, 100); ok {
			t.Fatal("the superseded pointer still answers")
		}

		// A larger value: the charge follows, the place does not change,
		// and the entry leaves with its new segment, not its old one.
		c.PutValue(key, 11, 3000, value('3', 3000))
		checkCache(t, c)
		now, _ = stateOfValue(c, key)
		grown := now.size - was.size
		if want := (valueState{cacheKey{11, 3000}, protected, was.prev, was.next, was.size + grown}); grown < 2000 || now != want {
			t.Fatalf("protected %v: grown entry is %+v, want %+v", protected, now, want)
		}
		c.mu.Lock()
		protNow = c.protectedBytes
		c.mu.Unlock()
		wantProt := prot
		if protected {
			wantProt += grown
		}
		if st := c.Stats(); st.ValueBytes != before.ValueBytes+grown || st.UsedBytes != before.UsedBytes+grown || protNow != wantProt {
			t.Fatalf("an entry grew by %d bytes: %+v (protected %d) to %+v (protected %d)", grown, before, prot, st, protNow)
		}
		c.EvictFile(10)
		if got, ok := c.GetValue(nil, key, 11, 3000); !ok || !bytes.Equal(got, value('3', 3000)) {
			t.Fatalf("the entry left with the segment it was filled from before: %d bytes, %v", len(got), ok)
		}

		// Fills move forward only: an older pointer, in an older segment or
		// earlier in the same one, and the same pointer again leave the
		// entry as it was.
		now, _ = stateOfValue(c, key)
		st := c.Stats()
		for _, p := range []cacheKey{{10, 100}, {11, 8}, {11, 3000}, {3, 1 << 20}} {
			c.PutValue(key, p.file, p.offset, value('o', 1000))
			if same, _ := stateOfValue(c, key); same != now || c.Stats() != st {
				t.Fatalf("a fill from %+v displaced the entry from %+v: %+v to %+v", p, now.key, now, same)
			}
		}
		if got, ok := c.GetValue(nil, key, 11, 3000); !ok || !bytes.Equal(got, value('3', 3000)) {
			t.Fatalf("the newest value is %d bytes, %v", len(got), ok)
		}

		// A newer value too large to admit takes the stale entry out.
		c.PutValue(key, 12, 8, value('x', maxCachedValue+1))
		checkCache(t, c)
		if _, ok := stateOfValue(c, key); ok || c.Stats().ValueEntries != st.ValueEntries-1 {
			t.Fatalf("an oversize overwrite left the stale entry: %+v", c.Stats())
		}
	}
}

// TestCollidingKeysNeverShareAValue: two keys with one hash share a value
// slot, and whichever holds it never answers for the other, whose pointer
// names another record. A newer record of either takes the slot over.
func TestCollidingKeysNeverShareAValue(t *testing.T) {
	c := NewCache(64 << 10)
	k1, k2 := collidingKeys(t)
	v1, v2 := bytes.Repeat([]byte{'1'}, 500), bytes.Repeat([]byte{'2'}, 500)
	c.PutValue(k1, 10, 8, v1)
	if _, ok := c.GetValue(nil, k2, 10, 600); ok {
		t.Fatal("a colliding key was answered from the other's entry")
	}
	c.PutValue(k2, 10, 600, v2) // newer: takes the slot
	checkCache(t, c)
	if _, ok := c.GetValue(nil, k1, 10, 8); ok {
		t.Fatal("the displaced key still answers")
	}
	if got, ok := c.GetValue(nil, k2, 10, 600); !ok || !bytes.Equal(got, v2) {
		t.Fatalf("the key in the slot = %q, %v", got, ok)
	}
	c.PutValue(k1, 10, 8, v1) // older: refused
	if got, ok := c.GetValue(nil, k2, 10, 600); !ok || !bytes.Equal(got, v2) {
		t.Fatalf("an older fill of a colliding key displaced the slot: %q, %v", got, ok)
	}
	c.PutValue(k1, 11, 8, v1) // k1 overwritten: newer again
	if _, ok := c.GetValue(nil, k2, 10, 600); ok {
		t.Fatal("the displaced key still answers")
	}
	if got, ok := c.GetValue(nil, k1, 11, 8); !ok || !bytes.Equal(got, v1) {
		t.Fatalf("the key in the slot = %q, %v", got, ok)
	}
	if st := c.Stats(); st.ValueEntries != 1 {
		t.Fatalf("two colliding keys hold %d value entries, want 1", st.ValueEntries)
	}
}

// TestBuilderCarriesRows: through Builder.Add the newest version of a key
// takes the row, the older ones of the same table leave it, and the table
// then read answers from the row at and above that version only.
func TestBuilderCarriesRows(t *testing.T) {
	cache := NewCache(1 << 20)
	big := func(c byte) []byte { return bytes.Repeat([]byte{c}, 1100) }
	cache.putRow(1, []byte("k"), big('5'), 5, kv.KindSet, true)
	cache.putRow(1, []byte("gone"), big('g'), 5, kv.KindSet, true)
	b := NewBuilder().Carry(cache, 7)
	for _, e := range []struct {
		k   string
		seq kv.SeqNum
		v   []byte
	}{{"a", 3, big('a')}, {"k", 9, big('9')}, {"k", 7, big('7')}, {"z", 4, big('z')}} {
		b.Add(kv.MakeInternalKey(nil, []byte(e.k), e.seq, kv.KindSet), e.v)
	}
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.RowsRehomed != 1 || st.RowEntries != 2 {
		t.Fatalf("building a table with one cached key: %+v", st)
	}
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 7, cache)
	if err != nil {
		t.Fatal(err)
	}
	if v, seq, _, ok, err := tbl.GetEntry([]byte("k"), kv.MaxSeqNum); err != nil || !ok || seq != 9 || !bytes.Equal(v, big('9')) {
		t.Fatalf("GetEntry(k) = %d bytes at seq %d, %v, %v", len(v), seq, ok, err)
	}
	if st := cache.Stats(); st.Misses != 0 || st.Hits != 1 {
		t.Fatalf("the carried row did not answer: %+v", st)
	}
	if v, seq, _, ok, err := tbl.GetEntry([]byte("k"), 8); err != nil || !ok || seq != 7 || !bytes.Equal(v, big('7')) {
		t.Fatalf("GetEntry(k, 8) = %d bytes at seq %d, %v, %v", len(v), seq, ok, err)
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("a read below the row's version did not go to the blocks: %+v", st)
	}
	// The row of a key the table does not carry stays bound to table 1.
	if _, _, _, ok := cache.getRow(1, []byte("gone"), kv.MaxSeqNum); !ok {
		t.Fatal("a row whose key was not written moved or left")
	}
	checkCache(t, cache)
}

// TestOlderVersionNeverTakesARow: a row a concurrent read fills while a
// table is being built, after the newest version of its key was added, stays
// where it is: only the newest version of a key may take its row, or the
// table would answer with an older value (or a deleted one) from its row.
func TestOlderVersionNeverTakesARow(t *testing.T) {
	big := func(c byte) []byte { return bytes.Repeat([]byte{c}, 1100) }
	for _, newest := range []kv.Kind{kv.KindSet, kv.KindDelete} {
		cache := NewCache(1 << 20)
		cache.putRow(1, []byte("other"), big('o'), 5, kv.KindSet, true)
		v9 := big('9')
		if newest == kv.KindDelete {
			v9 = nil
		}
		b := NewBuilder().Carry(cache, 7)
		b.Add(kv.MakeInternalKey(nil, []byte("k"), 9, newest), v9)
		cache.putRow(1, []byte("k"), big('5'), 5, kv.KindSet, true) // a read of table 1 meanwhile
		b.Add(kv.MakeInternalKey(nil, []byte("k"), 7, kv.KindSet), big('7'))
		data, meta, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, ok := cache.getRow(1, []byte("k"), kv.MaxSeqNum); !ok || meta.Rows != 0 {
			t.Errorf("newest %v: the row filled from table 1 moved (%d rows carried)", newest, meta.Rows)
		}
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), 7, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, seq, kind, ok, err := tbl.GetEntry([]byte("k"), kv.MaxSeqNum); err != nil || !ok || seq != 9 || kind != newest {
			t.Errorf("newest %v: GetEntry(k) = seq %d kind %v, %v, %v; want seq 9", newest, seq, kind, ok, err)
		}
		checkCache(t, cache)
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
		if !c.putRow(1, ukey, value, kv.SeqNum(next), kv.KindSet, true) {
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
		if !c.putRow(1, ukey, value, kv.SeqNum(next), kv.KindSet, true) {
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
	file, ik := uint64(1), kv.InternalKey(nil)
	if n := testing.AllocsPerRun(200, func() {
		file, next = file+1, next+1
		ik = kv.MakeInternalKey(ik, ukey, kv.SeqNum(next), kv.KindSet)
		c.rehome(file, bloomHash(ukey), ik, value)
	}); n != 0 {
		t.Errorf("re-homing a row into a full cache at its size allocates %.1f times, want 0", n)
	}
	if st := c.Stats(); st.RowsRehomed != 201 || st.UsedBytes != full.UsedBytes {
		t.Fatalf("re-homes: %+v", st)
	}
	for i := 0; i < 8; i++ { // promotion and demotion: hits on cold rows
		copy(ukey, fmt.Sprintf("user%012d", next-40-i))
		if n := testing.AllocsPerRun(1, func() { c.getRow(1, ukey, kv.MaxSeqNum) }); n > 1 {
			t.Errorf("a hit that reorders the segments allocates %.1f times", n)
		}
	}
}

// TestCachedBlockOutlivesItsWindow: a block admitted from a buffer that is
// reused (a streaming window, a point read's scratch) is cached as a copy
// of its entries and restart array — the restarts in the slack of the
// entries' copy where they fit, else on their own, both seen here — and
// charged as before (entries, four bytes a restart, 64): once the buffer is
// overwritten the cached block still iterates, seeks and steps back over
// its restarts as the block did. A restart past the entries still fails
// decode.
func TestCachedBlockOutlivesItsWindow(t *testing.T) {
	var inSlack, apart bool
	for n := 40; n < 200; n += 3 {
		var bb blockBuilder
		var win []byte
		var keys []kv.InternalKey
		for i := range n {
			k := kv.MakeInternalKey(nil, []byte(fmt.Sprintf("key%04d", i)), kv.SeqNum(i+1), kv.KindSet)
			keys = append(keys, k)
			win = bb.add(win, k, []byte(fmt.Sprintf("value%04d", i)))
		}
		win = bb.finish(win)
		raw := bytes.Clone(win)
		restarts := (n + restartInterval - 1) / restartInterval
		var w block
		if err := w.decode(win); err != nil || len(w.restarts) != 4*restarts {
			t.Fatalf("%d entries: decode: %d restart bytes, %v", n, len(w.restarts), err)
		}
		c := NewCache(1 << 20)
		c.admit(1, 0, &w, false)
		for i := range win {
			win[i] = poison
		}
		b := c.get(1, 0, false)
		if want := int64(len(w.data) + 4*restarts + 64); b == nil || c.Stats().UsedBytes != want {
			t.Fatalf("%d entries: cached %v, charged %d bytes, want %d", n, b != nil, c.Stats().UsedBytes, want)
		}
		if cap(b.data) > len(b.data) && &b.data[:len(b.data)+1][len(b.data)] == &b.restarts[0] {
			inSlack = true
		} else {
			apart = true
		}
		at := func(it *blockIter, i int, how string) {
			t.Helper()
			if !it.Valid() || kv.CompareInternal(it.Key(), keys[i]) != 0 || string(it.Value()) != fmt.Sprintf("value%04d", i) {
				t.Fatalf("%d entries, %s: at %q = %q (valid %v, %v), want entry %d", n, how, it.Key(), it.Value(), it.Valid(), it.Error(), i)
			}
		}
		it := newBlockIter(b)
		i := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			at(it, i, "forward")
			i++
		}
		for j, k := range keys {
			it.Seek(k)
			at(it, j, "Seek")
		}
		i = len(keys) - 1
		for it.SeekToLast(); it.Valid(); it.Prev() {
			at(it, i, "backward")
			i--
		}
		if i != -1 || it.Error() != nil {
			t.Fatalf("%d entries: backward walk stopped before entry %d: %v", n, i, it.Error())
		}

		entries := len(raw) - 4 - 4*restarts
		binary.LittleEndian.PutUint32(raw[entries+4*(restarts-1):], uint32(entries+1))
		if _, err := decodeBlock(raw); err == nil {
			t.Fatalf("%d entries: a restart past the entries decoded", n)
		}
	}
	if !inSlack || !apart {
		t.Fatalf("restarts in the entries' slack seen %v, on their own seen %v: want both", inSlack, apart)
	}
}
