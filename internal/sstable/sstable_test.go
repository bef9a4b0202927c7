package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sealdb/internal/kv"
)

func newBlockIter(b *block) *blockIter { return &blockIter{b: b} }

func buildTable(t *testing.T, entries map[string]string) ([]byte, Meta) {
	t.Helper()
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := NewBuilder()
	for i, k := range keys {
		ik := kv.MakeInternalKey(nil, []byte(k), kv.SeqNum(i+1), kv.KindSet)
		b.Add(ik, []byte(entries[k]))
	}
	data, meta, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data, meta
}

func genEntries(n int, seed int64) map[string]string {
	rng := rand.New(rand.NewSource(seed))
	m := make(map[string]string, n)
	for len(m) < n {
		k := fmt.Sprintf("key%08d", rng.Intn(10*n))
		m[k] = fmt.Sprintf("value-%d-%d", len(m), rng.Int63())
	}
	return m
}

func TestBuildAndGet(t *testing.T) {
	entries := genEntries(2000, 1)
	data, meta := buildTable(t, entries)
	if meta.Entries != len(entries) {
		t.Fatalf("meta entries %d, want %d", meta.Entries, len(entries))
	}
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range entries {
		got, deleted, ok, err := tbl.Get([]byte(k), kv.MaxSeqNum)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || deleted || string(got) != v {
			t.Fatalf("Get(%q) = (%q, del=%v, ok=%v), want %q", k, got, deleted, ok, v)
		}
	}
	// Absent keys.
	for _, k := range []string{"", "a", "zzzzzz", "key"} {
		if _, ok := entries[k]; ok {
			continue
		}
		_, _, ok, err := tbl.Get([]byte(k), kv.MaxSeqNum)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("Get(%q) found a nonexistent key", k)
		}
	}
}

func TestSnapshotVisibility(t *testing.T) {
	b := NewBuilder()
	k := []byte("key")
	// Internal order: higher seq first.
	b.Add(kv.MakeInternalKey(nil, k, 30, kv.KindSet), []byte("v30"))
	b.Add(kv.MakeInternalKey(nil, k, 20, kv.KindDelete), nil)
	b.Add(kv.MakeInternalKey(nil, k, 10, kv.KindSet), []byte("v10"))
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		seq  kv.SeqNum
		want string
		del  bool
		ok   bool
	}{
		{5, "", false, false},
		{10, "v10", false, true},
		{15, "v10", false, true},
		{20, "", true, true},
		{25, "", true, true},
		{30, "v30", false, true},
		{kv.MaxSeqNum, "v30", false, true},
	}
	for _, c := range cases {
		v, del, ok, err := tbl.Get(k, c.seq)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || del != c.del || string(v) != c.want {
			t.Errorf("Get@%d = (%q, %v, %v), want (%q, %v, %v)", c.seq, v, del, ok, c.want, c.del, c.ok)
		}
	}
}

func TestIteratorFullScan(t *testing.T) {
	entries := genEntries(3000, 2)
	data, _ := buildTable(t, entries)
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	it := tbl.NewIterator()
	i := 0
	var prev kv.InternalKey
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if string(it.Key().UserKey()) != keys[i] {
			t.Fatalf("position %d: got %q, want %q", i, it.Key().UserKey(), keys[i])
		}
		if string(it.Value()) != entries[keys[i]] {
			t.Fatalf("value mismatch at %q", keys[i])
		}
		if prev != nil && kv.CompareInternal(prev, it.Key()) >= 0 {
			t.Fatal("iterator order violation")
		}
		prev = it.Key().Clone()
		i++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("scanned %d, want %d", i, len(keys))
	}
}

func TestIteratorSeek(t *testing.T) {
	entries := genEntries(1000, 3)
	data, _ := buildTable(t, entries)
	tbl, _ := Open(bytes.NewReader(data), int64(len(data)), 1, NewCache(1<<20))
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	it := tbl.NewIterator()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		target := fmt.Sprintf("key%08d", rng.Intn(11000))
		it.Seek(kv.MakeSearchKey(nil, []byte(target), kv.MaxSeqNum))
		// Expected: first key >= target.
		want := sort.SearchStrings(keys, target)
		if want == len(keys) {
			if it.Valid() {
				t.Fatalf("seek(%q) should be exhausted, at %q", target, it.Key().UserKey())
			}
			continue
		}
		if !it.Valid() {
			t.Fatalf("seek(%q) invalid, want %q", target, keys[want])
		}
		if string(it.Key().UserKey()) != keys[want] {
			t.Fatalf("seek(%q) landed on %q, want %q", target, it.Key().UserKey(), keys[want])
		}
	}
}

func TestOutOfOrderAddFails(t *testing.T) {
	b := NewBuilder()
	b.Add(kv.MakeInternalKey(nil, []byte("b"), 1, kv.KindSet), nil)
	b.Add(kv.MakeInternalKey(nil, []byte("a"), 2, kv.KindSet), nil)
	if _, _, err := b.Finish(); err == nil {
		t.Error("out-of-order add not detected")
	}
}

func TestEmptyTableFails(t *testing.T) {
	if _, _, err := NewBuilder().Finish(); err == nil {
		t.Error("empty table finished without error")
	}
}

func TestCorruptionDetected(t *testing.T) {
	entries := genEntries(500, 5)
	data, _ := buildTable(t, entries)

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	if _, err := Open(bytes.NewReader(bad), int64(len(bad)), 1, nil); err == nil {
		t.Error("bad magic accepted")
	}

	// Flipped bit in the first data block: CRC must catch it on read.
	bad2 := append([]byte(nil), data...)
	bad2[10] ^= 0x01
	tbl, err := Open(bytes.NewReader(bad2), int64(len(bad2)), 1, nil)
	if err != nil {
		t.Fatal(err) // index/bloom live at the end; open succeeds
	}
	var sawErr bool
	for k := range entries {
		if _, _, _, err := tbl.Get([]byte(k), kv.MaxSeqNum); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("corrupted data block never reported")
	}

	// Truncated file.
	if _, err := Open(bytes.NewReader(data[:10]), 10, 1, nil); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestBloomFilterSkipsAbsent(t *testing.T) {
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("present%06d", i))
	}
	f := buildBloom(keys)
	for _, k := range keys {
		if !bloomMayContain(f, k) {
			t.Fatalf("false negative for %q", k)
		}
	}
	fp := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if bloomMayContain(f, []byte(fmt.Sprintf("absent%06d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / trials; rate > 0.03 {
		t.Errorf("false positive rate %.3f > 0.03", rate)
	}
}

func TestBloomProperties(t *testing.T) {
	f := func(keys [][]byte) bool {
		filter := buildBloom(keys)
		for _, k := range keys {
			if !bloomMayContain(filter, k) {
				return false // a bloom filter must never have false negatives
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBloomRateAtEveryWidth measures each filter width a level can get
// against the theoretical rate at the best probe count, 0.6185^bits: a
// filter over 10,000 keys must let at most 1.5 times that through. The
// 32-bit hash and its double-hashed probes are where a wide filter would
// fall short of its width. Each width is measured on at least 100,000
// absent keys, and on enough for about 200 false positives (33 million at
// 25 bits), since 100,000 would expect under one there.
func TestBloomRateAtEveryWidth(t *testing.T) {
	key := make([]byte, 9)
	keyAt := func(prefix byte, i int) []byte {
		key[0] = prefix
		binary.BigEndian.PutUint64(key[1:], uint64(i))
		return key
	}
	hashes := make([]uint32, 10000)
	for i := range hashes {
		hashes[i] = bloomHash(keyAt('p', i))
	}
	for _, bits := range []int{10, 15, 20, 25} {
		filter := appendBloom(nil, hashes, bits)
		theory := math.Pow(0.6185, float64(bits))
		trials, fp := max(100000, int(200/theory)), 0
		for i := 0; i < trials; i++ {
			if bloomMayContain(filter, keyAt('a', i)) {
				fp++
			}
		}
		if rate := float64(fp) / float64(trials); rate > 1.5*theory {
			t.Errorf("%d bits per key: false-positive rate %.3g over %d absent keys, theory %.3g", bits, rate, trials, theory)
		}
	}
}

// TestOneReaderReadsEveryFilterWidth opens tables of two filter widths
// through one cache. Every key of each is found, which a reader probing a
// narrow filter with a wide filter's count would miss, and each table's
// false positives stay at its own width's rate, which a reader probing a
// wide filter with a narrow filter's count would exceed many times over.
func TestOneReaderReadsEveryFilterWidth(t *testing.T) {
	cache := NewCache(1 << 20)
	const n, trials = 2000, 50000
	for i, bits := range []int{25, 10} {
		b := NewBuilder().Reset(nil, bits)
		for j := 0; j < n; j++ {
			b.Add(kv.MakeInternalKey(nil, []byte(fmt.Sprintf("t%d-%06d", i, j)), 1, kv.KindSet), []byte("v"))
		}
		data, _, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := Open(bytes.NewReader(data), int64(len(data)), uint64(i+1), cache)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if _, _, ok, err := tbl.Get([]byte(fmt.Sprintf("t%d-%06d", i, j)), kv.MaxSeqNum); !ok || err != nil {
				t.Fatalf("%d-bit table: key %d not found (%v)", bits, j, err)
			}
		}
		before := cache.Stats().BloomFalsePositives
		for j := 0; j < trials; j++ {
			if _, _, ok, _ := tbl.Get([]byte(fmt.Sprintf("t%d-absent-%06d", i, j)), kv.MaxSeqNum); ok {
				t.Fatalf("%d-bit table: absent key %d found", bits, j)
			}
		}
		fp := cache.Stats().BloomFalsePositives - before
		if limit := 1.5*math.Pow(0.6185, float64(bits)) + 1e-3; float64(fp)/trials > limit {
			t.Errorf("%d-bit table: %d false positives in %d absent keys, over %.3g of them", bits, fp, trials, limit)
		}
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(400) // each 100-byte block costs 168 with overhead
	mk := func(n int) *block { return &block{data: make([]byte, n), restarts: make([]byte, 4)} }
	c.admit(1, 0, mk(100), true)
	c.admit(1, 1, mk(100), true)
	if c.get(1, 0, true) == nil {
		t.Fatal("miss on cached block")
	}
	// Inserting a third 100-byte block (each entry ~168 bytes with
	// overhead) evicts the LRU entry, which is (1,1).
	c.admit(1, 2, mk(100), true)
	if c.get(1, 1, true) != nil {
		t.Error("LRU entry not evicted")
	}
	c.EvictFile(1)
	if c.get(1, 0, true) != nil || c.get(1, 2, true) != nil {
		t.Error("EvictFile left blocks behind")
	}
	// nil cache is inert.
	var nc *Cache
	nc.admit(1, 0, mk(10), true)
	if nc.get(1, 0, true) != nil {
		t.Error("nil cache returned a block")
	}
}

// TestCacheValues covers the second kind of entry: separated values
// share the blocks' LRU, budget and residency figures, stay out of the
// block hit/miss counters, leave with their file, and are refused when
// too large to be worth the room.
func TestCacheValues(t *testing.T) {
	c := NewCache(4096)
	val := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	c.admit(1, 0, &block{data: make([]byte, 1000), restarts: make([]byte, 4)}, true)
	key := func(b byte) []byte { return []byte{'k', b} }
	c.PutValue(key('a'), 2, 8, val(1000, 'a'))
	c.PutValue(key('b'), 2, 1100, val(1000, 'b'))
	dst := make([]byte, 0, 2000)
	got, ok := c.GetValue(dst, key('a'), 2, 8)
	if !ok || !bytes.Equal(got, val(1000, 'a')) || &got[0] != &dst[:1][0] {
		t.Fatalf("GetValue = %d bytes, %v; want the first value, copied into dst", len(got), ok)
	}
	if _, ok := c.GetValue(nil, key('a'), 2, 9); ok {
		t.Fatal("hit on a pointer never cached")
	}
	if _, ok := c.GetValue(nil, key('b'), 2, 8); ok {
		t.Fatal("a key was served the value of another key's pointer")
	}
	if _, ok := c.GetValue(nil, key('a'), 1, 0); ok {
		t.Fatal("a block entry was served as a value")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("value lookups moved the block counters: %+v", st)
	}
	if st.Entries != 3 || st.ValueEntries != 2 || st.ValueBytes != 2*(1000+valueOverhead) || st.UsedBytes != st.ValueBytes+1000+4+64 {
		t.Fatalf("residency after one block and two values: %+v", st)
	}

	// A third value does not fit beside them: the coldest entry, the
	// block, goes, and the budget holds.
	c.PutValue(key('c'), 2, 2200, val(1000, 'c'))
	if st = c.Stats(); st.Entries != 3 || st.ValueEntries != 3 || st.UsedBytes != st.ValueBytes || st.UsedBytes > 4096 {
		t.Fatalf("residency after the block was displaced: %+v", st)
	}
	if c.get(1, 0, true) != nil {
		t.Fatal("displaced block still cached")
	}
	// A fourth takes over the coldest value's entry: (2, 1100), since
	// (2, 8) was read after it.
	c.PutValue(key('d'), 3, 8, val(990, 'd'))
	if _, ok := c.GetValue(nil, key('b'), 2, 1100); ok {
		t.Fatal("coldest value survived a full cache")
	}
	if got, ok := c.GetValue(nil, key('d'), 3, 8); !ok || !bytes.Equal(got, val(990, 'd')) {
		t.Fatalf("recycled entry holds %d bytes, %v", len(got), ok)
	}
	if st = c.Stats(); st.ValueEntries != 3 || st.ValueBytes != 3*(1000+valueOverhead) || st.UsedBytes > 4096 {
		t.Fatalf("a 990-byte value in a recycled 1000-byte buffer is charged its buffer: %+v", st)
	}

	c.EvictFile(2)
	if st = c.Stats(); st.Entries != 1 || st.ValueEntries != 1 || st.UsedBytes != 1000+valueOverhead || st.ValueBytes != st.UsedBytes {
		t.Fatalf("residency after evicting file 2: %+v", st)
	}

	// Never admitted: a value over the bound, or one the whole budget
	// could not hold.
	big := NewCache(1 << 20)
	big.PutValue(key('e'), 4, 8, make([]byte, maxCachedValue))
	big.PutValue(key('f'), 4, 1<<17, make([]byte, maxCachedValue+1))
	c.PutValue(key('e'), 4, 8, make([]byte, 4096))
	if st, small := big.Stats(), c.Stats(); st.ValueEntries != 1 || small.ValueEntries != 1 {
		t.Fatalf("admission: %+v, %+v", st, small)
	}
	var nc *Cache
	nc.PutValue(key('z'), 1, 0, val(10, 'z'))
	if _, ok := nc.GetValue(nil, key('z'), 1, 0); ok {
		t.Error("nil cache returned a value")
	}
}

func TestSeparatorProperty(t *testing.T) {
	f := func(a, b []byte, sa, sb uint16) bool {
		ia := kv.MakeInternalKey(nil, a, kv.SeqNum(sa), kv.KindSet)
		ib := kv.MakeInternalKey(nil, b, kv.SeqNum(sb), kv.KindSet)
		if kv.CompareInternal(ia, ib) >= 0 {
			return true // precondition: a < b
		}
		sep := separator(nil, ia, ib)
		return kv.CompareInternal(sep, ia) >= 0 && kv.CompareInternal(sep, ib) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLargeValues(t *testing.T) {
	b := NewBuilder()
	big := bytes.Repeat([]byte("x"), 100000) // much larger than a block
	b.Add(kv.MakeInternalKey(nil, []byte("big"), 1, kv.KindSet), big)
	b.Add(kv.MakeInternalKey(nil, []byte("small"), 2, kv.KindSet), []byte("s"))
	data, _, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(bytes.NewReader(data), int64(len(data)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, _, ok, err := tbl.Get([]byte("big"), kv.MaxSeqNum)
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("large value lost: ok=%v err=%v len=%d", ok, err, len(v))
	}
	v2, _, ok2, _ := tbl.Get([]byte("small"), kv.MaxSeqNum)
	if !ok2 || string(v2) != "s" {
		t.Error("entry after large value lost")
	}
}
