package sstable

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a shared LRU cache of decoded blocks and separated values,
// keyed by (file number, offset). One cache serves all tables of a DB,
// like LevelDB's block cache, and its value log: a value entry holds the
// value of the record at that offset of a segment. Tables and segments
// are numbered by one never-reused counter, so the two kinds cannot
// collide; they share one LRU and one byte budget.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List
	items    map[cacheKey]*list.Element
	// The value entries' share of ll.Len() and used. guarded by mu.
	valueEntries int
	valueBytes   int64

	hits, misses int64

	// Bloom-filter outcome counters for the tables sharing this
	// cache: definite negatives (lookups the filter rejected), true
	// positives (filter passed, key present) and false positives
	// (filter passed, key absent). Atomics: a filter probe bumps one
	// without taking mu.
	bloomNeg, bloomTruePos, bloomFalsePos atomic.Int64

	// corrupt counts CRC-failed block reads across the cache's
	// tables. guarded by mu.
	corrupt int64
	// onCorrupt, if set, is invoked (outside mu) once per CRC
	// failure with the damaged block's file number and offset.
	// guarded by mu.
	onCorrupt func(file, offset uint64)
}

type cacheKey struct {
	file   uint64
	offset uint64
}

// cacheEntry holds a block, or (block nil) a separated value.
type cacheEntry struct {
	key   cacheKey
	block *block
	value []byte
	size  int64
}

const (
	// maxCachedValue is the largest separated value admitted: of the
	// default 2 MiB budget a 64 KiB value earns its 1/32 (BENCH_ycsb.json,
	// 64 KiB B/C); a 1 MiB one only flushes half the blocks for nothing.
	maxCachedValue = 64 << 10
	// valueOverhead is charged per value entry on top of its buffer: list
	// element, entry and map slot, as measured on the heap.
	valueOverhead = 160
)

// NewCache creates a cache bounded to capacity bytes of blocks and values.
// A nil cache is valid and caches nothing.
func NewCache(capacity int64) *Cache {
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
	}
}

func (c *Cache) get(file, offset uint64) *block {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[cacheKey{file, offset}]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).block
	}
	c.misses++
	return nil
}

// GetValue copies the cached value of the value-log record at (file,
// offset) into dst's storage and reports whether there was one. Value
// lookups stay out of the hit and miss counters, which describe blocks.
func (c *Cache) GetValue(dst []byte, file, offset uint64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[cacheKey{file, offset}]
	if !ok || el.Value.(*cacheEntry).block != nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return append(dst[:0], el.Value.(*cacheEntry).value...), true
}

// PutValue caches a copy of the value of the record at (file, offset),
// which the caller knows is not cached: it was just written, or GetValue
// just missed. That makes the insert the only map probe; a key put twice
// would cost room and misses as the duplicates age out, never a wrong
// value. A full cache gives up its coldest entry, and the new one takes
// over its list element, entry and — a value's, if it fits — buffer: a
// steady stream of like-sized values allocates nothing.
func (c *Cache) PutValue(file, offset uint64, value []byte) {
	need := int64(len(value)) + valueOverhead
	if c == nil || len(value) > maxCachedValue || need > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{file, offset}
	el := c.ll.Back()
	if el != nil && c.used+need > c.capacity {
		c.forget(el.Value.(*cacheEntry))
		c.ll.MoveToFront(el)
	} else {
		el = c.ll.PushFront(&cacheEntry{})
	}
	e := el.Value.(*cacheEntry)
	// A buffer more than an eighth too large would be charged for nothing.
	if n := cap(e.value); n < len(value) || n > len(value)+len(value)/8 {
		e.value = make([]byte, 0, len(value))
	}
	e.key, e.block, e.value = k, nil, append(e.value[:0], value...)
	e.size = int64(cap(e.value)) + valueOverhead
	c.items[k] = el
	c.used += e.size
	c.valueEntries++
	c.valueBytes += e.size
	c.evict()
}

// forget unindexes and uncharges an entry still on the list. Caller holds mu.
func (c *Cache) forget(ent *cacheEntry) {
	delete(c.items, ent.key)
	c.used -= ent.size
	if ent.block == nil {
		c.valueEntries--
		c.valueBytes -= ent.size
	}
}

// evict drops the coldest entries until the cache fits. Caller holds mu.
func (c *Cache) evict() {
	for c.used > c.capacity && c.ll.Len() > 0 {
		c.forget(c.ll.Remove(c.ll.Back()).(*cacheEntry))
	}
}

func (c *Cache) put(file, offset uint64, b *block) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{file, offset}
	if _, ok := c.items[k]; ok {
		return
	}
	e := &cacheEntry{key: k, block: b, size: b.charge()}
	c.items[k] = c.ll.PushFront(e)
	c.used += e.size
	c.evict()
}

// charge is what a cached block costs the budget.
func (b *block) charge() int64 { return int64(len(b.data)) + int64(4*len(b.restarts)) + 64 }

// admit caches a copy of b, decoded in a buffer its iterator will reuse,
// only if that evicts nothing: a store that fits the cache still ends up
// resident, a scan over a bigger one leaves the hot blocks where they are.
func (c *Cache) admit(file, offset uint64, b *block) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k, size := cacheKey{file, offset}, b.charge()
	if _, ok := c.items[k]; ok || c.used+size > c.capacity {
		return
	}
	b = &block{data: append([]byte(nil), b.data...), restarts: append([]uint32(nil), b.restarts...)}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, block: b, size: size})
	c.used += size
}

// EvictFile drops every cached block or value of the given file (called
// when a table or value-log segment is deleted).
func (c *Cache) EvictFile(file uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); ent.key.file == file {
			c.ll.Remove(el)
			c.forget(ent)
		}
		el = next
	}
}

// noteBloom records one bloom-filter outcome for a table sharing this
// cache. Nil-safe (compaction readers run without a cache).
func (c *Cache) noteBloom(passed, found bool) {
	if c == nil {
		return
	}
	switch {
	case !passed:
		c.bloomNeg.Add(1)
	case found:
		c.bloomTruePos.Add(1)
	default:
		c.bloomFalsePos.Add(1)
	}
}

// SetCorruptObserver installs fn to be called once per detected
// block-CRC failure in any table sharing this cache. Nil-safe.
func (c *Cache) SetCorruptObserver(fn func(file, offset uint64)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onCorrupt = fn
}

// noteCorrupt records one CRC-failed block read and notifies the
// observer. Nil-safe (compaction readers run without a cache).
func (c *Cache) noteCorrupt(file, offset uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.corrupt++
	fn := c.onCorrupt
	c.mu.Unlock()
	if fn != nil {
		fn(file, offset)
	}
}

// CacheStats is a point-in-time copy of the cache and bloom counters.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// UsedBytes and Entries describe the current residency, blocks and
	// values together; ValueBytes and ValueEntries the values' share.
	UsedBytes    int64 `json:"used_bytes"`
	Entries      int   `json:"entries"`
	ValueBytes   int64 `json:"value_bytes"`
	ValueEntries int   `json:"value_entries"`
	// Bloom-filter effectiveness across the cache's tables.
	BloomNegatives      int64 `json:"bloom_negatives"`
	BloomTruePositives  int64 `json:"bloom_true_positives"`
	BloomFalsePositives int64 `json:"bloom_false_positives"`
	// CorruptBlocks counts block reads that failed their CRC.
	CorruptBlocks int64 `json:"corrupt_blocks"`
}

// Stats returns the cache and bloom counters. A nil cache reports
// zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		UsedBytes: c.used, Entries: c.ll.Len(),
		ValueBytes: c.valueBytes, ValueEntries: c.valueEntries,
		BloomNegatives:      c.bloomNeg.Load(),
		BloomTruePositives:  c.bloomTruePos.Load(),
		BloomFalsePositives: c.bloomFalsePos.Load(),
		CorruptBlocks:       c.corrupt,
	}
}
