package sstable

import (
	"bytes"
	"sync"
	"sync/atomic"

	"sealdb/internal/kv"
)

// Cache is a shared cache of three kinds of entry inside one byte budget:
// decoded blocks, keyed by (file number, offset); rows, one per user key,
// each holding the newest entry of its key in the one table it is bound to
// and answering for that table alone; and separated values, one per user
// key, each holding the value of one value-log record and answering only
// for the pointer to it, (segment number, offset). One cache serves all
// tables of a DB, like LevelDB's block cache, and its value log. Tables
// and segments are numbered by one never-reused counter, so a file's
// chain never mixes the two.
//
// A row is formed by a point read (Table.GetEntry) of an entry large next
// to its block, in place of the block: a read that misses caches the row
// and not the block, and one that finds the block cached (a read of a
// smaller neighbour left it) caches the row and leaves the block where it
// lies. The row follows its key from then on: whoever writes a table that
// carries the key binds the row to that table with the entry written
// (Builder.Carry). A value entry follows its key forward in the log: a
// newer record of the key, written through at commit or filled by a read,
// takes the entry over (PutValue). Nothing is invalidated; a row bound to a
// table that was deleted or never installed, or a value whose record no
// tree entry names any more, is unreachable and leaves through EvictFile, a
// newer record or ageing out.
//
// The budget is split into two LRU segments. Everything enters probation,
// but for a row formed from a cached block, its key's second read; an
// entry's first hit moves it to protected, whose overflow falls back to the
// head of probation, and eviction takes probation's tail first: what was
// read once cannot push out what was read twice.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	// seg[0] is probation's sentinel, seg[1] protected's: each the head
	// of a ring, hottest entry next, coldest prev. guarded by mu.
	seg            [2]*cacheEntry
	protectedBytes int64
	entries        int
	// items indexes blocks by (file, offset), rows and values index rows
	// and separated values by the hash of the user key; files chains every
	// entry of a file, a row under the table it is bound to, a value under
	// its segment. guarded by mu.
	items  map[cacheKey]*cacheEntry
	rows   map[uint64]*cacheEntry
	values map[uint64]*cacheEntry
	files  map[uint64]*cacheEntry
	// The separated values' and the rows' shares of entries and used.
	// guarded by mu.
	valueEntries         int
	valueBytes, rowBytes int64
	// rowEntries changes under mu; hasRows reads it without.
	rowEntries atomic.Int64

	hits, misses, rehomed int64

	// Bloom-filter outcome counters for the tables sharing this
	// cache: definite negatives (lookups the filter rejected), true
	// positives (filter passed, key present) and false positives
	// (filter passed, key absent). Atomics: a filter probe bumps one
	// without taking mu.
	bloomNeg, bloomTruePos, bloomFalsePos atomic.Int64

	// onCorrupt, if set, is invoked (outside mu) once per CRC
	// failure with the damaged block's file number and offset.
	// guarded by mu.
	onCorrupt func(file, offset uint64)

	// tables recycles the table-sized buffers of the DB's write path
	// (GetBuf), windows the read-ahead windows of its streaming iterators
	// in the boxes they travel in, and scratches the blocks its point reads
	// that miss check and decode in (Table.GetEntry), so that no such path
	// allocates once its pool holds what it needs. Each is a sync.Pool and
	// not a free list so that the collector can empty it: a store that
	// stops writing or reading retains none of them.
	tables, windows, scratches sync.Pool
}

// cacheKey names a block by its offset and a value by the pointer to its
// record; a row's is the table it is bound to and its key's hash.
type cacheKey struct {
	file   uint64
	offset uint64
}

// cacheEntry is a block (block set, and the entry is a blockEntry's), a row
// (klen > 0: value holds the user key, then the entry's value) or a
// separated value (slot is its key's hash), linked into the ring of its
// segment and the chain of its file.
type cacheEntry struct {
	prev, next         *cacheEntry
	filePrev, fileNext *cacheEntry
	key                cacheKey
	block              *block
	value              []byte
	size               int64
	slot               uint64    // a value's
	seq                kv.SeqNum // a row's
	klen               int32
	kind               kv.Kind // a row's
	protected          bool
}

const (
	// maxCachedValue is the largest separated value admitted: of the
	// default 2 MiB budget a 64 KiB value earns its 1/32 (BENCH_ycsb.json,
	// 64 KiB B/C); a 1 MiB one only flushes half the blocks for nothing.
	maxCachedValue = 64 << 10
	// valueOverhead is charged per value or row on top of its buffer:
	// entry and map slot, as measured on the heap.
	valueOverhead = 160
	// Protected holds at most protectedNum/protectedDen of the budget.
	// Measured on the benchmark (seed 1, device clock, ops/s against a
	// single LRU), segments alone, before rows:
	//
	//	share  get_zipf  scan_short  vlog_mixed
	//	9/10   +22.1 %   +16.5 %     -8.0 %
	//	4/5    +19.4 %   +16.9 %     -3.1 %
	//	2/3    +15.9 %   +14.4 %     -0.5 %
	//	1/2    +11.7 %   +10.4 %     +1.0 %
	//
	// Again with rows and with separated values in key slots, against 2/3
	// (3,267.9 ops/s on vlog_mixed):
	//
	//	share  get_zipf  scan_short  vlog_mixed
	//	9/10   +5.0 %    +4.7 %      -3.4 %
	//	4/5    +3.6 %    +3.1 %      -0.9 %
	//	1/2    -5.4 %    -4.1 %      -0.6 %
	//
	// An overwrite replaces its key's value entry, but nothing invalidates
	// the pointer blocks it supersedes, and they linger in protected: the
	// larger the share, the more of the budget a write-heavy store wastes
	// on them. No other share costs no workload anything.
	protectedNum, protectedDen = 2, 3
	// A point read caches an entry as a row if rowBlockShare rows cost at
	// least the block: the block holds only a handful. Rows for every
	// entry regardless of size took vlog_mixed from 2,897 to 2,127 ops/s:
	// a 40-byte pointer costs 200 bytes as a row. A table writer holds the
	// entry it re-homes a row to against a full block (rehome).
	rowBlockShare = 8
)

// NewCache creates a cache bounded to capacity bytes of blocks, values and
// rows. A nil cache is valid and caches nothing.
func NewCache(capacity int64) *Cache {
	return &Cache{
		capacity: capacity,
		seg:      [2]*cacheEntry{newRing(), newRing()},
		items:    make(map[cacheKey]*cacheEntry),
		rows:     make(map[uint64]*cacheEntry),
		values:   make(map[uint64]*cacheEntry),
		files:    make(map[uint64]*cacheEntry),
	}
}

// newRing returns the sentinel of an empty segment.
func newRing() *cacheEntry {
	e := new(cacheEntry)
	e.prev, e.next = e, e
	return e
}

// pushFront makes e the hottest entry of a segment. Caller holds mu.
func (c *Cache) pushFront(e *cacheEntry, protected bool) {
	head := c.seg[0]
	if e.protected = protected; protected {
		head = c.seg[1]
		c.protectedBytes += e.size
	}
	e.prev, e.next = head, head.next
	head.next.prev, head.next = e, e
}

// unring takes e out of its segment. Caller holds mu.
func (c *Cache) unring(e *cacheEntry) {
	if e.protected {
		c.protectedBytes -= e.size
	}
	e.prev.next, e.next.prev = e.next, e.prev
}

// settle restores the two bounds after an entry entered a segment or grew:
// what protected holds over its share becomes, coldest first, the hottest
// of probation, and what the cache holds over its capacity leaves, coldest
// of probation first. Caller holds mu.
func (c *Cache) settle() {
	for limit := c.capacity * protectedNum / protectedDen; c.protectedBytes > limit; {
		cold := c.seg[1].prev
		c.unring(cold)
		c.pushFront(cold, false)
	}
	for c.used > c.capacity {
		c.remove(c.coldest())
	}
}

// touch records a hit on e: it becomes the hottest protected entry. Caller
// holds mu.
func (c *Cache) touch(e *cacheEntry) {
	c.unring(e)
	c.pushFront(e, true)
	c.settle()
}

// coldest returns the entry eviction takes next, nil from an empty cache.
// Caller holds mu.
func (c *Cache) coldest() *cacheEntry {
	for _, head := range c.seg {
		if head.prev != head {
			return head.prev
		}
	}
	return nil
}

// chain links e into the chain of its file. Caller holds mu.
func (c *Cache) chain(e *cacheEntry) {
	if head := c.files[e.key.file]; head != nil {
		e.filePrev, e.fileNext = head, head.fileNext
		if head.fileNext = e; e.fileNext != nil {
			e.fileNext.filePrev = e
		}
	} else {
		e.filePrev, e.fileNext = nil, nil
		c.files[e.key.file] = e
	}
}

// unchain undoes chain. Caller holds mu.
func (c *Cache) unchain(e *cacheEntry) {
	switch {
	case e.filePrev != nil:
		e.filePrev.fileNext = e.fileNext
	case e.fileNext != nil:
		c.files[e.key.file] = e.fileNext
	default:
		delete(c.files, e.key.file)
	}
	if e.fileNext != nil {
		e.fileNext.filePrev = e.filePrev
	}
}

// insert indexes, chains and charges e, whose key, contents and size are
// set, as the hottest entry of a segment, and evicts what no longer fits.
// Caller holds mu.
func (c *Cache) insert(e *cacheEntry, protected bool) {
	switch {
	case e.klen > 0:
		c.rows[e.key.offset] = e
	case e.block == nil:
		c.values[e.slot] = e
	default:
		c.items[e.key] = e
	}
	c.chain(e)
	c.account(e, 1)
	c.pushFront(e, protected)
	c.settle()
}

// remove undoes insert. Caller holds mu.
func (c *Cache) remove(e *cacheEntry) {
	switch {
	case e.klen > 0:
		delete(c.rows, e.key.offset)
	case e.block == nil:
		delete(c.values, e.slot)
	default:
		delete(c.items, e.key)
	}
	c.unchain(e)
	c.account(e, -1)
	c.unring(e)
}

// account adds e to the residency figures (sign 1) or takes it out (-1).
// Caller holds mu.
func (c *Cache) account(e *cacheEntry, sign int) {
	size := int64(sign) * e.size
	c.used += size
	c.entries += sign
	switch {
	case e.klen > 0:
		c.rowEntries.Add(int64(sign))
		c.rowBytes += size
	case e.block == nil:
		c.valueEntries += sign
		c.valueBytes += size
	}
}

// get returns the block at (file, offset) and counts the hit or miss. A
// hit is recorded on the entry only if promote: a point read decides
// between promoting the block and caching a row once it has seen the
// entry (Table.GetEntry).
func (c *Cache) get(file, offset uint64, promote bool) *block {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.items[cacheKey{file, offset}]; e != nil {
		if promote {
			c.touch(e)
		}
		c.hits++
		return e.block
	}
	c.misses++
	return nil
}

// promote records the hit a get without promote left out.
func (c *Cache) promote(file, offset uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.items[cacheKey{file, offset}]; e != nil {
		c.touch(e)
	}
}

// GetValue copies ukey's cached value into dst's storage and reports
// whether there was one from the value-log record at (file, offset), the
// pointer the tree serves: an entry filled from any other record (an older
// version of the key, or another key with its hash) answers nothing.
// Value lookups stay out of the hit and miss counters, which describe
// blocks.
func (c *Cache) GetValue(dst, ukey []byte, file, offset uint64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	h := rowHash(ukey)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.values[h]
	if e == nil || e.key != (cacheKey{file, offset}) {
		return nil, false
	}
	c.touch(e)
	return append(dst[:0], e.value...), true
}

// PutValue caches a copy of value as ukey's, from the value-log record at
// (file, offset): just written, or read after GetValue missed. The key's
// hash has one slot, and the entry in it moves forward in the log only.
// One from an older record takes the new pointer and bytes where it lies —
// a re-home, not a touch — so an overwrite replaces the value it
// supersedes instead of stranding it; one from the same or a newer record
// stays, since a read that looked at the tree before a commit may fill
// after the commit wrote through. A key with no entry enters probation;
// a value too large to admit takes an older entry out.
func (c *Cache) PutValue(ukey []byte, file, offset uint64, value []byte) {
	if c == nil {
		return
	}
	h := rowHash(ukey)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.values[h]
	switch {
	case e != nil && (e.key.file > file || e.key.file == file && e.key.offset >= offset):
		// From the same or a newer record: it stays.
	case len(value) > maxCachedValue || int64(len(value))+valueOverhead > c.capacity:
		if e != nil {
			c.remove(e)
		}
	case e != nil:
		e.key.offset = offset
		c.rebind(e, file, value)
		c.settle()
	default:
		e = c.entryFor(len(value))
		e.key, e.slot, e.value = cacheKey{file, offset}, h, append(e.value, value...)
		c.insert(e, false)
	}
}

// entryFor returns an unlinked entry with an empty buffer of n bytes, its
// size set. A full cache gives up its coldest entry for it, and the new
// one takes over that entry, unless a block's (part of a blockEntry), and
// its buffer, if it fits: a steady stream of like-sized values or rows
// allocates nothing. Caller holds mu.
func (c *Cache) entryFor(n int) *cacheEntry {
	e := c.coldest()
	if e == nil || c.used+int64(n)+valueOverhead <= c.capacity {
		e = new(cacheEntry)
	} else if c.remove(e); e.block != nil {
		e = new(cacheEntry)
	}
	if !roomFor(e.value, n) {
		e.value = make([]byte, 0, n)
	}
	*e = cacheEntry{value: e.value[:0], size: int64(cap(e.value)) + valueOverhead}
	return e
}

// roomFor reports whether buf can be reused for n bytes: one more than an
// eighth too large would be charged for nothing.
func roomFor(buf []byte, n int) bool { return cap(buf) >= n && cap(buf) <= n+n/8 }

// rowHash names the row and the value slot of ukey by the key's bloom
// hash. Two keys that collide share a slot, a row's with the first (the
// second is not cached), a value's with the newer record; neither is ever
// served for the other, since a row carries its key and a value answers
// for one pointer.
func rowHash(ukey []byte) uint64 { return uint64(bloomHash(ukey)) }

// getRow returns a copy of the value of the newest entry for ukey in table
// file, with its sequence number and kind, if the key's row is bound to
// that table and visible at seq: the answer the table's blocks would give.
// A row that answers counts as a hit, one that does not counts nothing (the
// block lookup that follows does).
func (c *Cache) getRow(file uint64, ukey []byte, seq kv.SeqNum) ([]byte, kv.SeqNum, kv.Kind, bool) {
	if c == nil || len(ukey) == 0 {
		return nil, 0, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.rows[rowHash(ukey)]
	if e == nil || e.key.file != file || seq < e.seq || !bytes.Equal(e.value[:e.klen], ukey) {
		return nil, 0, 0, false
	}
	c.touch(e)
	c.hits++
	return append([]byte(nil), e.value[e.klen:]...), e.seq, e.kind, true
}

// putRow caches the entry (ukey, seq, kind, value), which the caller knows
// is the newest for ukey in table file, into protected if the read that
// forms the row found its block cached, else into probation: a row, like a
// block, reaches protected on its key's second read. It reports whether
// the row went in. The key's row, if it has one already, gives way only if
// it is bound to another table and no newer: it speaks for a version this
// one shadows, or for a table that was never installed.
func (c *Cache) putRow(file uint64, ukey, value []byte, seq kv.SeqNum, kind kv.Kind, protected bool) bool {
	n := len(ukey) + len(value)
	if len(ukey) == 0 || n > maxCachedValue || int64(n)+valueOverhead > c.capacity {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h := rowHash(ukey)
	if old := c.rows[h]; old != nil {
		if old.key.file == file || old.seq > seq || !bytes.Equal(old.value[:old.klen], ukey) {
			return false
		}
		c.remove(old)
	}
	e := c.entryFor(n)
	e.key, e.seq, e.kind, e.klen = cacheKey{file, h}, seq, kind, int32(len(ukey))
	e.value = append(append(e.value, ukey...), value...)
	c.insert(e, protected)
	return true
}

// hasRows reports whether any row is cached, without taking mu: a table
// writer asks once per table whether its entries have rows to take along.
func (c *Cache) hasRows() bool { return c != nil && c.rowEntries.Load() > 0 }

// rehome binds the row of ik's user key, whose bloom hash is hash, to table
// file with the entry (ik, value), which the caller is writing as the newest
// of that key in file. Only a row that exists, is bound to another table and
// is no newer moves: a write never creates a row, and an older version
// rewritten beside a newer one (an overlapped level) does not take the
// newer one's row. A re-home is not a touch — the row keeps its segment and
// its place in it, so a key that is written and not read ages out — and an
// entry no read would have made a row (a tombstone, a value small next to a
// block or over maxCachedValue) drops the row instead. It reports whether
// the row moved.
func (c *Cache) rehome(file uint64, hash uint32, ik kv.InternalKey, value []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ukey := c.rows[uint64(hash)], ik.UserKey()
	if e == nil || e.key.file == file || e.seq > ik.Seq() || !bytes.Equal(e.value[:e.klen], ukey) {
		return false
	}
	n := len(ukey) + len(value)
	if ik.Kind() == kv.KindDelete || n > maxCachedValue || (int64(n)+valueOverhead)*rowBlockShare < TargetBlockSize {
		c.remove(e)
		return false
	}
	c.rebind(e, file, value)
	e.seq, e.kind = ik.Seq(), ik.Kind()
	c.rehomed++
	c.settle()
	return true
}

// rebind binds e, a row or a value, to file with value after the key a row
// keeps, where e lies in its segment, and charges what its buffer grew by.
// Caller holds mu and settles after.
func (c *Cache) rebind(e *cacheEntry, file uint64, value []byte) {
	c.unchain(e)
	if n := int(e.klen) + len(value); !roomFor(e.value, n) {
		e.value = append(make([]byte, 0, n), e.value[:e.klen]...)
	}
	e.value = append(e.value[:e.klen], value...)
	grown := int64(cap(e.value)) + valueOverhead - e.size
	e.size += grown
	c.used += grown
	if e.klen > 0 {
		c.rowBytes += grown
	} else {
		c.valueBytes += grown
	}
	if e.protected {
		c.protectedBytes += grown
	}
	e.key.file = file
	c.chain(e)
}

// blockEntry is a block's entry and the block in one allocation.
type blockEntry struct {
	cacheEntry
	blk block
}

// charge is what a cached block costs the budget.
func (b *block) charge() int64 { return int64(len(b.data)) + int64(len(b.restarts)) + 64 }

// admit caches a copy of b, decoded in a buffer that will be reused (a
// streaming iterator's window, a point read's scratch), the restarts in the
// slack of the entries' size class if they fit, and returns it — unless
// evict, only if that evicts nothing: a store that fits the cache still ends
// up resident, a scan over a bigger one leaves the hot blocks where they are.
func (c *Cache) admit(file, offset uint64, b *block, evict bool) *block {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items[cacheKey{file, offset}] != nil || !evict && c.used+b.charge() > c.capacity {
		return nil
	}
	data := append([]byte(nil), b.data...) // its capacity rounded up to a size class
	e := &blockEntry{blk: block{data: data, restarts: append(data[len(data):], b.restarts...)}}
	e.key, e.block, e.size = cacheKey{file, offset}, &e.blk, e.blk.charge()
	c.insert(&e.cacheEntry, false)
	return &e.blk
}

// EvictFile drops every cached block, value or row of the given file
// (called when a table or value-log segment is deleted), at the cost of
// what the file has cached.
func (c *Cache) EvictFile(file uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.files[file]
	if head == nil {
		return
	}
	for head.fileNext != nil {
		c.remove(head.fileNext)
	}
	c.remove(head)
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

// noteCorrupt notifies the observer of one CRC-failed block read.
// Nil-safe (compaction readers run without a cache).
func (c *Cache) noteCorrupt(file, offset uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	fn := c.onCorrupt
	c.mu.Unlock()
	if fn != nil {
		fn(file, offset)
	}
}

// CacheStats is a point-in-time copy of the cache and bloom counters.
type CacheStats struct {
	// Hits counts lookups a cached block or row answered, Misses blocks
	// the cache was asked for and did not have.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// UsedBytes and Entries describe the current residency of both
	// segments, blocks, rows and values together; ValueBytes and
	// ValueEntries the separated values' share, RowBytes and RowEntries
	// the rows'. RowsRehomed counts rows a table writer bound to its table.
	UsedBytes    int64 `json:"used_bytes"`
	Entries      int   `json:"entries"`
	ValueBytes   int64 `json:"value_bytes"`
	ValueEntries int   `json:"value_entries"`
	RowBytes     int64 `json:"row_bytes"`
	RowEntries   int   `json:"row_entries"`
	RowsRehomed  int64 `json:"rows_rehomed"`
	// Bloom-filter effectiveness across the cache's tables.
	BloomNegatives      int64 `json:"bloom_negatives"`
	BloomTruePositives  int64 `json:"bloom_true_positives"`
	BloomFalsePositives int64 `json:"bloom_false_positives"`
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
		UsedBytes: c.used, Entries: c.entries,
		ValueBytes: c.valueBytes, ValueEntries: c.valueEntries,
		RowBytes: c.rowBytes, RowEntries: int(c.rowEntries.Load()), RowsRehomed: c.rehomed,
		BloomNegatives:      c.bloomNeg.Load(),
		BloomTruePositives:  c.bloomTruePos.Load(),
		BloomFalsePositives: c.bloomFalsePos.Load(),
	}
}
