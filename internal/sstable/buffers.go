package sstable

import (
	"math/bits"

	"sealdb/internal/invariant"
)

// blockScratch is a block as read, trailer and all, and the block decoded
// over it.
type blockScratch struct {
	buf []byte
	blk block
}

// getScratch returns a scratch from c's pool, or a new one for a table
// with no cache.
func (c *Cache) getScratch() *blockScratch {
	if c != nil {
		if s, _ := c.scratches.Get().(*blockScratch); s != nil {
			return s
		}
	}
	return new(blockScratch)
}

// putScratch hands s back to c's pool, its bytes poisoned first under the
// sealdb_invariants tag: nothing decoded in it may be used after.
func (c *Cache) putScratch(s *blockScratch) {
	poisonBuf(s.buf)
	if c != nil {
		c.scratches.Put(s)
	}
}

// poison is what a released buffer is filled with under the
// sealdb_invariants tag: whoever still reads a table through it fails
// a block checksum instead of being served the next table's bytes.
const poison = 0xdb

// GetBuf returns an empty table-sized buffer with room for n bytes: the
// one a Builder builds a table into, or one a compaction or fsck reads
// whole tables into. It is recycled if the cache's pool
// has one that large, so its spare capacity holds old bytes, not zeros.
// Hand it back with PutBuf.
func (c *Cache) GetBuf(n int) []byte {
	if p, _ := c.tables.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]byte, 0, n)
}

// PutBuf releases buf for reuse. The caller has dropped every
// reference into it: tables opened over it, iterators, pending writes.
func (c *Cache) PutBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	if invariant.Enabled {
		// No table begins with the poison: a first entry shares no prefix.
		invariant.Assert(len(buf) == 0 || buf[0] != poison, "sstable: table buffer released twice")
	}
	poisonBuf(buf)
	c.tables.Put(&buf)
}

// getWindow returns a box whose buffer has room for n bytes: a recycled
// one if c's pool's next is that large, else a new one rounded up to a
// power of two, so that the windows in use grow to the largest a scan
// asks for instead of being replaced back and forth.
func (c *Cache) getWindow(n int) *[]byte {
	if c != nil {
		if p, _ := c.windows.Get().(*[]byte); p != nil && cap(*p) >= n {
			return p
		}
	}
	buf := make([]byte, 0, 1<<bits.Len(uint(n-1)))
	return &buf
}

// poisonBuf fills buf to its capacity with the poison under the
// sealdb_invariants tag.
func poisonBuf(buf []byte) {
	if invariant.Enabled {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = poison
		}
	}
}
