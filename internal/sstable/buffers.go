package sstable

import (
	"sync"

	"sealdb/internal/invariant"
)

// tableBufs recycles the table-sized buffers of the write path: the
// one a Builder builds a table into and the ones a compaction or a set
// relocation reads whole tables into. It is a sync.Pool and not a free
// list so that the collector can empty it: a store that stops writing
// retains none of them.
var tableBufs sync.Pool

// poison is what a released buffer is filled with under the
// sealdb_invariants tag: whoever still reads a table through it fails
// a block checksum instead of being served the next table's bytes.
const poison = 0xdb

// GetBuf returns an empty buffer with room for n bytes, recycled if
// the pool has one that large. Its spare capacity holds old bytes, not
// zeros. Hand it back with PutBuf.
func GetBuf(n int) []byte {
	if p, _ := tableBufs.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]byte, 0, n)
}

// PutBuf releases buf for reuse. The caller has dropped every
// reference into it: tables opened over it, iterators, pending writes.
func PutBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	if invariant.Enabled {
		// No table begins with the poison: a first entry shares no prefix.
		invariant.Assert(len(buf) == 0 || buf[0] != poison, "sstable: table buffer released twice")
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = poison
		}
	}
	tableBufs.Put(&buf)
}
