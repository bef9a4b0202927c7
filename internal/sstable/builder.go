package sstable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sealdb/internal/kv"
)

const (
	// TargetBlockSize is the data-block cut threshold.
	TargetBlockSize = 4096
	// blockTrailerLen is the type byte, always rawBlock, plus a CRC-32C
	// of the block contents and type.
	blockTrailerLen = 5
	// rawBlock is the one block type: the contents stored as built.
	rawBlock = 0
	// footerLen holds four fixed 8-byte handle fields plus the magic.
	footerLen  = 40
	tableMagic = 0x5ea1db0000000001
)

// Meta describes a finished table.
type Meta struct {
	Smallest kv.InternalKey
	Largest  kv.InternalKey
	Entries  int
	Size     int64
	Rows     int // cached rows the table took along (Builder.Carry)
}

// Builder accumulates sorted entries and produces the table bytes.
// Keys must be added in strictly increasing internal-key order.
type Builder struct {
	buf           []byte       // the table: finished blocks, then the data block being built
	data          blockBuilder // the data block at the tail of buf
	index         blockBuilder
	ixBuf         []byte   // the index block, copied into buf once, at Finish
	hashes        []uint32 // bloomHash of each user key, for the table filter
	bitsPerKey    int      // the filter's width
	rows          *Cache   // nil unless the keys added have rows to take along (Carry)
	fileNum       uint64   // the table's number in rows
	meta          Meta
	lastKey       kv.InternalKey
	pendingIx     bool   // an index entry is owed for the last finished block
	pendingKey    []byte // last key of that block
	sep           []byte // the separator built from it, reused block after block
	pendingHandle blockHandle
	err           error
}

type blockHandle struct {
	offset, length uint64
}

func encodeHandle(dst []byte, h blockHandle) []byte {
	dst = binary.AppendUvarint(dst, h.offset)
	return binary.AppendUvarint(dst, h.length)
}

func decodeHandle(p []byte) (blockHandle, int, error) {
	off, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		return blockHandle{}, 0, fmt.Errorf("sstable: bad handle offset")
	}
	length, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		return blockHandle{}, 0, fmt.Errorf("sstable: bad handle length")
	}
	return blockHandle{off, length}, n1 + n2, nil
}

// NewBuilder returns an empty table builder with LevelDB's filter of 10
// bits per key (~1 % false positives). Its table buffer starts empty and
// grows; see Reset.
func NewBuilder() *Builder {
	return &Builder{bitsPerKey: 10}
}

// Reset empties b for another table with a filter of bitsPerKey bits per
// key, to be built in buf[:0]: on the engine's write path a Cache.GetBuf
// buffer with room for the whole table, so that no byte of it moves again
// before the device write. b keeps its scratch. Finish returns the table
// in buf (in a larger successor, had the table outgrown it), and b is done
// with it: the caller owns the bytes, to PutBuf once they are written.
func (b *Builder) Reset(buf []byte, bitsPerKey int) *Builder {
	b.buf, b.bitsPerKey = buf[:0], bitsPerKey
	b.data.reset(0)
	b.index.reset(0)
	b.ixBuf = b.ixBuf[:0]
	b.hashes = b.hashes[:0]
	b.rows = nil
	b.meta = Meta{}
	b.lastKey = b.lastKey[:0]
	b.pendingIx = false
	b.err = nil
	return b
}

// Carry declares that the table being built will be file fileNum of the
// store reading through c: from here on a key that has a row in c takes it
// along, bound to this table with the entry added (Cache.rehome), so what
// the store held in memory of a key survives the rewrite of the table it
// read it from. While c holds no rows this costs the one check made here.
func (b *Builder) Carry(c *Cache, fileNum uint64) *Builder {
	if c.hasRows() {
		b.rows, b.fileNum = c, fileNum
	}
	return b
}

// Add appends an entry. Keys must arrive in strictly increasing
// order; violations put the builder in an error state.
func (b *Builder) Add(ik kv.InternalKey, value []byte) {
	if b.err != nil {
		return
	}
	if b.meta.Entries > 0 && kv.CompareInternal(ik, b.lastKey) <= 0 {
		b.err = fmt.Errorf("sstable: keys out of order: %s after %s", ik, b.lastKey)
		return
	}
	if b.meta.Entries == 0 {
		b.meta.Smallest = ik.Clone()
	}
	// Of a key's versions the newest comes first, and only it may take
	// the row: a read that fills the row after the newest was added, from
	// a table this one replaces, must not hand it to an older version.
	newest := b.meta.Entries == 0 || kv.CompareUser(ik.UserKey(), b.lastKey.UserKey()) != 0
	b.flushPendingIndex(ik)
	b.grow(3*binary.MaxVarintLen64 + len(ik) + len(value))
	b.buf = b.data.add(b.buf, ik, value)
	b.lastKey = append(b.lastKey[:0], ik...)
	h := bloomHash(ik.UserKey())
	b.hashes = append(b.hashes, h)
	if b.rows != nil && newest && b.rows.rehome(b.fileNum, h, ik, value) {
		b.meta.Rows++
	}
	b.meta.Entries++
	if b.data.estimatedSize(b.buf) >= TargetBlockSize {
		b.cutBlock()
	}
}

// flushPendingIndex emits the index entry for the previous block once
// the first key of the next block is known, shortening the separator
// on the user-key portion as LevelDB does.
func (b *Builder) flushPendingIndex(next kv.InternalKey) {
	if !b.pendingIx {
		return
	}
	b.sep = separator(b.sep, b.pendingKey, next)
	var hbuf [2 * binary.MaxVarintLen64]byte
	b.ixBuf = b.index.add(b.ixBuf, b.sep, encodeHandle(hbuf[:0], b.pendingHandle))
	b.pendingIx = false
}

// separator returns an internal key k with prev <= k < next that is
// as short as possible on the user-key portion, built in dst's storage.
func separator(dst []byte, prev kv.InternalKey, next kv.InternalKey) kv.InternalKey {
	a, bkey := prev.UserKey(), next.UserKey()
	n := min(len(a), len(bkey))
	i := 0
	for i < n && a[i] == bkey[i] {
		i++
	}
	if i < n && a[i] < 0xff && a[i]+1 < bkey[i] {
		// a[:i+1] with its last byte incremented separates: the max seq,
		// which no entry carries, sorts it before every entry for that
		// user key, so its kind decides nothing and KindSet will do.
		k := kv.MakeInternalKey(dst, a[:i+1], kv.MaxSeqNum, kv.KindSet)
		k[i]++
		return k
	}
	return append(dst[:0], prev...)
}

// cutBlock finishes the data block at the tail of b.buf where it lies,
// records its handle and starts the next block behind it.
func (b *Builder) cutBlock() {
	if b.data.empty() {
		return
	}
	b.grow(4*len(b.data.restarts) + 4 + blockTrailerLen)
	b.buf = b.data.finish(b.buf)
	h := b.sealBlock(b.data.start)
	b.data.reset(len(b.buf))
	b.pendingIx = true
	b.pendingKey = append(b.pendingKey[:0], b.lastKey...)
	b.pendingHandle = h
}

// grow makes room for n more bytes in b.buf. A buffer that was not sized
// for the table doubles: append's steps of a quarter would copy a 256 KiB
// table four times over.
func (b *Builder) grow(n int) {
	if need := len(b.buf) + n; need > cap(b.buf) {
		b.buf = append(make([]byte, 0, max(need, 2*cap(b.buf))), b.buf...)
	}
}

// sealBlock makes b.buf[start:] a raw block: it appends the type byte and
// the CRC of contents and type, one pass over both as checkRaw reads them
// back.
func (b *Builder) sealBlock(start int) blockHandle {
	h := blockHandle{offset: uint64(start), length: uint64(len(b.buf) - start)}
	b.buf = append(b.buf, rawBlock)
	b.buf = binary.LittleEndian.AppendUint32(b.buf, crc32.Checksum(b.buf[start:], castagnoliTable))
	return h
}

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// EstimatedSize returns the table size if Finish were called now.
func (b *Builder) EstimatedSize() int64 {
	return int64(b.data.start) + int64(b.data.estimatedSize(b.buf)) + int64(b.index.estimatedSize(b.ixBuf)) + footerLen
}

// Finish completes the table and returns its bytes and metadata. The
// builder cannot be used again before Reset.
func (b *Builder) Finish() ([]byte, Meta, error) {
	if b.err != nil {
		return nil, Meta{}, b.err
	}
	if b.meta.Entries == 0 {
		return nil, Meta{}, fmt.Errorf("sstable: finishing an empty table")
	}
	b.cutBlock()
	// Final index entry: any key >= lastKey works as its own
	// separator at end of table.
	if b.pendingIx {
		var hbuf [2 * binary.MaxVarintLen64]byte
		b.ixBuf = b.index.add(b.ixBuf, b.pendingKey, encodeHandle(hbuf[:0], b.pendingHandle))
		b.pendingIx = false
	}

	// The filter is built where it lies; the index is copied in once.
	start := len(b.buf)
	b.buf = appendBloom(b.buf, b.hashes, b.bitsPerKey)
	bloomHandle := b.sealBlock(start)
	b.ixBuf = b.index.finish(b.ixBuf)
	b.grow(len(b.ixBuf) + blockTrailerLen + footerLen)
	start = len(b.buf)
	b.buf = append(b.buf, b.ixBuf...)
	indexHandle := b.sealBlock(start)

	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], indexHandle.offset)
	binary.LittleEndian.PutUint64(footer[8:], indexHandle.length)
	binary.LittleEndian.PutUint64(footer[16:], bloomHandle.offset)
	binary.LittleEndian.PutUint64(footer[24:], bloomHandle.length)
	binary.LittleEndian.PutUint64(footer[32:], tableMagic)
	b.buf = append(b.buf, footer[:]...)

	b.meta.Largest = b.lastKey.Clone()
	b.meta.Size = int64(len(b.buf))
	data := b.buf
	b.buf = nil // the caller's now, to release: keep no way back into it
	return data, b.meta, nil
}
