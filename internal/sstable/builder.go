package sstable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sealdb/internal/kv"
)

const (
	// TargetBlockSize is the uncompressed data-block cut threshold.
	TargetBlockSize = 4096
	// blockTrailerLen is 1 type byte (always 0: no compression) plus
	// a CRC-32C of the block contents.
	blockTrailerLen = 5
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
	compression   Compression
	buf           []byte
	data          blockBuilder
	index         blockBuilder
	hashes        []uint32 // bloomHash of each user key, for the table filter
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

// NewBuilder returns an empty table builder storing blocks raw. Its
// table buffer starts empty and grows; see Reset.
func NewBuilder() *Builder {
	return &Builder{}
}

// Reset empties b for another table, to be built in buf[:0]: on the
// engine's write path a GetBuf buffer with room for the whole table, so
// that no byte of it moves again before the device write. b keeps its
// compression setting and its scratch. Finish returns the table in buf
// (in a larger successor, had the table outgrown it), and b is done
// with it: the caller owns the bytes, to PutBuf once they are written.
func (b *Builder) Reset(buf []byte) *Builder {
	b.buf = buf[:0]
	b.data.reset()
	b.index.reset()
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

// SetCompression selects the block encoding for subsequently cut
// blocks (call before the first Add for uniform tables).
func (b *Builder) SetCompression(c Compression) *Builder {
	b.compression = c
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
	b.flushPendingIndex(ik)
	b.data.add(ik, value)
	b.lastKey = append(b.lastKey[:0], ik...)
	h := bloomHash(ik.UserKey())
	b.hashes = append(b.hashes, h)
	if b.rows != nil {
		// Of a key's versions the newest comes first and takes the row;
		// it is then bound to this table and the older ones leave it be.
		if b.rows.rehome(b.fileNum, h, ik, value) {
			b.meta.Rows++
		}
	}
	b.meta.Entries++
	if b.data.estimatedSize() >= TargetBlockSize {
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
	b.index.add(b.sep, encodeHandle(hbuf[:0], b.pendingHandle))
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
		// a[:i+1] with its last byte incremented separates: give it
		// the max trailer so it sorts before every real entry for
		// that user key.
		k := kv.MakeSearchKey(dst, a[:i+1], kv.MaxSeqNum)
		k[i]++
		return k
	}
	return append(dst[:0], prev...)
}

// cutBlock finishes the current data block and records its handle.
func (b *Builder) cutBlock() {
	if b.data.empty() {
		return
	}
	contents := b.data.finish()
	h := b.appendBlock(contents, b.compression)
	b.data.reset()
	b.pendingIx = true
	b.pendingKey = append(b.pendingKey[:0], b.lastKey...)
	b.pendingHandle = h
}

// appendBlock encodes contents per policy and writes it with its
// type/CRC trailer.
func (b *Builder) appendBlock(contents []byte, policy Compression) blockHandle {
	payload, typ := compressBlock(policy, contents)
	start := len(b.buf)
	if need := start + len(payload) + blockTrailerLen; need > cap(b.buf) {
		// A buffer that was not sized for the table doubles: append's
		// steps of a quarter would copy a 256 KiB table four times over.
		b.buf = append(make([]byte, 0, max(need, 2*cap(b.buf))), b.buf...)
	}
	b.buf = append(b.buf, payload...)
	return b.sealBlock(start, typ)
}

// sealBlock makes b.buf[start:] a block of the given type: it appends
// the type byte and the CRC of payload and type, one pass over both as
// checkRaw reads them back.
func (b *Builder) sealBlock(start int, typ byte) blockHandle {
	h := blockHandle{offset: uint64(start), length: uint64(len(b.buf) - start)}
	b.buf = append(b.buf, typ)
	b.buf = binary.LittleEndian.AppendUint32(b.buf, crc32.Checksum(b.buf[start:], castagnoliTable))
	return h
}

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// EstimatedSize returns the table size if Finish were called now.
func (b *Builder) EstimatedSize() int64 {
	return int64(len(b.buf)) + int64(b.data.estimatedSize()) + int64(b.index.estimatedSize()) + footerLen
}

// Entries returns the number of entries added so far.
func (b *Builder) Entries() int { return b.meta.Entries }

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
		b.index.add(b.pendingKey, encodeHandle(hbuf[:0], b.pendingHandle))
		b.pendingIx = false
	}

	// The filter is built where it lies; neither block is compressed.
	start := len(b.buf)
	b.buf = appendBloom(b.buf, b.hashes)
	bloomHandle := b.sealBlock(start, byte(NoCompression))
	indexHandle := b.appendBlock(b.index.finish(), NoCompression)

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
