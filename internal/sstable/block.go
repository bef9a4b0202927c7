// Package sstable implements the on-disk table format of the store,
// closely following LevelDB: prefix-compressed data blocks with
// restart points and per-block CRCs, an index block of separators, a
// whole-table bloom filter, and a fixed footer. Tables are built in
// memory and written to the device as one sequential extent by the
// storage backend.
package sstable

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sealdb/internal/kv"
)

// restartInterval is the number of entries between restart points.
const restartInterval = 16

// blockBuilder encodes a sequence of key/value entries with shared
// key-prefix compression at the tail of a buffer it is handed, the block
// starting at offset start: a data block is built in the table buffer,
// where it stays, and the index block in a buffer of its own.
type blockBuilder struct {
	start    int
	restarts []uint32 // offsets from start
	counter  int
	lastKey  []byte
	entries  int
}

// reset starts an empty block at offset start.
func (b *blockBuilder) reset(start int) {
	b.start = start
	b.restarts = b.restarts[:0]
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries = 0
}

// add appends the entry to dst, which holds the block from b.start on,
// and returns the extended dst.
func (b *blockBuilder) add(dst, key, value []byte) []byte {
	shared := 0
	if b.counter < restartInterval {
		n := min(len(b.lastKey), len(key))
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(dst)-b.start))
		b.counter = 0
	}
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(shared))
	dst = binary.AppendUvarint(dst, uint64(len(key)-shared))
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, key[shared:]...)
	dst = append(dst, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
	return dst
}

func (b *blockBuilder) empty() bool { return b.entries == 0 }

// estimatedSize returns the finished size of the block so far, built in
// dst.
func (b *blockBuilder) estimatedSize(dst []byte) int {
	return len(dst) - b.start + 4*len(b.restarts) + 4
}

// finish appends the restart array and count to dst, making dst[b.start:]
// the block contents.
func (b *blockBuilder) finish(dst []byte) []byte {
	if len(b.restarts) == 0 {
		b.restarts = append(b.restarts, 0)
	}
	for _, r := range b.restarts {
		dst = binary.LittleEndian.AppendUint32(dst, r)
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(len(b.restarts)))
}

// block is a decoded (raw) block ready for iteration.
type block struct {
	data     []byte // entries only
	restarts []byte // the restart array as stored: a little-endian uint32 offset each
}

func decodeBlock(data []byte) (*block, error) {
	b := new(block)
	if err := b.decode(data); err != nil {
		return nil, err
	}
	return b, nil
}

// decode points b at the entries and the restart array of data, which it
// borrows, checking that every restart lies within the entries.
func (b *block) decode(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("sstable: block too short (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data[len(data)-4:])
	restartsEnd := len(data) - 4
	restartsStart := restartsEnd - int(n)*4
	if n == 0 || restartsStart < 0 {
		return fmt.Errorf("sstable: bad restart count %d for %d-byte block", n, len(data))
	}
	restarts := data[restartsStart:restartsEnd]
	for i := 0; i < len(restarts); i += 4 {
		if r := binary.LittleEndian.Uint32(restarts[i:]); r > uint32(restartsStart) {
			return fmt.Errorf("sstable: restart %d out of range", r)
		}
	}
	*b = block{data: data[:restartsStart], restarts: restarts}
	return nil
}

// restart is the offset of restart point i in b.data.
func (b *block) restart(i int) int { return int(binary.LittleEndian.Uint32(b.restarts[4*i:])) }

// blockIter iterates a decoded block. It implements kv.Iterator.
type blockIter struct {
	b      *block
	offset int // offset of the current entry in b.data
	next   int // offset just past the current entry
	key    []byte
	value  []byte
	valid  bool
	// bad is the check the entry at badAt failed, 0 if none did. The
	// iterator keeps no error value: nothing read out of it may point
	// into memory, or a caller's stack buffer for key would move to the
	// heap (escape analysis tells no field of a struct from another).
	bad   entryCheck
	badAt int
}

// entryCheck names a check an entry of a block can fail.
type entryCheck uint8

const (
	badShared entryCheck = iota + 1
	badUnshared
	badValueLen
	overrun
)

var entryChecks = [...]string{
	badShared:   "bad shared varint",
	badUnshared: "bad unshared varint",
	badValueLen: "bad value-length varint",
	overrun:     "entry overruns block",
}

func (it *blockIter) Valid() bool { return it.valid && it.bad == 0 }

// Error returns a new error for the entry that failed to parse, if one
// did.
func (it *blockIter) Error() error {
	if it.bad == 0 {
		return nil
	}
	return fmt.Errorf("sstable: corrupt block entry at %d: %s", it.badAt, entryChecks[it.bad])
}

func (it *blockIter) Key() kv.InternalKey { return it.key }
func (it *blockIter) Value() []byte       { return it.value }

func (it *blockIter) SeekToFirst() {
	it.next = 0
	it.key = it.key[:0]
	it.parseNext()
}

func (it *blockIter) Next() {
	it.parseNext()
}

// parseNext decodes the entry at it.next.
func (it *blockIter) parseNext() {
	if it.bad != 0 {
		it.valid = false
		return
	}
	if it.next >= len(it.b.data) {
		it.valid = false
		return
	}
	it.offset = it.next
	p := it.b.data[it.next:]
	shared, n1 := binary.Uvarint(p)
	if n1 <= 0 {
		it.corrupt(badShared)
		return
	}
	unshared, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		it.corrupt(badUnshared)
		return
	}
	vlen, n3 := binary.Uvarint(p[n1+n2:])
	if n3 <= 0 {
		it.corrupt(badValueLen)
		return
	}
	h := n1 + n2 + n3
	if int(shared) > len(it.key) || h+int(unshared)+int(vlen) > len(p) {
		it.corrupt(overrun)
		return
	}
	if n := int(shared + unshared); cap(it.key) >= n {
		// Resliced and copied into, not appended to: storing it.key's own
		// storage back into it would move a caller's key buffer to the heap.
		it.key = it.key[:n]
	} else {
		key := make([]byte, n, 2*n)
		copy(key, it.key[:shared])
		it.key = key
	}
	copy(it.key[shared:], p[h:h+int(unshared)])
	it.value = p[h+int(unshared) : h+int(unshared)+int(vlen)]
	it.next += h + int(unshared) + int(vlen)
	it.valid = true
}

func (it *blockIter) corrupt(check entryCheck) {
	it.bad, it.badAt = check, it.next
	it.valid = false
}

// seekToRestart positions parsing at restart point i.
func (it *blockIter) seekToRestart(i int) {
	it.next = it.b.restart(i)
	it.key = it.key[:0]
	it.parseNext()
}

// SeekToLast positions at the final entry of the block.
func (it *blockIter) SeekToLast() {
	if len(it.b.restarts) == 0 {
		it.valid = false
		return
	}
	it.seekToRestart(len(it.b.restarts)/4 - 1)
	for it.Valid() && it.next < len(it.b.data) {
		it.parseNext()
	}
}

// Prev steps to the entry before the current one by re-parsing from
// the governing restart point, LevelDB's approach: prefix compression
// makes blocks forward-only, so backward movement replays a short
// run.
func (it *blockIter) Prev() {
	if !it.Valid() {
		return
	}
	target := it.offset
	if target == 0 {
		it.valid = false
		return
	}
	// Find the last restart strictly before the current entry.
	ri := sort.Search(len(it.b.restarts)/4, func(i int) bool {
		return it.b.restart(i) >= target
	})
	if ri > 0 {
		ri--
	}
	it.seekToRestart(ri)
	for it.Valid() && it.next < target {
		it.parseNext()
	}
	if it.offset >= target {
		// The restart itself was the current entry's offset and
		// nothing precedes it (corrupt restarts otherwise).
		it.valid = false
	}
}

// Seek positions at the first entry with key >= target.
func (it *blockIter) Seek(target kv.InternalKey) {
	// Binary search the restart points for the last restart whose
	// key is < target.
	i := sort.Search(len(it.b.restarts)/4, func(i int) bool {
		k, ok := it.restartKey(i)
		if !ok {
			return true // treat corruption as >= to stop early
		}
		return kv.CompareInternal(k, target) >= 0
	})
	if i > 0 {
		i--
	}
	it.seekToRestart(i)
	for it.Valid() && kv.CompareInternal(it.key, target) < 0 {
		it.parseNext()
	}
}

// restartKey decodes the full key stored at restart point i (shared
// prefix is always zero at a restart).
func (it *blockIter) restartKey(i int) (kv.InternalKey, bool) {
	p := it.b.data[it.b.restart(i):]
	shared, n1 := binary.Uvarint(p)
	if n1 <= 0 || shared != 0 {
		return nil, false
	}
	unshared, n2 := binary.Uvarint(p[n1:])
	if n2 <= 0 {
		return nil, false
	}
	_, n3 := binary.Uvarint(p[n1+n2:])
	if n3 <= 0 {
		return nil, false
	}
	h := n1 + n2 + n3
	if h+int(unshared) > len(p) {
		return nil, false
	}
	return kv.InternalKey(p[h : h+int(unshared)]), true
}

var _ kv.Iterator = (*blockIter)(nil)
