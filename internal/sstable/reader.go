package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"sealdb/internal/kv"
	"sealdb/internal/obs"
)

// ErrCorruptBlock is the sentinel matched by errors.Is for any block
// whose stored CRC did not match its contents — on-media corruption,
// as opposed to structural decode failures (a builder or handle bug).
var ErrCorruptBlock = errors.New("sstable: corrupt block (checksum mismatch)")

// CorruptBlockError pinpoints a CRC failure: which table file and at
// which byte offset within it the damaged block starts. It matches
// ErrCorruptBlock under errors.Is.
type CorruptBlockError struct {
	FileNum uint64
	Offset  uint64
}

func (e *CorruptBlockError) Error() string {
	return fmt.Sprintf("sstable: block checksum mismatch in file %d at %d", e.FileNum, e.Offset)
}

// Is reports whether target is the corruption sentinel.
func (e *CorruptBlockError) Is(target error) bool { return target == ErrCorruptBlock }

// Table reads a finished SSTable through an io.ReaderAt.
type Table struct {
	r       io.ReaderAt
	size    int64
	fileNum uint64
	cache   *Cache

	index *block
	bloom []byte
}

// Open validates the footer and loads the index and bloom blocks.
func Open(r io.ReaderAt, size int64, fileNum uint64, cache *Cache) (*Table, error) {
	if size < footerLen {
		return nil, fmt.Errorf("sstable: file %d too small (%d bytes)", fileNum, size)
	}
	var footer [footerLen]byte
	if _, err := r.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, fmt.Errorf("sstable: reading footer of file %d: %w", fileNum, err)
	}
	if magic := binary.LittleEndian.Uint64(footer[32:]); magic != tableMagic {
		return nil, fmt.Errorf("sstable: bad magic %#x in file %d", magic, fileNum)
	}
	t := &Table{r: r, size: size, fileNum: fileNum, cache: cache}
	indexHandle := blockHandle{
		offset: binary.LittleEndian.Uint64(footer[0:]),
		length: binary.LittleEndian.Uint64(footer[8:]),
	}
	bloomHandle := blockHandle{
		offset: binary.LittleEndian.Uint64(footer[16:]),
		length: binary.LittleEndian.Uint64(footer[24:]),
	}
	var err error
	if t.bloom, err = t.readRawFrom(t.r, bloomHandle); err != nil {
		return nil, err
	}
	// t.index pins the index for the table's life: nothing would ever ask
	// the cache for it, so it is not charged to the cache either.
	raw, err := t.readRawFrom(t.r, indexHandle)
	if err != nil {
		return nil, err
	}
	if t.index, err = decodeBlock(raw); err != nil {
		return nil, fmt.Errorf("sstable: file %d: %w", t.fileNum, err)
	}
	return t, nil
}

// OpenBuilt opens file fileNum, to be read through r, from data, the whole
// table as Finish returned it or as read whole: footer, filter and index
// come from data, CRC-checked and copied, so nothing is read through r and
// data may be released once this returns. r may be nil for a table only
// iterated over data (NewMemIterator).
func OpenBuilt(data []byte, r io.ReaderAt, fileNum uint64, cache *Cache) (*Table, error) {
	t, err := Open(bytes.NewReader(data), int64(len(data)), fileNum, cache)
	if err != nil {
		return nil, err
	}
	t.r = r
	return t, nil
}

// Source returns the ReaderAt the table reads its blocks through.
func (t *Table) Source() io.ReaderAt { return t.r }

// readRawFrom fetches through r and CRC-checks a raw block (no decode).
func (t *Table) readRawFrom(r io.ReaderAt, h blockHandle) ([]byte, error) {
	if !t.holds(h) {
		return nil, fmt.Errorf("sstable: handle %+v outside file %d", h, t.fileNum)
	}
	return t.readRawInto(make([]byte, h.length+blockTrailerLen), r, h)
}

// readRawInto reads the block at h and its trailer through r into buf,
// exactly that long, and CRC-checks it.
func (t *Table) readRawInto(buf []byte, r io.ReaderAt, h blockHandle) ([]byte, error) {
	if _, err := r.ReadAt(buf, int64(h.offset)); err != nil {
		return nil, fmt.Errorf("sstable: reading block of file %d: %w", t.fileNum, err)
	}
	return t.checkRaw(buf, h)
}

// readScratch reads, CRC-checks and decodes the data block at h in a
// scratch from the cache's pool. The caller hands it back with putScratch
// once done with the block.
func (t *Table) readScratch(h blockHandle) (*blockScratch, error) {
	if !t.holds(h) {
		return nil, fmt.Errorf("sstable: handle %+v outside file %d", h, t.fileNum)
	}
	s := t.cache.getScratch()
	if n := int(h.length + blockTrailerLen); cap(s.buf) >= n {
		s.buf = s.buf[:n]
	} else {
		s.buf = make([]byte, n)
	}
	contents, err := t.readRawInto(s.buf, t.r, h)
	if err == nil {
		if err = s.blk.decode(contents); err != nil {
			err = fmt.Errorf("sstable: file %d: %w", t.fileNum, err)
		}
	}
	if err != nil {
		t.cache.putScratch(s)
		return nil, err
	}
	return s, nil
}

// end is the file offset just past the block's trailer.
func (h blockHandle) end() uint64 { return h.offset + h.length + blockTrailerLen }

// holds reports whether the block at h and its trailer lie inside the file.
func (t *Table) holds(h blockHandle) bool {
	return h.length <= uint64(t.size) && h.offset <= uint64(t.size) && h.end() <= uint64(t.size)
}

// checkRaw CRC-checks buf, the block at h and its trailer as read, and
// returns the contents, a slice of buf.
func (t *Table) checkRaw(buf []byte, h blockHandle) ([]byte, error) {
	if crc32.Checksum(buf[:h.length+1], castagnoliTable) != binary.LittleEndian.Uint32(buf[h.length+1:]) {
		t.cache.noteCorrupt(t.fileNum, h.offset)
		return nil, &CorruptBlockError{FileNum: t.fileNum, Offset: h.offset}
	}
	if typ := buf[h.length]; typ != rawBlock {
		return nil, fmt.Errorf("sstable: file %d at %d: unknown block type %d", t.fileNum, h.offset, typ)
	}
	return buf[:h.length], nil
}

// readBlock fetches a data block through the cache, a hit counting as a
// touch, and on a miss caches it, read in a scratch, and returns the copy.
func (t *Table) readBlock(h blockHandle) (*block, error) {
	if b := t.cache.get(t.fileNum, h.offset, true); b != nil {
		return b, nil
	}
	s, err := t.readScratch(h)
	if err != nil {
		return nil, err
	}
	defer t.cache.putScratch(s)
	if b := t.cache.admit(t.fileNum, h.offset, &s.blk, true); b != nil {
		return b, nil
	}
	return decodeBlock(bytes.Clone(s.buf[:h.length])) // no cache, or another read cached it first
}

// Get returns the entry for ukey visible at snapshot seq.
func (t *Table) Get(ukey []byte, seq kv.SeqNum) (value []byte, deleted, ok bool, err error) {
	v, _, kind, ok, err := t.GetEntry(ukey, seq)
	return v, ok && kind == kv.KindDelete, ok, err
}

// GetEntry returns the newest entry for ukey visible at snapshot seq,
// together with its sequence number and kind; callers reading
// overlapped levels compare sequence numbers across tables. The value is
// the caller's own copy.
//
// A cached row answers before the index is searched. Otherwise the read
// decides what its data block leaves in the cache once it has seen the
// entry: a row, if cacheRow takes the entry — into probation if the block
// was read from the device, decoded in a pooled scratch, and into protected
// if the block was cached, as a touch would have moved it — else the block,
// copied from the scratch or touched.
func (t *Table) GetEntry(ukey []byte, seq kv.SeqNum) (value []byte, foundSeq kv.SeqNum, kind kv.Kind, ok bool, err error) {
	if !bloomMayContain(t.bloom, ukey) {
		t.cache.noteBloom(false, false)
		return nil, 0, 0, false, nil
	}
	if value, foundSeq, kind, ok = t.cache.getRow(t.fileNum, ukey, seq); ok {
		t.cache.noteBloom(true, true)
		return value, foundSeq, kind, true, nil
	}
	var buf, ixKey, key [64]byte
	search := kv.MakeSearchKey(buf[:0], ukey, seq)
	ix := blockIter{b: t.index, key: ixKey[:0]}
	ix.Seek(search)
	if !ix.Valid() {
		if ix.Error() == nil {
			t.cache.noteBloom(true, false)
		}
		return nil, 0, 0, false, ix.Error()
	}
	h, _, err := decodeHandle(ix.Value())
	if err != nil {
		return nil, 0, 0, false, err
	}
	b := t.cache.get(t.fileNum, h.offset, false)
	hit := b != nil
	if !hit {
		s, err := t.readScratch(h)
		if err != nil {
			return nil, 0, 0, false, err
		}
		defer t.cache.putScratch(s)
		b = &s.blk
	}
	it := blockIter{b: b, key: key[:0]}
	it.Seek(search)
	found := it.Valid() && kv.CompareUser(it.Key().UserKey(), ukey) == 0
	switch {
	case found && t.cacheRow(&ix, &it, ukey, hit):
	case hit:
		t.cache.promote(t.fileNum, h.offset)
	default:
		t.cache.admit(t.fileNum, h.offset, b, true)
	}
	if !found {
		if it.Error() == nil {
			t.cache.noteBloom(true, false)
		}
		return nil, 0, 0, false, it.Error()
	}
	ik := it.Key()
	t.cache.noteBloom(true, true)
	if ik.Kind() == kv.KindDelete {
		return nil, ik.Seq(), kv.KindDelete, true, nil
	}
	return append([]byte(nil), it.Value()...), ik.Seq(), ik.Kind(), true, nil
}

// cacheRow caches the entry for ukey that it stands on, in the block ix
// stands on, as a row, protected if it says so, and reports whether it
// did. The entry must be large next to its block (rowBlockShare) and the
// newest version of ukey in the file, so that the row answers every lookup
// at or above its sequence number as the blocks would: its predecessor —
// in the block, or for the block's first entry the previous index
// separator, which is no smaller than the last key before it — must have
// another user key. ix is moved.
func (t *Table) cacheRow(ix, it *blockIter, ukey []byte, protected bool) bool {
	if t.cache == nil || (int64(len(ukey)+len(it.Value()))+valueOverhead)*rowBlockShare < it.b.charge() {
		return false
	}
	var buf, key [64]byte
	newest := blockIter{b: it.b, key: key[:0]}
	if newest.Seek(kv.MakeSearchKey(buf[:0], ukey, kv.MaxSeqNum)); newest.offset != it.offset {
		return false
	}
	if it.offset == 0 {
		if ix.Prev(); ix.Error() != nil || ix.Valid() && kv.CompareUser(ix.Key().UserKey(), ukey) == 0 {
			return false
		}
	}
	return t.cache.putRow(t.fileNum, ukey, it.Value(), it.Key().Seq(), it.Key().Kind(), protected)
}

// NewIterator returns a two-level iterator over the whole table.
func (t *Table) NewIterator() kv.Iterator {
	return &tableIter{t: t, ix: blockIter{b: t.index}}
}

// NewMemIterator iterates a table whose whole file the caller holds in
// data and leaves alone meanwhile: every data block is checked and decoded
// where it lies, with no cache and no copy.
func (t *Table) NewMemIterator(data []byte) kv.Iterator {
	return &tableIter{t: t, ix: blockIter{b: t.index}, win: &window{buf: data[:t.size:t.size]}}
}

// streamAfter is how many data blocks after a positioning call go through
// the cache (a seek nearby comes back to them), and the first window's size.
const streamAfter = 2

// NewSpanIterator returns the iterator of the user read path. After Seek,
// SeekToFirst, SeekToLast or Prev, streamAfter data blocks go through the
// cache as with NewIterator. Past them, a forward step to a block that
// neither the iterator's window nor the cache holds refills the window by
// one device read of whole blocks: streamAfter, then twice as many per
// refill up to readahead bytes. Blocks are checked and decoded in the
// window, counted in streamed, and cached only while that evicts nothing.
//
// A span over 1 is a forward scan's guess of how many blocks it needs
// from the table: only the block a positioning call lands in goes through
// the cache (probed, and kept on a miss as readBlock keeps it), and the
// first device read after positioning reads span blocks at once, past any
// readahead bound; the windows after it grow from there as above.
//
// The iterator, its window and the first room of its keys live in s, the
// caller's storage, which keeps the room of its keys when initialised again
// for another table once closed; Close hands the window's pooled buffer back.
func (t *Table) NewSpanIterator(s *SpanIter, readahead, span int, streamed *obs.Counter) kv.Iterator {
	s.win = window{after: streamAfter, max: uint64(readahead), grow: streamAfter, span: span, streamed: streamed, peek: blockIter{key: s.win.peek.key}}
	s.tableIter = tableIter{t: t, ix: blockIter{b: t.index, key: s.keys[0][:0]}, cur: blockIter{key: s.keys[1][:0]}, win: &s.win}
	return &s.tableIter
}

// SpanIter is the storage of a NewSpanIterator.
type SpanIter struct {
	tableIter
	win  window
	keys [2][48]byte
}

// Release closes s and drops its table, blocks and window: only key room stays.
func (s *SpanIter) Release() {
	s.Close()
	s.tableIter, s.win = tableIter{}, window{peek: blockIter{key: s.win.peek.key[:0]}}
}

// NewCompactionIterator returns an iterator for compaction input
// scans: it bypasses the block cache (LevelDB's fill_cache=false)
// and reads through a readahead window of the given size, modeling
// the OS readahead a streaming merge enjoys on each input file.
func (t *Table) NewCompactionIterator(readahead int) kv.Iterator {
	it := &tableIter{t: t, ix: blockIter{b: t.index}, nocache: true}
	if readahead > 0 {
		it.src = &readaheadReader{r: t.r, window: readahead}
	}
	return it
}

// readaheadReader serves ReadAt from a single sliding window, hitting
// the underlying reader once per window.
type readaheadReader struct {
	r      io.ReaderAt
	window int
	buf    []byte
	off    int64 // file offset of buf[0]
}

// ReadAt implements io.ReaderAt.
func (ra *readaheadReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= ra.off && off+int64(len(p)) <= ra.off+int64(len(ra.buf)) {
		copy(p, ra.buf[off-ra.off:])
		return len(p), nil
	}
	n := max(ra.window, len(p))
	if cap(ra.buf) < n {
		ra.buf = make([]byte, n)
	}
	m, err := ra.r.ReadAt(ra.buf[:n], off)
	if err == io.EOF && m >= len(p) {
		err = nil
	}
	if err != nil && m < len(p) {
		ra.buf = ra.buf[:0] // the old window is overwritten
		return 0, err
	}
	ra.buf = ra.buf[:m]
	ra.off = off
	copy(p, ra.buf)
	return len(p), nil
}

// window is a run of whole blocks of one table as read: a read-ahead buffer
// or a table held in memory. Entries are valid until the next block load.
type window struct {
	off      uint64 // file offset of buf[0]
	buf      []byte
	box      *[]byte // the pooled box buf is in; nil for a table held in memory
	after    int     // block loads after positioning that go through readBlock (span ≤ 1)
	max      uint64  // refill bound in bytes
	grow     int     // blocks the next refill asks for
	span     int     // if over 1, blocks the first refill after positioning asks for
	pending  bool    // that refill is still to come: no byte bound
	streamed *obs.Counter
	peek     blockIter // reads the index ahead of the iterator
	blk      block     // the block decoded last, in buf
}

// tableIter chains the index iterator with per-block data iterators.
type tableIter struct {
	t       *Table
	ix      blockIter
	data    *blockIter // nil or &cur
	cur     blockIter  // reused block after block, key buffer and all
	err     error
	nocache bool
	src     io.ReaderAt // non-nil: read data blocks through this
	win     *window     // non-nil: blocks may be decoded in place from it
	run     int         // block loads since the last positioning call or Prev
}

func (it *tableIter) Valid() bool {
	return it.err == nil && it.data != nil && it.data.Valid()
}

func (it *tableIter) Error() error {
	if it.err != nil {
		return it.err
	}
	if it.data != nil && it.data.Error() != nil {
		return it.data.Error()
	}
	return it.ix.Error()
}

func (it *tableIter) loadBlock() {
	it.data = nil
	if !it.ix.Valid() {
		return
	}
	h, _, err := decodeHandle(it.ix.Value())
	if err != nil {
		it.err = err
		return
	}
	it.run++
	var b *block
	switch {
	case it.nocache:
		src := it.src
		if src == nil {
			src = it.t.r
		}
		var raw []byte
		if raw, err = it.t.readRawFrom(src, h); err == nil {
			b, err = decodeBlock(raw)
		}
	case it.win != nil && (it.run > it.win.after || it.win.span > 1):
		b, err = it.streamBlock(h)
	default:
		b, err = it.t.readBlock(h)
	}
	if err != nil {
		it.err = err
		return
	}
	it.cur = blockIter{b: b, key: it.cur.key[:0]}
	it.data = &it.cur
}

// streamBlock returns the block at h from the window (no cache probe),
// else from the cache (no device read), else from the window refilled.
// The block a span's positioning call lands in is asked of the cache
// first, and on a miss cached as readBlock caches it.
func (it *tableIter) streamBlock(h blockHandle) (*block, error) {
	w, t := it.win, it.t
	if !t.holds(h) {
		return nil, fmt.Errorf("sstable: handle %+v outside file %d", h, t.fileNum)
	}
	landing := it.run == 1 && w.span > 1
	if landing {
		w.grow, w.pending = w.span, true
	}
	inWindow := h.offset >= w.off && h.end() <= w.off+uint64(len(w.buf))
	if landing || !inWindow {
		if b := t.cache.get(t.fileNum, h.offset, true); b != nil {
			return b, nil
		}
	}
	if !inWindow {
		if err := it.refill(h); err != nil {
			return nil, err
		}
	}
	contents, err := t.checkRaw(w.buf[h.offset-w.off:h.end()-w.off], h)
	if err == nil {
		err = w.blk.decode(contents)
	}
	if err != nil {
		return nil, err
	}
	if !landing {
		w.streamed.Inc()
	}
	t.cache.admit(t.fileNum, h.offset, &w.blk, landing)
	return &w.blk, nil
}

// refill reads into the window the block at h, where the index iterator
// stands, and the blocks the index puts right behind it, until it holds
// grow blocks or (past streamAfter, unless a span read is pending) the
// next would exceed max bytes: never past the last data block, and the
// next refill continues without a seek.
func (it *tableIter) refill(h blockHandle) error {
	w, t := it.win, it.t
	w.peek = blockIter{b: t.index, next: it.ix.next, key: append(w.peek.key[:0], it.ix.key...)}
	n, end := 1, h.end()
	for w.peek.parseNext(); n < w.grow && w.peek.Valid(); w.peek.parseNext() {
		nh, _, err := decodeHandle(w.peek.Value())
		if err != nil || nh.offset != end || !t.holds(nh) || !w.pending && n >= streamAfter && nh.end()-h.offset > w.max {
			break
		}
		n, end = n+1, nh.end()
	}
	w.grow += n // doubles, until max or the table's end cuts a refill short
	w.pending = false
	if size := int(end - h.offset); w.box == nil || cap(*w.box) < size {
		box := t.cache.getWindow(size) // before the old box goes back: the pool would offer it
		it.Close()
		w.box = box
	}
	w.buf, w.off = (*w.box)[:end-h.offset], h.offset
	if _, err := t.r.ReadAt(w.buf, int64(h.offset)); err != nil {
		w.buf = w.buf[:0]
		return fmt.Errorf("sstable: reading blocks of file %d: %w", t.fileNum, err)
	}
	return nil
}

// Close hands a streaming iterator's window back to the cache's pool,
// poisoned first under the sealdb_invariants tag, leaving the iterator
// unpositioned: nothing it returned may be used after. It may be
// positioned again, with a window from the pool.
func (it *tableIter) Close() {
	if w := it.win; w != nil && w.box != nil {
		poisonBuf(*w.box)
		if c := it.t.cache; c != nil {
			c.windows.Put(w.box)
		}
		w.box, w.buf, it.data = nil, nil, nil
	}
}

func (it *tableIter) SeekToFirst() {
	it.err, it.run = nil, 0
	it.ix.SeekToFirst()
	it.loadBlock()
	if it.data != nil {
		it.data.SeekToFirst()
	}
	it.skipEmptyBlocks(false)
}

func (it *tableIter) Seek(target kv.InternalKey) {
	it.err, it.run = nil, 0
	it.ix.Seek(target)
	it.loadBlock()
	if it.data != nil {
		it.data.Seek(target)
	}
	it.skipEmptyBlocks(false)
}

func (it *tableIter) SeekToLast() {
	it.err, it.run = nil, 0
	it.ix.SeekToLast()
	it.loadBlock()
	if it.data != nil {
		it.data.SeekToLast()
	}
	it.skipEmptyBlocks(true)
}

func (it *tableIter) Next() {
	it.data.Next()
	it.skipEmptyBlocks(false)
}

func (it *tableIter) Prev() {
	it.run = 0
	it.data.Prev()
	it.skipEmptyBlocks(true)
}

// skipEmptyBlocks advances (back: retreats) to the nearest data block
// that is not exhausted.
func (it *tableIter) skipEmptyBlocks(back bool) {
	for it.err == nil && (it.data == nil || !it.data.Valid()) {
		if it.data != nil && it.data.Error() != nil {
			it.err = it.data.Error()
			return
		}
		if !it.ix.Valid() {
			it.data = nil
			return
		}
		if back {
			it.ix.Prev()
		} else {
			it.ix.Next()
		}
		if it.loadBlock(); it.data != nil && back {
			it.data.SeekToLast()
		} else if it.data != nil {
			it.data.SeekToFirst()
		}
	}
}

func (it *tableIter) Key() kv.InternalKey { return it.data.Key() }
func (it *tableIter) Value() []byte       { return it.data.Value() }

var _ kv.Iterator = (*tableIter)(nil)
