package lsm

import (
	"sort"

	"sealdb/internal/kv"
	"sealdb/internal/memtable"
	"sealdb/internal/sstable"
	"sealdb/internal/version"
)

// mergingIter merges child iterators in internal-key order. It keeps each
// child's key as of its last move, so a step asks only the moved child for
// its error, validity and key, and the runner-up: while the moved child
// leads it (82 % of scan_short's steps), one compare settles the step.
type mergingIter struct {
	children []kv.Iterator
	keys     []kv.InternalKey // each child's key after its last move; nil once it is exhausted
	cur      int              // index of the child holding the current key; -1 if none
	next     int              // the runner-up: the first of the other children; -1 if none
	dir      int
	err      error
}

// direction of the last movement; children are positioned at their
// next candidate in that direction.
const (
	dirForward = iota
	dirBackward
)

// before reports whether child i's kept key comes before child j's in
// direction dir: the smaller forward, the larger backward, the lower
// index on a tie. Both must hold a key.
func (m *mergingIter) before(i, j int) bool {
	c := kv.CompareInternal(m.keys[i], m.keys[j])
	if m.dir == dirBackward {
		c = -c
	}
	return c < 0 || c == 0 && i < j
}

// find points cur at the child holding the next key in direction dir
// and next at the runner-up, in one pass over the kept keys.
func (m *mergingIter) find() {
	m.cur, m.next = -1, -1
	for i, k := range m.keys {
		switch {
		case k == nil:
		case m.cur < 0 || m.before(i, m.cur):
			m.cur, m.next = i, m.cur
		case m.next < 0 || m.before(i, m.next):
			m.next = i
		}
	}
}

// keep records child i's key after it moved, or its error (then
// reporting false: the merge stops).
func (m *mergingIter) keep(i int) bool {
	c := m.children[i]
	if err := c.Error(); err != nil {
		m.err, m.cur = err, -1
		return false
	}
	m.keys[i] = nil
	if c.Valid() {
		m.keys[i] = c.Key()
	}
	return true
}

// keepAll records every child's key, in index order (the first error
// wins), after all of them moved, and finds the next key in dir.
func (m *mergingIter) keepAll(dir int) {
	m.dir = dir
	m.keys = append(m.keys[:0], make([]kv.InternalKey, len(m.children))...)
	for i := range m.children {
		if !m.keep(i) {
			return
		}
	}
	m.find()
}

func (m *mergingIter) Valid() bool  { return m.err == nil && m.cur >= 0 }
func (m *mergingIter) Error() error { return m.err } // keep catches a child's error after the move that raised it

func (m *mergingIter) SeekToFirst() { m.position(dirForward, kv.Iterator.SeekToFirst) }
func (m *mergingIter) SeekToLast()  { m.position(dirBackward, kv.Iterator.SeekToLast) }
func (m *mergingIter) Seek(target kv.InternalKey) {
	m.position(dirForward, func(c kv.Iterator) { c.Seek(target) })
}

// position positions every child by pos and finds the next key in dir.
func (m *mergingIter) position(dir int, pos func(kv.Iterator)) {
	for _, c := range m.children {
		pos(c)
	}
	m.keepAll(dir)
}

func (m *mergingIter) Next() { m.step(dirForward) }
func (m *mergingIter) Prev() { m.step(dirBackward) }

// step moves past the current key in dir: without a turn only the current
// child moves, and find runs unless it still leads the runner-up. A turn
// first re-points every other child from its candidate in the old direction
// to its first entry past the current key in dir (LevelDB's switch).
func (m *mergingIter) step(dir int) {
	turn := m.dir != dir
	if turn {
		key := m.keys[m.cur].Clone()
		for i, c := range m.children {
			if i == m.cur {
				continue
			}
			c.Seek(key)
			switch {
			case dir == dirForward:
				if c.Valid() && kv.CompareInternal(c.Key(), key) == 0 {
					c.Next()
				}
			case c.Valid():
				c.Prev()
			default:
				c.SeekToLast()
			}
		}
	}
	if dir == dirForward {
		m.children[m.cur].Next()
	} else {
		m.children[m.cur].Prev()
	}
	if turn {
		m.keepAll(dir)
	} else if m.keep(m.cur) && (m.keys[m.cur] == nil || m.next >= 0 && m.before(m.next, m.cur)) {
		m.find()
	}
}

func (m *mergingIter) Key() kv.InternalKey { return m.keys[m.cur] }
func (m *mergingIter) Value() []byte       { return m.children[m.cur].Value() }

var _ kv.Iterator = (*mergingIter)(nil)

// concatIter iterates the files of a sorted, disjoint level (or a
// single table) in key order, opening one table at a time: into table, with
// span (spanFor), for a user read; out of inputs, by file number, for a
// compaction that holds its input iterators already.
type concatIter struct {
	d      *DB
	files  []*version.FileMeta
	inputs map[uint64]kv.Iterator
	span   int
	idx    int
	cur    kv.Iterator
	err    error
	table  sstable.SpanIter // the storage of every table a user read opens
}

func (c *concatIter) openIdx() {
	c.table.Close() // hands back the window of the table it leaves, if a user read's
	c.cur = nil
	if c.err != nil || c.idx < 0 || c.idx >= len(c.files) {
		return
	}
	if c.inputs != nil {
		c.cur = c.inputs[c.files[c.idx].Num]
	} else if t, err := c.d.openTable(c.files[c.idx]); err != nil {
		c.err = err
	} else {
		c.cur = t.NewSpanIterator(&c.table, c.d.cfg.readahead(), c.span, c.d.metrics.sstableStreamed)
	}
}

func (c *concatIter) Valid() bool { return c.err == nil && c.cur != nil && c.cur.Valid() }

func (c *concatIter) Error() error {
	if c.err == nil && c.cur != nil {
		return c.cur.Error()
	}
	return c.err
}

func (c *concatIter) SeekToFirst() { c.enter(0, 1, kv.Iterator.SeekToFirst) }
func (c *concatIter) SeekToLast()  { c.enter(len(c.files)-1, -1, kv.Iterator.SeekToLast) }
func (c *concatIter) Seek(target kv.InternalKey) {
	c.enter(sort.Search(len(c.files), func(i int) bool {
		return kv.CompareInternal(target, c.files[i].Largest) <= 0
	}), 1, func(it kv.Iterator) { it.Seek(target) })
}

// enter opens file idx, positions it by pos and moves on from it as
// skipExhausted does.
func (c *concatIter) enter(idx, step int, pos func(kv.Iterator)) {
	c.idx = idx
	if c.openIdx(); c.cur != nil {
		pos(c.cur)
	}
	c.skipExhausted(step)
}

func (c *concatIter) Next() {
	c.cur.Next()
	c.skipExhausted(1)
}

func (c *concatIter) Prev() {
	c.cur.Prev()
	c.skipExhausted(-1)
}

// skipExhausted moves step files at a time (1 forward, -1 backward)
// past exhausted files, entering each at its near end.
func (c *concatIter) skipExhausted(step int) {
	for c.err == nil && (c.cur == nil || !c.cur.Valid()) {
		if c.cur != nil && c.cur.Error() != nil {
			c.err = c.cur.Error()
			return
		}
		c.idx += step
		if c.openIdx(); c.cur == nil {
			return
		}
		if step > 0 {
			c.cur.SeekToFirst()
		} else {
			c.cur.SeekToLast()
		}
	}
}

func (c *concatIter) Key() kv.InternalKey { return c.cur.Key() }
func (c *concatIter) Value() []byte       { return c.cur.Value() }

var _ kv.Iterator = (*concatIter)(nil)

// Iterator is the user-facing iterator: it surfaces the newest visible
// version of each live user key at its sequence number, takes no engine
// lock, and holds its read state (every file it may read) until Close.
type Iterator struct {
	d   *DB
	s   *readState // nil once closed
	r   *readRoom  // d.spareRoom when it was there, grown to the largest fan-in
	seq kv.SeqNum
	key []byte // also the search key a Seek builds
	val []byte
	ok  bool
	err error
}

// readRoom is what an Iterator reads in, the store's spare while none holds
// it: the merge, its children's storage, each table's included, and a
// Scan's Iterator with its buffers. newIterator fills it in place; Close
// strips it of every table, block, window, memtable and read state.
type readRoom struct {
	m        mergingIter
	levels   []concatIter
	mem, imm memtable.Iter
	it       Iterator // a Scan's own; a public Iterator is its own object and borrows the rest
}

// NewIterator returns an iterator over the current state.
func (d *DB) NewIterator() *Iterator { return d.NewSnapshotIterator(nil) }

// NewSnapshotIterator iterates the state as of snap (nil: the visible
// sequence number). The caller keeps ownership of the snapshot.
func (d *DB) NewSnapshotIterator(snap *Snapshot) *Iterator {
	return d.newIterator(new(Iterator), snap, 0)
}

// newIterator opens it (nil: the room's own, for a Scan) as
// NewSnapshotIterator does, with spanFor's spans for limit records.
func (d *DB) newIterator(it *Iterator, snap *Snapshot, limit int) *Iterator {
	s, seq := d.acquire()
	if s == nil {
		return &Iterator{d: d, err: ErrClosed}
	}
	if snap != nil {
		seq = snap.seq
	}
	var total int64
	n := 0
	for level, files := range s.v.Files {
		total += s.v.LevelBytes(level)
		if n += len(files); d.cfg.sortedLevel(level) && len(files) > 0 {
			n -= len(files) - 1
		}
	}
	r := d.spareRoom.Swap(nil)
	if r == nil { // none spare, or another Iterator is open: room sized to this fan-in
		r = &readRoom{m: mergingIter{children: make([]kv.Iterator, 0, 2+n), keys: make([]kv.InternalKey, 0, 2+n)}}
	}
	if cap(r.levels) < n { // levels may not move once a merge child points into it
		r.levels = make([]concatIter, 0, n)
	}
	r.m.children = append(r.m.children[:0], s.mem.NewIteratorIn(&r.mem))
	if s.imm != nil {
		r.m.children = append(r.m.children, s.imm.NewIteratorIn(&r.imm))
	}
	// A sorted level is one child; an overlapped level's tables (L0's) are
	// one child each, and each opens a table on the first move that needs it.
	r.levels = r.levels[:0]
	for level, files := range s.v.Files {
		if d.cfg.sortedLevel(level) && len(files) > 0 {
			r.addLevel(d, files, d.spanFor(limit, s.v.LevelBytes(level), total))
			continue
		}
		for i, f := range files {
			r.addLevel(d, files[i:i+1], d.spanFor(limit, f.Size, total))
		}
	}
	r.m = mergingIter{children: r.m.children, keys: r.m.keys[:0], cur: -1}
	if it == nil {
		it = &r.it
	}
	*it = Iterator{d: d, s: s, r: r, seq: seq, key: it.key[:0], val: it.val[:0]}
	return it
}

// addLevel places a merge child over files where Close left one stripped.
func (r *readRoom) addLevel(d *DB, files []*version.FileMeta, span int) {
	r.levels = r.levels[:len(r.levels)+1]
	c := &r.levels[len(r.levels)-1]
	c.d, c.files, c.span = d, files, span
	r.m.children = append(r.m.children, c)
}

// spanFor is the span of a scan of limit records in a level (an L0 or
// overlapped table: a table) of bytes in a tree of total: the block a seek
// lands in, which may hold nothing at or past the target, its successor,
// and the level's share of limit in blocks of the mean entry built so far
// (a block holds one entry at least, however large).
func (d *DB) spanFor(limit int, bytes, total int64) int {
	entries := d.builtEntries.Load()
	if limit <= 0 || entries == 0 {
		return 2 * min(limit, 1) // none without a limit, two before any table
	}
	blocks := float64(limit) * float64(bytes) / float64(total) * min(float64(d.builtBytes.Load())/float64(entries)/sstable.TargetBlockSize, 1)
	return 2 + int(min(blocks, 1<<30))
}

// open reports whether the iterator may move: once it or its DB is
// closed it is left invalid with ErrClosed, touching no storage.
func (it *Iterator) open() bool {
	if it.s == nil || it.d.closed.Load() {
		it.ok, it.err = false, ErrClosed
		return false
	}
	return true
}

// SeekToFirst positions at the first live user key.
func (it *Iterator) SeekToFirst() {
	if it.open() {
		it.r.m.SeekToFirst()
		it.settle(nil)
	}
}

// Seek positions at the first live user key >= target.
func (it *Iterator) Seek(target []byte) {
	if it.open() {
		it.key = kv.MakeSearchKey(it.key[:0], target, it.seq) // rewritten before it is read as a user key
		it.r.m.Seek(it.key)
		it.settle(nil)
	}
}

// SeekToLast positions at the largest live user key.
func (it *Iterator) SeekToLast() {
	if it.open() {
		it.r.m.SeekToLast()
		it.settleBackward(nil)
	}
}

// Next advances to the next live user key.
func (it *Iterator) Next() {
	if !it.open() || !it.ok {
		return
	}
	if !it.r.m.Valid() {
		// A backward pass exhausted the merged stream resolving the current
		// key's run: seek to that key's last possible entry (settle skips it).
		it.r.m.Seek(kv.MakeInternalKey(nil, it.key, 0, kv.KindDelete))
	}
	it.settle(it.key)
}

// Prev retreats to the previous live user key.
func (it *Iterator) Prev() {
	if it.open() && it.ok {
		it.settleBackward(it.key)
	}
}

// settleBackward walks the merged stream backward to the newest
// visible version of the largest live user key strictly below upper
// (nil = unbounded). Backward order visits a user key's versions
// oldest first, so the run at hand is resolved only once a smaller
// key's visible entry shows it complete (LevelDB's FindPrevUserEntry).
func (it *Iterator) settleBackward(upper []byte) {
	it.ok = false
	var user, val []byte  // the run at hand's user key and, if it lives, its newest visible value
	kind := kv.KindDelete // the run's newest visible kind: it lives unless a tombstone
	for ; it.r.m.Valid(); it.r.m.Prev() {
		ik := it.r.m.Key()
		u := ik.UserKey()
		if ik.Seq() > it.seq || upper != nil && kv.CompareUser(u, upper) >= 0 {
			continue
		}
		if kind != kv.KindDelete && kv.CompareUser(u, user) < 0 {
			break
		}
		user = append(user[:0], u...)
		if kind = ik.Kind(); kind != kv.KindDelete {
			val = append(val[:0], it.r.m.Value()...)
		}
	}
	if kind != kv.KindDelete {
		it.key = append(it.key[:0], user...)
		it.ok = it.setValue(kind, val) // false with it.err set on a chase error
		return
	}
	if err := it.r.m.Error(); err != nil {
		it.err = err
	}
}

// settle advances the merged stream to the newest visible version of
// the next live user key after prevUser (nil = no lower bound).
func (it *Iterator) settle(prevUser []byte) {
	it.ok = false
	for ; it.r.m.Valid(); it.r.m.Next() {
		ik := it.r.m.Key()
		u := ik.UserKey()
		if ik.Seq() > it.seq || prevUser != nil && kv.CompareUser(u, prevUser) <= 0 {
			continue
		}
		it.key = append(it.key[:0], u...)
		if ik.Kind() == kv.KindDelete { // a tombstone: every older version of its key, kept in it.key, is skipped
			prevUser = it.key
			continue
		}
		it.ok = it.setValue(ik.Kind(), it.r.m.Value()) // false with it.err set on a chase error
		return
	}
	if err := it.r.m.Error(); err != nil {
		it.err = err
	}
}

// setValue stores the emitted value, an entry of kind, chasing it if it
// is a value-log pointer. The iterator's read state keeps every segment
// it references, so a pointer read here cannot race a value-log GC
// drop. Returns false (with it.err set) on a chase error.
func (it *Iterator) setValue(kind kv.Kind, stored []byte) bool {
	v, err := it.d.resolveValue(it.val, it.key, kind, stored)
	if err != nil {
		it.err = err
		return false
	}
	it.val = v
	return true
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.ok && it.err == nil }

// Key returns the current user key (valid until the next move).
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value (valid until the next move).
func (it *Iterator) Value() []byte { return it.val }

// Error reports an iteration error.
func (it *Iterator) Error() error { return it.err }

// Close releases the iterator's read state, letting reclamation of
// what later edits retired run. Closing twice is a no-op.
func (it *Iterator) Close() {
	if it.s == nil {
		return
	}
	d, s, r := it.d, it.s, it.r
	it.s, it.r = nil, nil // it may be r.it: done with it before r goes back
	for i := range r.levels {
		r.levels[i].table.Release() // a level keeps only its table's storage
		r.levels[i] = concatIter{table: r.levels[i].table}
	}
	clear(r.m.children)
	clear(r.m.keys)
	r.m, r.mem, r.imm = mergingIter{children: r.m.children[:0], keys: r.m.keys[:0]}, memtable.Iter{}, memtable.Iter{}
	d.spareRoom.Store(r)
	d.release(s)
}

// KV is a key/value pair returned by Scan.
type KV struct {
	Key   []byte
	Value []byte
}

// Scan returns up to limit live entries with keys >= start, the range
// query used by YCSB workload E. The records of one Scan share chunks of at
// most 64 KiB, so keeping any one record keeps its chunk alive; each key
// and value is capped to its own length, so an append to it copies it.
func (d *DB) Scan(start []byte, limit int) ([]KV, error) {
	it := d.newIterator(nil, nil, limit)
	defer it.Close()
	it.Seek(start)
	return it.collect(limit, it.Next)
}

// ScanReverse returns up to limit live entries with keys <= start in
// descending order (nil start = from the largest key).
func (d *DB) ScanReverse(start []byte, limit int) ([]KV, error) {
	it := d.NewIterator()
	defer it.Close()
	if start != nil {
		it.Seek(start)
	}
	if start == nil || !it.Valid() {
		it.SeekToLast()
	} else if kv.CompareUser(it.Key(), start) > 0 {
		it.Prev()
	}
	return it.collect(limit, it.Prev)
}

// collect copies up to limit entries from where it stands, moving by
// step, and not past the last one: a step may load a block. The result
// is sized once (a caller's limit may be anything, so only up to a point).
// The records share chunks of at most 64 KiB, each sized for the records
// still to come (at most as many as the result holds) at the current
// record's size; a larger record gets its own. A limit past what the
// result holds bounds nothing, so there a chunk is sized for the records
// collected so far plus this one, and the chunks double (Scan).
func (it *Iterator) collect(limit int, step func()) ([]KV, error) {
	var out []KV
	var chunk []byte
	for ; it.Valid() && len(out) < limit; step() {
		if out == nil {
			out = make([]KV, 0, min(limit, 128))
		}
		k, n := len(it.key), len(it.key)+len(it.val)
		if cap(chunk)-len(chunk) < n {
			recs := min(limit-len(out), cap(out))
			if limit > cap(out) {
				recs = len(out) + 1
			}
			chunk = make([]byte, 0, max(n, min(recs, (64<<10)/max(n, 1))*n))
		}
		chunk = append(append(chunk, it.key...), it.val...)
		rec := chunk[len(chunk)-n:]
		if out = append(out, KV{Key: rec[:k:k], Value: rec[k:n:n]}); len(out) == limit {
			break
		}
	}
	return out, it.Error()
}
