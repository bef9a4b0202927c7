// Package memtable implements the in-memory write buffer of the LSM
// tree: a skiplist ordered by internal key, as in LevelDB. Mutations
// are applied by a single writer (the DB serializes Adds); readers —
// Get and iterators — take no lock and may run concurrently with the
// writer, LevelDB's discipline: a node is filled in before the atomic
// store that links it, so a reader that loads a link sees the whole
// node, and a tower is linked bottom-up, so a reader never reaches a
// node at a level it is not yet linked at below.
package memtable

import (
	"math/rand"
	"sync/atomic"

	"sealdb/internal/kv"
)

const (
	maxHeight = 12
	branching = 4
)

type node struct {
	key   kv.InternalKey
	value []byte
	next  []atomic.Pointer[node]
}

// MemTable is a skiplist of internal keys. The zero value is not
// usable; call New.
type MemTable struct {
	head *node
	rnd  *rand.Rand
	// height is the tallest tower linked; readers load it, the writer
	// raises it. size and count are the writer's.
	height atomic.Int32
	size   int64
	count  int

	// Entries are carved from slabs, not allocated one by one: bytes is
	// what is left of the current slab of keys and values, nodes and
	// links of the current slabs of nodes and tower links. A slab is
	// never reused; the collector frees it with the memtable, so what
	// Get and iterators return stays valid for as long as it is held.
	bytes []byte
	nodes []node
	links []atomic.Pointer[node]
}

// Slab sizes. A slab's unused end is heap that ApproximateSize does not
// count, so they are small next to a memtable; and the largest is still
// a small object to the runtime, cheap for the one Add in thirty that
// takes it.
const (
	slabBytes = 32 << 10
	slabNodes = 128
	slabLinks = 256
)

// New creates an empty memtable. The seed makes skiplist tower
// heights deterministic for reproducible experiments.
func New(seed int64) *MemTable {
	m := &MemTable{rnd: rand.New(rand.NewSource(seed))}
	m.height.Store(1)
	m.head = m.newNode(maxHeight)
	return m
}

// alloc returns n bytes of slab. An entry that would take a quarter of
// a slab or more gets an object of its own and wastes nothing.
func (m *MemTable) alloc(n int) []byte {
	if n > len(m.bytes) {
		if n >= slabBytes/4 {
			return make([]byte, n)
		}
		m.bytes = make([]byte, slabBytes)
	}
	b := m.bytes[:n:n]
	m.bytes = m.bytes[n:]
	return b
}

// newNode returns a node with a tower of h links.
func (m *MemTable) newNode(h int) *node {
	if len(m.nodes) == 0 {
		m.nodes = make([]node, slabNodes)
	}
	if len(m.links) < h {
		m.links = make([]atomic.Pointer[node], slabLinks)
	}
	n := &m.nodes[0]
	n.next = m.links[:h:h]
	m.nodes, m.links = m.nodes[1:], m.links[h:]
	return n
}

func (m *MemTable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rnd.Intn(branching) == 0 {
		h++
	}
	return h
}

// findLessThan returns the rightmost node whose key is < target, or
// nil when no such node exists.
func (m *MemTable) findLessThan(target kv.InternalKey) *node {
	x := m.head
	level := int(m.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && kv.CompareInternal(next.key, target) < 0 {
			x = next
			continue
		}
		if level == 0 {
			if x == m.head {
				return nil
			}
			return x
		}
		level--
	}
}

// findLast returns the final node of the list, or nil when empty.
func (m *MemTable) findLast() *node {
	x := m.head
	level := int(m.height.Load()) - 1
	for {
		if next := x.next[level].Load(); next != nil {
			x = next
			continue
		}
		if level == 0 {
			if x == m.head {
				return nil
			}
			return x
		}
		level--
	}
}

// findGreaterOrEqual returns the first node with key >= target, and
// fills prev (when non-nil) with the rightmost node before target at
// every level.
func (m *MemTable) findGreaterOrEqual(target kv.InternalKey, prev []*node) *node {
	x := m.head
	level := int(m.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && kv.CompareInternal(next.key, target) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// Add inserts a mutation. Keys are copied; the caller may reuse its
// buffers. Adds must not run concurrently with each other; Get and
// iterators may run alongside.
func (m *MemTable) Add(seq kv.SeqNum, kind kv.Kind, ukey, value []byte) {
	buf := m.alloc(len(ukey) + kv.TrailerLen + len(value))
	ik := kv.MakeInternalKey(buf, ukey, seq, kind)
	var v []byte
	if len(value) > 0 {
		v = buf[len(ik):]
		copy(v, value)
	}
	var prev [maxHeight]*node
	m.findGreaterOrEqual(ik, prev[:])

	h := m.randomHeight()
	if height := int(m.height.Load()); h > height {
		for i := height; i < h; i++ {
			prev[i] = m.head
		}
		// A reader that sees the new height before the head links at it
		// finds nil there and drops a level: harmless.
		m.height.Store(int32(h))
	}
	n := m.newNode(h)
	n.key, n.value = ik, v
	for i := 0; i < h; i++ {
		n.next[i].Store(prev[i].next[i].Load())
		prev[i].next[i].Store(n) // publishes n to readers at level i
	}
	m.count++
	m.size += int64(len(ik)) + int64(len(v)) + int64(h)*8 + 48
}

// Get looks up ukey at snapshot seq. It returns the value and ok=true
// for a live entry, ok=true with deleted=true for a tombstone, and
// ok=false when the memtable holds nothing visible for the key.
func (m *MemTable) Get(ukey []byte, seq kv.SeqNum) (value []byte, deleted, ok bool) {
	var buf [64]byte
	search := kv.MakeSearchKey(buf[:0], ukey, seq)
	n := m.findGreaterOrEqual(search, nil)
	if n == nil || kv.CompareUser(n.key.UserKey(), ukey) != 0 {
		return nil, false, false
	}
	if n.key.Kind() == kv.KindDelete {
		return nil, true, true
	}
	return n.value, false, true
}

// ApproximateSize returns the memory consumed by entries, used to
// decide when to rotate the memtable.
func (m *MemTable) ApproximateSize() int64 { return m.size }

// Len returns the number of entries.
func (m *MemTable) Len() int { return m.count }

// Empty reports whether the memtable holds no entries.
func (m *MemTable) Empty() bool { return m.count == 0 }

// NewIterator returns an iterator over the skiplist. The iterator
// observes entries added after its creation (readers filter them by
// sequence number, as with LevelDB's memtable).
func (m *MemTable) NewIterator() kv.Iterator { return m.NewIteratorIn(new(Iter)) }

// NewIteratorIn is NewIterator in it, the caller's storage. A zero Iter
// holds no memtable.
func (m *MemTable) NewIteratorIn(it *Iter) kv.Iterator {
	*it = Iter{m: m}
	return it
}

// Iter is the storage of a memtable iterator.
type Iter struct {
	m *MemTable
	n *node
}

func (it *Iter) Valid() bool { return it.n != nil }

func (it *Iter) SeekToFirst() { it.n = it.m.head.next[0].Load() }

func (it *Iter) Seek(target kv.InternalKey) {
	it.n = it.m.findGreaterOrEqual(target, nil)
}

func (it *Iter) SeekToLast() { it.n = it.m.findLast() }

func (it *Iter) Next() { it.n = it.n.next[0].Load() }

// Prev steps back by searching for the predecessor of the current
// key — O(log n) per step, the standard cost of a singly linked
// skiplist, exactly as LevelDB's memtable iterator works.
func (it *Iter) Prev() { it.n = it.m.findLessThan(it.n.key) }

func (it *Iter) Key() kv.InternalKey { return it.n.key }

func (it *Iter) Value() []byte { return it.n.value }

func (it *Iter) Error() error { return nil }
