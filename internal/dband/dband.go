// Package dband implements the paper's dynamic band management: a
// host-side space manager for a raw (write-anywhere, never-overlap)
// SMR surface.
//
// Data is normally appended at a frontier; free space recovered from
// dead sets is kept in a free-space list — a sorted array of
// doubly-linked lists where array element i holds regions of roughly
// i SSTable-size units — and a write of size S may be inserted into a
// free region of size ≥ S + guard, leaving at least one guard region
// of unwritten tracks between the insert and the valid data
// downstream of it (Equation 1 of the paper). Freed regions coalesce
// with their free neighbours, and free space that reaches the
// frontier folds back into it.
//
// The allocator never hands out overlapping extents and always
// preserves the guard invariant, so a store driving an smr.RawDrive
// through this manager never triggers an overlap error and incurs an
// auxiliary write amplification of exactly 1.
package dband

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"sealdb/internal/invariant"
	"sealdb/internal/obs"
	"sealdb/internal/smr"
)

// ErrNoSpace is returned when neither the free list nor the frontier
// can satisfy an allocation.
var ErrNoSpace = errors.New("dband: out of disk space")

// Extent is the drive's half-open byte range [Off, Off+Len).
type Extent = smr.Extent

// Stats counts allocator activity.
type Stats struct {
	Appends   int64 // allocations served at the frontier
	Inserts   int64 // allocations served from the free list
	Splits    int64 // inserts that left a usable remainder region
	Frees     int64
	Coalesces int64 // neighbour merges performed by Free
}

// region is a free-space region, a node of one class list.
type region struct {
	off, length int64
	prev, next  *region
	class       int
}

// Manager allocates extents on a raw SMR surface.
type Manager struct {
	// mu serializes allocator state; profiled as the
	// "dband_manager_mu" contention site. The obs wrapper's clock is
	// threaded from outside this package (obs.SetLockClock), keeping
	// dband inside the noclock determinism contract.
	mu obs.Mutex

	capacity int64
	unit     int64 // size-class granularity (one SSTable)
	guard    int64 // guard-region size reserved downstream of inserts

	frontier int64             // guarded by mu
	classes  []list            // classes[i]: regions with length in [i*unit, (i+1)*unit); last class open-ended; guarded by mu
	byStart  map[int64]*region // guarded by mu
	byEnd    map[int64]*region // keyed by region end offset; guarded by mu
	freeByte int64             // total bytes in the free list; guarded by mu

	stats Stats // guarded by mu

	checkScratch []*region // checkInvariants' region list, reused; guarded by mu
}

// list is an intrusive doubly-linked list of regions.
type list struct {
	head, tail *region
}

func (l *list) pushBack(r *region) {
	r.prev, r.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = r
	} else {
		l.head = r
	}
	l.tail = r
}

func (l *list) remove(r *region) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.tail = r.prev
	}
	r.prev, r.next = nil, nil
}

const maxClasses = 1 << 12

// New creates a manager for a surface of the given capacity. unit is
// the free-list size-class granularity (the paper aligns it with the
// SSTable size); guard is the guard-region size (Equation 1).
func New(capacity, unit, guard int64) *Manager {
	if capacity <= 0 || unit <= 0 || guard < 0 {
		panic("dband: invalid geometry")
	}
	n := capacity/unit + 2
	if n > maxClasses {
		n = maxClasses
	}
	m := &Manager{
		capacity: capacity,
		unit:     unit,
		guard:    guard,
		classes:  make([]list, n),
		byStart:  make(map[int64]*region),
		byEnd:    make(map[int64]*region),
	}
	m.mu.Profile("dband_manager_mu")
	return m
}

// Guard returns the guard-region size.
func (m *Manager) Guard() int64 { return m.guard }

// Capacity returns the managed capacity in bytes.
func (m *Manager) Capacity() int64 { return m.capacity }

// classOf maps a region length to its free-list size class.
// Caller holds m.mu.
func (m *Manager) classOf(length int64) int {
	c := int(length / m.unit)
	if c >= len(m.classes) {
		c = len(m.classes) - 1
	}
	return c
}

// addRegion links a new free region into the size-class lists and
// offset indexes. Caller holds m.mu.
func (m *Manager) addRegion(off, length int64) *region {
	r := &region{off: off, length: length, class: m.classOf(length)}
	m.classes[r.class].pushBack(r)
	m.byStart[off] = r
	m.byEnd[off+length] = r
	m.freeByte += length
	return r
}

// removeRegion unlinks a free region from the size-class lists and
// offset indexes. Caller holds m.mu.
func (m *Manager) removeRegion(r *region) {
	m.classes[r.class].remove(r)
	delete(m.byStart, r.off)
	delete(m.byEnd, r.off+r.length)
	m.freeByte -= r.length
}

// checkInvariants validates the allocator's internal accounting: each
// free region is filed in the class matching its length, indexed by
// both endpoints, disjoint from every other region, entirely below
// the frontier, and the region lengths sum to freeByte. It only does
// work under -tags sealdb_invariants. Caller holds m.mu.
func (m *Manager) checkInvariants() {
	if !invariant.Enabled {
		return
	}
	// Each Assert sits behind its own condition: its arguments would
	// allocate on every check.
	regions := m.checkScratch[:0]
	var sum int64
	for c := range m.classes {
		for r := m.classes[c].head; r != nil; r = r.next {
			if r.length <= 0 {
				invariant.Assert(false, "free region [%d,%d) has non-positive length", r.off, r.off+r.length)
			}
			if r.class != c || m.classOf(r.length) != c {
				invariant.Assert(false, "region [%d,%d) filed in class %d, expected %d", r.off, r.off+r.length, c, m.classOf(r.length))
			}
			if m.byStart[r.off] != r {
				invariant.Assert(false, "byStart[%d] does not point at its region", r.off)
			}
			if m.byEnd[r.off+r.length] != r {
				invariant.Assert(false, "byEnd[%d] does not point at its region", r.off+r.length)
			}
			if r.off+r.length > m.frontier {
				invariant.Assert(false, "free region [%d,%d) extends past the frontier %d", r.off, r.off+r.length, m.frontier)
			}
			regions = append(regions, r)
			sum += r.length
		}
	}
	if len(regions) != len(m.byStart) || len(regions) != len(m.byEnd) {
		invariant.Assert(false, "index sizes (byStart %d, byEnd %d) disagree with %d listed regions", len(m.byStart), len(m.byEnd), len(regions))
	}
	if sum != m.freeByte {
		invariant.Assert(false, "free-list bytes %d != freeByte counter %d", sum, m.freeByte)
	}
	if m.frontier < 0 || m.frontier > m.capacity {
		invariant.Assert(false, "frontier %d outside [0,%d]", m.frontier, m.capacity)
	}
	slices.SortFunc(regions, func(a, b *region) int { return cmp.Compare(a.off, b.off) })
	for i := 1; i < len(regions); i++ {
		prev, cur := regions[i-1], regions[i]
		if prev.off+prev.length > cur.off {
			invariant.Assert(false, "free regions [%d,%d) and [%d,%d) overlap", prev.off, prev.off+prev.length, cur.off, cur.off+cur.length)
		}
	}
	clear(regions)
	m.checkScratch = regions[:0]
}

// Alloc reserves an extent of exactly size bytes. It first searches
// the free list (binary search over the class array, then the class's
// list) for a region of at least size+guard bytes; failing that it
// appends at the frontier, where no guard is needed because nothing
// valid lies downstream. The returned bool reports whether the extent
// was inserted into reclaimed free space.
func (m *Manager) Alloc(size int64) (Extent, bool, error) {
	if size <= 0 {
		return Extent{}, false, fmt.Errorf("dband: invalid alloc size %d", size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if invariant.Enabled {
		defer m.checkInvariants()
	}

	need := size + m.guard
	if r := m.findFit(need); r != nil {
		m.removeRegion(r)
		ext := Extent{Off: r.off, Len: size}
		rem := r.length - size
		// rem >= guard by the fit condition. The remainder stays a
		// free region; the guard invariant holds because any future
		// insert into it again reserves size+guard, so the last
		// guard bytes upstream of the valid data at r.End() are
		// never written.
		m.addRegion(r.off+size, rem)
		m.stats.Inserts++
		if rem > m.guard {
			m.stats.Splits++
		}
		return ext, true, nil
	}

	if m.frontier+size > m.capacity {
		return Extent{}, false, ErrNoSpace
	}
	ext := Extent{Off: m.frontier, Len: size}
	m.frontier += size
	m.stats.Appends++
	return ext, false, nil
}

// findFit performs the free-list search: the first class whose floor
// can hold need is located with a binary search (sort.Search); the
// class list at the boundary class is scanned first-fit because its
// regions straddle need, while any region of a higher class fits by
// construction. Caller holds m.mu.
func (m *Manager) findFit(need int64) *region {
	k := m.classOf(need)
	// Boundary class (and the open-ended last class): first fit.
	for r := m.classes[k].head; r != nil; r = r.next {
		if r.length >= need {
			return r
		}
	}
	// Walk up the class array for the next non-empty class. Any
	// region of class c > k has length >= c*unit >= (k+1)*unit >
	// need, so its head fits by construction.
	for c := k + 1; c < len(m.classes); c++ {
		if r := m.classes[c].head; r != nil {
			return r
		}
	}
	return nil
}

// Free returns an extent to the manager, coalescing it with adjacent
// free regions and folding tail space back into the frontier.
func (m *Manager) Free(e Extent) {
	if e.Len <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if invariant.Enabled {
		defer m.checkInvariants()
	}
	m.stats.Frees++

	off, end := e.Off, e.End()
	if up := m.byEnd[off]; up != nil {
		m.removeRegion(up)
		off = up.off
		m.stats.Coalesces++
	}
	if down := m.byStart[end]; down != nil {
		m.removeRegion(down)
		end = down.off + down.length
		m.stats.Coalesces++
	}
	if end == m.frontier {
		// The freed run touches the not-yet-banded residual space:
		// pull the frontier back instead of keeping a region.
		m.frontier = off
		return
	}
	m.addRegion(off, end-off)
}

// Stats returns a snapshot of the activity counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Frontier returns the current append frontier (the start of the
// residual, never-written space).
func (m *Manager) Frontier() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frontier
}

// FreeBytes returns the total bytes held in the free list (excluding
// the residual space past the frontier).
func (m *Manager) FreeBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.freeByte
}

// FreeRegions returns the free-list regions sorted by offset.
func (m *Manager) FreeRegions() []Extent {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Extent, 0, len(m.byStart))
	for _, r := range m.byStart {
		out = append(out, Extent{Off: r.off, Len: r.length})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// Bands returns the dynamic bands currently on the surface: the
// maximal allocated runs between free regions within [0, frontier).
// This is the data Figure 13 of the paper plots.
func (m *Manager) Bands() []Extent {
	free := m.FreeRegions()
	m.mu.Lock()
	frontier := m.frontier
	m.mu.Unlock()
	var bands []Extent
	pos := int64(0)
	for _, f := range free {
		if f.Off > pos {
			bands = append(bands, Extent{Off: pos, Len: f.Off - pos})
		}
		pos = f.End()
	}
	if frontier > pos {
		bands = append(bands, Extent{Off: pos, Len: frontier - pos})
	}
	return bands
}

// FragmentBytes sums the free regions smaller than threshold — the
// hard-to-reuse fragments the paper's §IV-C cost analysis reports.
func (m *Manager) FragmentBytes(threshold int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t int64
	for _, r := range m.byStart {
		if r.length < threshold {
			t += r.length
		}
	}
	return t
}

// AllocatedBytes returns frontier minus free-list bytes: the bytes
// currently reserved by live extents (including unreclaimable guard
// remainders still inside the free list are *not* counted).
func (m *Manager) AllocatedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frontier - m.freeByte
}

// FragProfile summarizes free-space fragmentation on the surface at
// one instant: how many holes the free list holds, how much of the
// free space sits in the single largest hole, where the append
// frontier is, and a 0–1 fragmentation index. The index is
// 1 − largest/free: 0 when the free space is one contiguous run (or
// there is none at all), approaching 1 as the free bytes shatter into
// many equally-useless holes.
type FragProfile struct {
	Holes       int     `json:"holes"`
	FreeBytes   int64   `json:"free_bytes"`
	LargestFree int64   `json:"largest_free"`
	Frontier    int64   `json:"frontier"`
	Capacity    int64   `json:"capacity"`
	Index       float64 `json:"index"`
}

// FragProfile computes the fragmentation profile under one lock hold,
// so the hole count, byte totals and frontier are mutually consistent.
func (m *Manager) FragProfile() FragProfile {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := FragProfile{
		Holes:     len(m.byStart),
		FreeBytes: m.freeByte,
		Frontier:  m.frontier,
		Capacity:  m.capacity,
	}
	for _, r := range m.byStart {
		if r.length > p.LargestFree {
			p.LargestFree = r.length
		}
	}
	if p.FreeBytes > 0 {
		p.Index = 1 - float64(p.LargestFree)/float64(p.FreeBytes)
	}
	return p
}
