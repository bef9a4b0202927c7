// Package extfs is an ext4-flavoured extent allocator used by the
// LevelDB baseline. Files are carved from 4 KiB blocks with a
// first-fit policy over the holes left by deleted files; fresh space
// is taken from block groups in rotation, the way an aged ext4
// spreads a churning directory of files across the disk. The
// combination makes the SSTables of one compaction scatter across
// distant, previously used disk regions (the paper's Figure 2) and,
// on a fixed-band SMR drive, triggers band read-modify-writes (the
// paper's auxiliary write amplification).
package extfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"sealdb/internal/storage"
)

// BlockSize is the allocation granularity, matching ext4's default.
const BlockSize = 4096

// numGroups is how many block groups the surface is divided into.
const numGroups = 64

// ErrNoSpace is returned when neither a hole nor any group's fresh
// space can satisfy a request.
var ErrNoSpace = errors.New("extfs: out of disk space")

// Allocator is a first-fit extent allocator over block groups. It
// implements storage.Allocator.
type Allocator struct {
	mu        sync.Mutex
	capacity  int64
	groupSize int64
	frontiers []int64          // per-group frontier offset (absolute)
	holes     []storage.Extent // sorted by offset, disjoint, merged
	rr        int              // next group for fresh allocations

	allocs, reuses int64
}

// New creates an allocator over capacity bytes.
func New(capacity int64) *Allocator {
	if capacity <= 0 {
		panic("extfs: non-positive capacity")
	}
	gs := capacity / numGroups / BlockSize * BlockSize
	if gs < 64*BlockSize {
		gs = capacity // small surfaces get a single group
	}
	a := &Allocator{capacity: capacity, groupSize: gs}
	for off := int64(0); off < capacity; off += gs {
		a.frontiers = append(a.frontiers, off)
	}
	return a
}

func roundUp(n int64) int64 {
	return (n + BlockSize - 1) / BlockSize * BlockSize
}

// Alloc implements storage.Allocator: first fit over the holes, then
// fresh space from the groups in rotation.
func (a *Allocator) Alloc(size int64) (storage.Extent, error) {
	if size <= 0 {
		return storage.Extent{}, fmt.Errorf("extfs: invalid size %d", size)
	}
	need := roundUp(size)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.allocs++
	for i, h := range a.holes {
		if h.Len >= need {
			ext := storage.Extent{Off: h.Off, Len: need}
			if h.Len == need {
				a.holes = append(a.holes[:i], a.holes[i+1:]...)
			} else {
				a.holes[i] = storage.Extent{Off: h.Off + need, Len: h.Len - need}
			}
			a.reuses++
			return ext, nil
		}
	}
	return a.allocFreshLocked(need)
}

// allocFreshLocked takes fresh space from the next group (in
// rotation) that can hold the request. Caller holds a.mu.
func (a *Allocator) allocFreshLocked(need int64) (storage.Extent, error) {
	n := len(a.frontiers)
	for tries := 0; tries < n; tries++ {
		g := a.rr % n
		a.rr++
		end := a.groupEnd(g)
		if a.frontiers[g]+need <= end {
			ext := storage.Extent{Off: a.frontiers[g], Len: need}
			a.frontiers[g] += need
			return ext, nil
		}
	}
	return storage.Extent{}, ErrNoSpace
}

func (a *Allocator) groupEnd(g int) int64 {
	end := int64(g+1) * a.groupSize
	if end > a.capacity {
		end = a.capacity
	}
	return end
}

// AllocAppend implements storage.Allocator: logs grow in fresh space,
// as a file system's delayed allocation places a growing file.
func (a *Allocator) AllocAppend(size int64) (storage.Extent, error) {
	if size <= 0 {
		return storage.Extent{}, fmt.Errorf("extfs: invalid size %d", size)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.allocs++
	return a.allocFreshLocked(roundUp(size))
}

// Free implements storage.Allocator, merging the hole with adjacent
// holes and with its group's frontier.
func (a *Allocator) Free(e storage.Extent) {
	if e.Len <= 0 {
		return
	}
	e.Len = roundUp(e.Len)
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.holes), func(k int) bool { return a.holes[k].Off >= e.Off })
	// Merge with predecessor.
	if i > 0 && a.holes[i-1].End() == e.Off {
		e = storage.Extent{Off: a.holes[i-1].Off, Len: a.holes[i-1].Len + e.Len}
		i--
		a.holes = append(a.holes[:i], a.holes[i+1:]...)
	}
	// Merge with successor.
	if i < len(a.holes) && e.End() == a.holes[i].Off {
		e.Len += a.holes[i].Len
		a.holes = append(a.holes[:i], a.holes[i+1:]...)
	}
	// Fold into the group frontier when the hole reaches it.
	if g := int(e.Off / a.groupSize); g < len(a.frontiers) && e.End() == a.frontiers[g] {
		a.frontiers[g] = e.Off
		return
	}
	a.holes = append(a.holes, storage.Extent{})
	copy(a.holes[i+1:], a.holes[i:])
	a.holes[i] = e
}

// UsedBytes returns the bytes currently allocated.
func (a *Allocator) UsedBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var used int64
	for g, f := range a.frontiers {
		used += f - int64(g)*a.groupSize
	}
	for _, h := range a.holes {
		used -= h.Len
	}
	return used
}

// HighWater returns the highest allocated offset — the spatial
// footprint the paper's Figures 2/11 contrast.
func (a *Allocator) HighWater() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var hw int64
	for g, f := range a.frontiers {
		if f > int64(g)*a.groupSize {
			hw = f
		}
	}
	return hw
}

// Frontier returns the fresh-space frontier of group 0, for tests.
func (a *Allocator) Frontier() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.frontiers[0]
}

// HoleCount returns the number of free holes, for tests.
func (a *Allocator) HoleCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.holes)
}

// ReuseFraction returns the fraction of allocations served from
// holes rather than fresh space.
func (a *Allocator) ReuseFraction() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.allocs == 0 {
		return 0
	}
	return float64(a.reuses) / float64(a.allocs)
}

var _ storage.Allocator = (*Allocator)(nil)
