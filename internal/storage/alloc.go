package storage

import (
	"errors"
	"fmt"
	"sync"

	"sealdb/internal/dband"
	"sealdb/internal/invariant"
	"sealdb/internal/smr"
)

// ErrNoSpace is returned when an allocator runs out of disk space.
var ErrNoSpace = errors.New("storage: out of disk space")

// ---------------------------------------------------------------------------
// Dedicated-band allocator (the SMRDB baseline's placement policy)

// BandAllocator assigns each file its own fixed-size band, as SMRDB
// does: SSTables are enlarged to the band size and every SSTable
// lives in a dedicated band, which is reset (write pointer rewound)
// when the SSTable is deleted so the band can be rewritten
// sequentially with no read-modify-write.
type BandAllocator struct {
	drive    *smr.FixedBandDrive
	bandSize int64

	mu       sync.Mutex
	nextBand int64   // guarded by mu
	freeList []int64 // recycled band indexes, LIFO; guarded by mu
}

// NewBandAllocator creates the policy over a fixed-band drive.
func NewBandAllocator(drive *smr.FixedBandDrive) *BandAllocator {
	return &BandAllocator{drive: drive, bandSize: drive.BandSize()}
}

// Alloc implements Allocator. A request up to one band comes from the
// recycle list or the frontier; a larger request (metadata files such
// as the MANIFEST) takes a run of consecutive fresh bands, which is
// still written strictly sequentially.
func (a *BandAllocator) Alloc(size int64) (Extent, error) {
	if size <= 0 {
		return Extent{}, fmt.Errorf("storage: band allocator: invalid size %d", size)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	nBands := (size + a.bandSize - 1) / a.bandSize
	var band int64
	if nBands == 1 && len(a.freeList) > 0 {
		n := len(a.freeList)
		band = a.freeList[n-1]
		a.freeList = a.freeList[:n-1]
	} else {
		if (a.nextBand+nBands)*a.bandSize > a.drive.Capacity() {
			return Extent{}, ErrNoSpace
		}
		band = a.nextBand
		a.nextBand += nBands
	}
	if invariant.Enabled {
		invariant.Assert(band >= 0 && (band+nBands)*a.bandSize <= a.drive.Capacity(),
			"band run [%d,%d) escapes the drive", band, band+nBands)
	}
	return Extent{Off: band * a.bandSize, Len: size}, nil
}

// AllocAppend implements Allocator; logs also get dedicated bands.
func (a *BandAllocator) AllocAppend(size int64) (Extent, error) {
	return a.Alloc(size)
}

// Free implements Allocator: every covered band is reset (a
// ZBC-style zone reset rewinding the write pointer) and recycled.
func (a *BandAllocator) Free(e Extent) {
	if e.Len <= 0 {
		return
	}
	first := e.Off / a.bandSize
	last := (e.End() - 1) / a.bandSize
	a.mu.Lock()
	for b := first; b <= last; b++ {
		a.drive.ResetBand(b)
		a.freeList = append(a.freeList, b)
	}
	a.mu.Unlock()
}

var _ Allocator = (*BandAllocator)(nil)

// ---------------------------------------------------------------------------
// Dynamic-band allocator (SEALDB's placement policy)

// DynamicBandAllocator adapts dband.Manager to the storage.Allocator
// interface. Frees feed the manager's free-space list and the drive's
// validity map through the backend.
type DynamicBandAllocator struct {
	m *dband.Manager
}

// NewDynamicBandAllocator wraps a dynamic band manager.
func NewDynamicBandAllocator(m *dband.Manager) *DynamicBandAllocator {
	return &DynamicBandAllocator{m: m}
}

// Alloc implements Allocator.
func (a *DynamicBandAllocator) Alloc(size int64) (Extent, error) {
	e, _, err := a.m.Alloc(size)
	return e, err
}

// AllocAppend implements Allocator.
func (a *DynamicBandAllocator) AllocAppend(size int64) (Extent, error) {
	return a.Alloc(size)
}

// Free implements Allocator.
func (a *DynamicBandAllocator) Free(e Extent) {
	a.m.Free(e)
}

var _ Allocator = (*DynamicBandAllocator)(nil)
