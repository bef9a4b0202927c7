// Package smr layers shingled-magnetic-recording semantics on top of
// a raw platter. Two device models are provided:
//
//   - FixedBandDrive divides the surface into fixed-size bands with a
//     per-band write pointer. Writes at the pointer stream through;
//     any other write triggers a read-modify-write of the band's
//     valid prefix, which is where the paper's auxiliary write
//     amplification (AWA) comes from.
//   - RawDrive is a Caveat-Scriptor-style drive: the host may write
//     anywhere, but a write at [s,e) destroys the following guard
//     window [e, e+guard), so the drive rejects any write whose span
//     or damage window touches valid data. There is no RMW, hence
//     AWA ≡ 1; safety is the host's job (package dband).
//
// Both models route all data through *platter.Disk, so bytes written
// are really stored and the simulated clock advances consistently.
package smr

import (
	"fmt"
	"sync"
	"time"

	"sealdb/internal/invariant"
	"sealdb/internal/platter"
)

// Drive is the device interface the storage backends program against.
type Drive interface {
	// WriteAt writes p at off and returns the simulated device time
	// consumed, including any internal read-modify-write.
	WriteAt(p []byte, off int64) (time.Duration, error)
	// ReadAt fills p from off.
	ReadAt(p []byte, off int64) (time.Duration, error)
	// Free tells the drive the extent no longer holds valid data.
	// Fixed-band drives ignore it (a drive-managed disk gets no
	// trim); the raw drive uses it to retire validity.
	Free(off, length int64) error
	// Guard returns the size of the damage window a write leaves
	// downstream (0 for drives without write-anywhere shingling
	// constraints). Hosts writing an extent incrementally must keep
	// this many bytes after it unoccupied.
	Guard() int64
	// Capacity is the addressable size in bytes.
	Capacity() int64
	// HostBytesWritten is the total payload the host has written.
	HostBytesWritten() int64
	// Disk exposes the underlying platter for stats and tracing.
	Disk() *platter.Disk
}

// AWA returns the auxiliary write amplification of a drive: device
// bytes physically written divided by host bytes written. It is 1.0
// for a drive that never rewrites data internally.
func AWA(d Drive) float64 {
	host := d.HostBytesWritten()
	if host == 0 {
		return 1
	}
	return float64(d.Disk().Stats().BytesWritten) / float64(host)
}

// ---------------------------------------------------------------------------
// Fixed-band drive

// FixedBandDrive emulates a conventional (drive-managed) SMR disk
// with fixed bands and a persistent media cache, the architecture
// the paper's §II-C describes: writes at a band's write pointer
// stream through; any other write lands in the media cache (a
// reserved region at the end of the surface) and is applied to its
// band later by a cleaning pass that reads the band's valid prefix
// and rewrites it with every cached write for that band merged in —
// one read-modify-write per dirty band, whose latency and write
// amplification surface on subsequent operations exactly as the
// paper's "bimodal behavior" of cached SMR drives.
type FixedBandDrive struct {
	disk     *platter.Disk
	bandSize int64
	// usable is the host-addressable capacity; the region beyond it
	// is the media cache.
	usable     int64
	cacheStart int64

	mu       sync.Mutex
	wp       []int64 // per-band write pointer (valid bytes from band start); guarded by mu
	host     int64   // host payload bytes written; guarded by mu
	rmws     int64   // number of band cleaning (read-modify-write) episodes; guarded by mu
	cachePos int64   // append cursor within the media cache region; guarded by mu

	buffered   map[int64][]bufWrite // band -> pending cached writes; guarded by mu
	dirtyOrder []int64              // bands in FIFO dirty order; guarded by mu
}

type bufWrite struct {
	off  int64 // absolute device offset
	data []byte
}

// maxDirtyBands bounds the media cache: when more bands are dirty,
// the oldest is cleaned. Small, like real drives under sustained
// random writes.
const maxDirtyBands = 4

// NewFixedBand creates a fixed-band drive over disk with the given
// band size. A slice at the end of the surface (1/32 of it, at least
// two bands) is reserved as the media cache; Capacity reports the
// remaining host-addressable space.
func NewFixedBand(disk *platter.Disk, bandSize int64) *FixedBandDrive {
	if bandSize <= 0 {
		panic("smr: non-positive band size")
	}
	cache := disk.Capacity() / 32
	if cache < 2*bandSize {
		cache = 2 * bandSize
	}
	usable := (disk.Capacity() - cache) / bandSize * bandSize
	if usable <= 0 {
		panic("smr: disk too small for band size plus media cache")
	}
	n := usable / bandSize
	return &FixedBandDrive{
		disk:       disk,
		bandSize:   bandSize,
		usable:     usable,
		cacheStart: usable,
		wp:         make([]int64, n),
		buffered:   make(map[int64][]bufWrite),
	}
}

// BandSize returns the fixed band size in bytes.
func (d *FixedBandDrive) BandSize() int64 { return d.bandSize }

// Guard implements Drive: a banded drive isolates bands with its own
// built-in guard regions, so host writes leave no damage window.
func (d *FixedBandDrive) Guard() int64 { return 0 }

// Capacity implements Drive: the host-addressable space, excluding
// the media cache region.
func (d *FixedBandDrive) Capacity() int64 { return d.usable }

// Disk implements Drive.
func (d *FixedBandDrive) Disk() *platter.Disk { return d.disk }

// HostBytesWritten implements Drive.
func (d *FixedBandDrive) HostBytesWritten() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.host
}

// CacheStart returns the raw-disk offset where the media-cache
// region begins. Physical accesses at or beyond this offset are
// media-cache traffic, not band-resident data — the tracer uses this
// to classify per-op I/O as cache hits.
func (d *FixedBandDrive) CacheStart() int64 { return d.cacheStart }

// RMWCount returns how many band read-modify-write episodes occurred.
func (d *FixedBandDrive) RMWCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rmws
}

// ReadAt implements Drive. Reads have no SMR constraints, but a read
// touching a band with pending cached writes forces that band to be
// cleaned first — the cache-cleaning latency readers observe on real
// DM-SMR drives.
func (d *FixedBandDrive) ReadAt(p []byte, off int64) (time.Duration, error) {
	d.mu.Lock()
	var total time.Duration
	if len(d.buffered) > 0 && len(p) > 0 {
		first := off / d.bandSize
		last := (off + int64(len(p)) - 1) / d.bandSize
		for b := first; b <= last; b++ {
			if _, dirty := d.buffered[b]; dirty {
				dt, err := d.cleanBand(b)
				total += dt
				if err != nil {
					d.mu.Unlock()
					return total, err
				}
			}
		}
	}
	d.mu.Unlock()
	dt, err := d.disk.ReadAt(p, off)
	return total + dt, err
}

// Free implements Drive. A drive-managed disk receives no trim
// information, so this is a no-op: write pointers stay high and later
// reuse of the space pays read-modify-write, exactly the behaviour
// the paper measures for LevelDB on SMR.
func (d *FixedBandDrive) Free(off, length int64) error { return nil }

// WriteAt implements Drive. The write is split on band boundaries and
// each segment is applied under the band's sequential-write rule.
func (d *FixedBandDrive) WriteAt(p []byte, off int64) (time.Duration, error) {
	if off < 0 || off+int64(len(p)) > d.usable {
		return 0, fmt.Errorf("smr: write [%d,%d) outside host capacity %d", off, off+int64(len(p)), d.usable)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var total time.Duration
	for len(p) > 0 {
		band := off / d.bandSize
		bandStart := band * d.bandSize
		inBand := off - bandStart
		n := int64(len(p))
		if rem := d.bandSize - inBand; n > rem {
			n = rem
		}
		dt, err := d.writeSegment(band, bandStart, inBand, p[:n])
		total += dt
		if err != nil {
			return total, err
		}
		p = p[n:]
		off += n
	}
	return total, nil
}

// writeSegment applies one intra-band write. Caller holds d.mu.
func (d *FixedBandDrive) writeSegment(band, bandStart, inBand int64, p []byte) (time.Duration, error) {
	n := int64(len(p))
	d.host += n
	wp := d.wp[band]
	if _, dirty := d.buffered[band]; !dirty {
		if inBand == wp {
			// Sequential append at the write pointer: stream through.
			dt, err := d.disk.WriteAt(p, bandStart+inBand)
			if err == nil {
				d.wp[band] = inBand + n
				if invariant.Enabled {
					invariant.Assert(d.wp[band] >= wp && d.wp[band] <= d.bandSize,
						"band %d write pointer %d not in [%d,%d]", band, d.wp[band], wp, d.bandSize)
				}
			}
			return dt, err
		}
		if inBand > wp {
			// Forward of the pointer: shingling only damages
			// downstream, so the drive streams forward from the
			// pointer, padding the gap with zeros in the same pass.
			pad := make([]byte, inBand-wp+n)
			copy(pad[inBand-wp:], p)
			dt, err := d.disk.WriteAt(pad, bandStart+wp)
			if err == nil {
				d.wp[band] = inBand + n
				if invariant.Enabled {
					invariant.Assert(d.wp[band] >= wp && d.wp[band] <= d.bandSize,
						"band %d write pointer %d not in [%d,%d]", band, d.wp[band], wp, d.bandSize)
				}
			}
			return dt, err
		}
	}

	// Behind the pointer (or the band already has cached writes):
	// stage the write in the media cache; a later cleaning pass
	// applies every cached write of the band in one read-modify-write.
	total, err := d.cacheAppend(p)
	if err != nil {
		return total, err
	}
	if _, dirty := d.buffered[band]; !dirty {
		d.dirtyOrder = append(d.dirtyOrder, band)
	}
	d.buffered[band] = append(d.buffered[band], bufWrite{off: bandStart + inBand, data: append([]byte(nil), p...)})
	if len(d.dirtyOrder) > maxDirtyBands {
		victim := d.dirtyOrder[0]
		dt, err := d.cleanBand(victim)
		total += dt
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// cacheAppend charges a sequential append into the media cache
// region. Caller holds d.mu.
func (d *FixedBandDrive) cacheAppend(p []byte) (time.Duration, error) {
	region := d.disk.Capacity() - d.cacheStart
	if d.cachePos+int64(len(p)) > region {
		d.cachePos = 0 // ring wrap; old entries were cleaned long ago
	}
	dt, err := d.disk.WriteAt(p, d.cacheStart+d.cachePos)
	if err == nil {
		d.cachePos += int64(len(p))
	}
	return dt, err
}

// cleanBand applies a band's cached writes with one read-modify-write
// of its valid prefix. Caller holds d.mu.
func (d *FixedBandDrive) cleanBand(band int64) (time.Duration, error) {
	writes := d.buffered[band]
	delete(d.buffered, band)
	for i, b := range d.dirtyOrder {
		if b == band {
			d.dirtyOrder = append(d.dirtyOrder[:i], d.dirtyOrder[i+1:]...)
			break
		}
	}
	if len(writes) == 0 {
		return 0, nil
	}
	d.rmws++
	bandStart := band * d.bandSize
	wp := d.wp[band]
	newLen := wp
	for _, w := range writes {
		if end := w.off + int64(len(w.data)) - bandStart; end > newLen {
			newLen = end
		}
	}
	var total time.Duration
	merged := make([]byte, newLen)
	if wp > 0 {
		dt, err := d.disk.ReadAt(merged[:wp], bandStart)
		total += dt
		if err != nil {
			return total, err
		}
	}
	for _, w := range writes {
		copy(merged[w.off-bandStart:], w.data)
	}
	dt, err := d.disk.WriteAt(merged, bandStart)
	total += dt
	if err != nil {
		return total, err
	}
	if invariant.Enabled {
		invariant.Assert(newLen >= wp && newLen <= d.bandSize,
			"band %d clean shrank or overflowed the band: %d not in [%d,%d]", band, newLen, wp, d.bandSize)
	}
	d.wp[band] = newLen
	return total, nil
}

// Flush cleans every dirty band (test hook and shutdown barrier).
func (d *FixedBandDrive) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.dirtyOrder) > 0 {
		if _, err := d.cleanBand(d.dirtyOrder[0]); err != nil {
			return err
		}
	}
	return nil
}

// ResetBand rewinds the write pointer of the given band to zero, the
// equivalent of a ZBC zone reset. A host-managed policy (e.g. the
// SMRDB baseline's dedicated bands) uses this to recycle a band for
// sequential rewriting without read-modify-write.
func (d *FixedBandDrive) ResetBand(band int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if band >= 0 && band < int64(len(d.wp)) {
		d.wp[band] = 0
		if _, dirty := d.buffered[band]; dirty {
			delete(d.buffered, band)
			for i, b := range d.dirtyOrder {
				if b == band {
					d.dirtyOrder = append(d.dirtyOrder[:i], d.dirtyOrder[i+1:]...)
					break
				}
			}
		}
	}
}

// WritePointer returns the write pointer of the band containing off,
// for tests and diagnostics.
func (d *FixedBandDrive) WritePointer(off int64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wp[off/d.bandSize]
}

// ---------------------------------------------------------------------------
// Raw (Caveat-Scriptor) drive

// OverlapError reports a host write that would destroy valid data.
type OverlapError struct {
	Off, Len int64 // attempted write
	Hit      Extent
}

func (e *OverlapError) Error() string {
	return fmt.Sprintf("smr: write [%d,%d) (plus guard) would destroy valid extent [%d,%d)",
		e.Off, e.Off+e.Len, e.Hit.Off, e.Hit.Off+e.Hit.Len)
}

// Extent is a half-open byte range [Off, Off+Len) on the device.
type Extent struct {
	Off, Len int64
}

// End returns the first byte past the extent.
func (e Extent) End() int64 { return e.Off + e.Len }

func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", e.Off, e.End()) }

// RawDrive is a primitive host-managed SMR drive with no physical
// bands: shingled tracks only. Writing [s,e) damages the following
// guard window, so the drive verifies that neither the written span
// nor its damage window intersects valid data, then marks the span
// valid. Free retires validity. No internal rewriting ever happens.
type RawDrive struct {
	disk  *platter.Disk
	guard int64

	mu    sync.Mutex
	valid extentSet // guarded by mu
	host  int64     // guarded by mu
}

// NewRaw creates a raw drive whose writes damage the guard bytes that
// follow them.
func NewRaw(disk *platter.Disk, guard int64) *RawDrive {
	if guard < 0 {
		panic("smr: negative guard")
	}
	return &RawDrive{disk: disk, guard: guard}
}

// Guard returns the damage-window size in bytes.
func (d *RawDrive) Guard() int64 { return d.guard }

// Capacity implements Drive.
func (d *RawDrive) Capacity() int64 { return d.disk.Capacity() }

// Disk implements Drive.
func (d *RawDrive) Disk() *platter.Disk { return d.disk }

// HostBytesWritten implements Drive.
func (d *RawDrive) HostBytesWritten() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.host
}

// ReadAt implements Drive.
func (d *RawDrive) ReadAt(p []byte, off int64) (time.Duration, error) {
	return d.disk.ReadAt(p, off)
}

// WriteAt implements Drive. The write and its damage window must not
// touch valid data; on success the written span becomes valid.
func (d *RawDrive) WriteAt(p []byte, off int64) (time.Duration, error) {
	n := int64(len(p))
	d.mu.Lock()
	span := Extent{Off: off, Len: n + d.guard}
	if end := off + span.Len; end > d.disk.Capacity() {
		// The damage window may run off the end of the surface; clip.
		span.Len = d.disk.Capacity() - off
	}
	if hit, ok := d.valid.intersect(span); ok {
		d.mu.Unlock()
		return 0, &OverlapError{Off: off, Len: n, Hit: hit}
	}
	d.valid.insert(Extent{Off: off, Len: n})
	d.host += n
	if invariant.Enabled && !d.valid.wellFormed() { // the message's arguments would allocate per write
		invariant.Assert(false, "raw drive validity set malformed after insert of [%d,%d)", off, off+n)
	}
	d.mu.Unlock()
	return d.disk.WriteAt(p, off)
}

// Free implements Drive: the host declares [off, off+length) invalid.
func (d *RawDrive) Free(off, length int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.valid.remove(Extent{Off: off, Len: length})
	if invariant.Enabled {
		invariant.Assert(d.valid.wellFormed(), "raw drive validity set malformed after free of [%d,%d)", off, off+length)
	}
	return nil
}

// ValidBytes returns the total number of valid bytes on the drive.
func (d *RawDrive) ValidBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.valid.total()
}

// ValidExtents returns a copy of the valid extents in address order.
func (d *RawDrive) ValidExtents() []Extent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Extent(nil), d.valid...)
}

// Unwrapper is implemented by drive middleware (retry layers, fault
// injectors) that wrap another Drive. Base follows the chain.
type Unwrapper interface {
	Unwrap() Drive
}

// Base returns the innermost Drive in a middleware chain: the first
// one that does not implement Unwrapper. Use it before asserting a
// concrete drive type (e.g. *FixedBandDrive), so observers and
// allocators keep working when the drive is wrapped.
func Base(d Drive) Drive {
	for {
		u, ok := d.(Unwrapper)
		if !ok {
			return d
		}
		inner := u.Unwrap()
		if inner == nil {
			return d
		}
		d = inner
	}
}
