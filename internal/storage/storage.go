// Package storage binds an SMR drive to a placement policy and
// exposes the flat-blob interface the LSM engine programs against:
// numbered files written whole (SSTables), numbered append-only files
// (write-ahead logs), and contiguous file groups (the paper's sets).
//
// The store is "direct on disk": there is no file system, only the
// indirection table from file number to physical block address that
// the paper's §III-D describes.
package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sealdb/internal/obs"
	"sealdb/internal/smr"
)

// Extent is a half-open physical byte range on the drive.
type Extent struct {
	Off, Len int64
}

// End returns the first byte past the extent.
func (e Extent) End() int64 { return e.Off + e.Len }

func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", e.Off, e.End()) }

// Allocator is a placement policy over the drive's address space.
type Allocator interface {
	// Alloc reserves an extent of exactly size bytes.
	Alloc(size int64) (Extent, error)
	// AllocAppend reserves an extent for an append-only stream. A
	// policy may place these differently (e.g. always in fresh
	// space, as a file system places a growing log).
	AllocAppend(size int64) (Extent, error)
	// Free returns an extent to the policy. The dynamic-band policy
	// takes its manager lock, so Free nests like the Alloc calls.
	Free(e Extent)
}

// ErrNotFound is returned when a file number is unknown.
var ErrNotFound = errors.New("storage: file not found")

type fileInfo struct {
	ext     Extent
	size    int64 // logical size (bytes written); <= limit
	limit   int64 // writable bytes of the extent (excludes guard padding)
	grouped bool  // space owned by a group (set); freed via FreeExtent
}

// Backend is a numbered-blob store over a drive and an allocator.
// All methods are safe for concurrent use.
type Backend struct {
	drive smr.Drive
	alloc Allocator

	// writeMu serializes allocate+write pairs so that the write into
	// a frontier extent always happens before the next extent is
	// handed out; otherwise the damage window of a late write could
	// reach data already landed just past it. Profiled as the
	// "storage_write_mu" contention site; the obs wrapper's clock is
	// threaded from outside this package (obs.SetLockClock), keeping
	// storage inside the noclock determinism contract. Allocator
	// calls and the mapping-table lock both nest under it.
	writeMu obs.Mutex

	// mu guards the mapping table; profiled as "storage_backend_mu".
	mu    obs.Mutex
	files map[uint64]*fileInfo // guarded by mu
	stats BackendStats         // guarded by mu
}

// BackendStats counts backend activity: whole-blob writes, grouped
// (set) writes and removals.
type BackendStats struct {
	FilesWritten int64 `json:"files_written"`
	GroupWrites  int64 `json:"group_writes"`
	GroupBytes   int64 `json:"group_bytes"`
	Removes      int64 `json:"removes"`
}

// NewBackend creates a backend over the given drive and policy.
func NewBackend(drive smr.Drive, alloc Allocator) *Backend {
	b := &Backend{drive: drive, alloc: alloc, files: make(map[uint64]*fileInfo)}
	b.writeMu.Profile("storage_write_mu")
	b.mu.Profile("storage_backend_mu")
	return b
}

// Drive returns the underlying device.
func (b *Backend) Drive() smr.Drive { return b.drive }

// WriteFile stores data as file num in one extent and one device
// write. The file must not already exist.
func (b *Backend) WriteFile(num uint64, data []byte) error {
	b.mu.Lock()
	if _, dup := b.files[num]; dup {
		b.mu.Unlock()
		return fmt.Errorf("storage: file %d already exists", num)
	}
	b.mu.Unlock()

	b.writeMu.Lock()
	ext, err := b.alloc.Alloc(int64(len(data)))
	if err != nil {
		b.writeMu.Unlock()
		return err
	}
	_, werr := b.drive.WriteAt(data, ext.Off)
	b.writeMu.Unlock()
	if werr != nil {
		b.alloc.Free(ext)
		return werr
	}
	b.mu.Lock()
	b.files[num] = &fileInfo{ext: ext, size: int64(len(data)), limit: ext.Len}
	b.stats.FilesWritten++
	b.mu.Unlock()
	return nil
}

// WriteGroup stores the files of a set in one contiguous extent,
// writing them back to back in a single sequential pass, and returns
// the containing extent. The returned extent is owned by the caller's
// set record: removing a member file only forgets its mapping, and
// the space comes back via FreeExtent once the whole set is dead.
func (b *Backend) WriteGroup(nums []uint64, datas [][]byte) (Extent, error) {
	if len(nums) != len(datas) {
		return Extent{}, fmt.Errorf("storage: %d nums vs %d blobs", len(nums), len(datas))
	}
	var total int64
	for _, d := range datas {
		total += int64(len(d))
	}
	b.writeMu.Lock()
	group, err := b.alloc.Alloc(total)
	if err != nil {
		b.writeMu.Unlock()
		return Extent{}, err
	}

	off := group.Off
	for i, d := range datas {
		if _, err := b.drive.WriteAt(d, off); err != nil {
			b.writeMu.Unlock()
			// Unwind completely: forget the members already mapped and
			// retire the validity of what they wrote. The extent goes back
			// to the allocator only if the drive let go of it (valid on a
			// raw drive but free in the allocator, every later placement
			// there is refused); a dead drive leaves it allocated and
			// unowned for the next open's extent reconciliation.
			b.mu.Lock()
			for _, num := range nums[:i] {
				delete(b.files, num)
			}
			b.mu.Unlock()
			if b.drive.Free(group.Off, off-group.Off) == nil {
				b.alloc.Free(group)
			}
			return Extent{}, err
		}
		n := int64(len(d))
		b.mu.Lock()
		b.files[nums[i]] = &fileInfo{ext: Extent{Off: off, Len: n}, size: n, limit: n, grouped: true}
		b.mu.Unlock()
		off += n
	}
	b.writeMu.Unlock()
	b.mu.Lock()
	b.stats.GroupWrites++
	b.stats.GroupBytes += total
	b.mu.Unlock()
	return group, nil
}

// ReadFileAt implements random reads within file num. It may run
// beside appends to the same file (a reader chasing a value-log
// pointer into the active segment), so the size is read under mu.
func (b *Backend) ReadFileAt(num uint64, p []byte, off int64) (int, error) {
	n, _, err := b.readFileAt(num, p, off)
	return n, err
}

// readFileAt is ReadFileAt that also returns the device time the read took.
func (b *Backend) readFileAt(num uint64, p []byte, off int64) (int, time.Duration, error) {
	b.mu.Lock()
	fi, ok := b.files[num]
	var size int64
	if ok {
		size = fi.size
	}
	b.mu.Unlock()
	if !ok {
		return 0, 0, ErrNotFound
	}
	if off < 0 || off > size {
		return 0, 0, fmt.Errorf("storage: read at %d outside file %d (size %d)", off, num, size)
	}
	n := len(p)
	var eof error
	if int64(n) > size-off {
		n = int(size - off)
		eof = io.EOF
	}
	if n == 0 {
		return 0, 0, eof
	}
	dt, err := b.drive.ReadAt(p[:n], fi.ext.Off+off)
	if err != nil {
		return 0, dt, err
	}
	return n, dt, eof
}

// FileRecord is a snapshot of one file's mapping-table entry.
type FileRecord struct {
	Num     uint64
	Extent  Extent
	Size    int64
	Grouped bool
}

// Files returns a snapshot of the whole mapping table, unordered.
// Recovery uses it to sweep orphans and reconcile the allocator
// against the manifest.
func (b *Backend) Files() []FileRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]FileRecord, 0, len(b.files))
	for num, fi := range b.files {
		out = append(out, FileRecord{Num: num, Extent: fi.ext, Size: fi.size, Grouped: fi.grouped})
	}
	return out
}

// FileSize returns the logical size of file num.
func (b *Backend) FileSize(num uint64) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fi, ok := b.files[num]
	if !ok {
		return 0, ErrNotFound
	}
	return fi.size, nil
}

// FileExtent returns the physical placement of file num.
func (b *Backend) FileExtent(num uint64) (Extent, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fi, ok := b.files[num]
	if !ok {
		return Extent{}, ErrNotFound
	}
	return fi.ext, nil
}

// Remove deletes file num. For an individually allocated file the
// space is freed immediately; for a set member only the mapping is
// dropped (the group extent is freed when the set dies), implementing
// the paper's deferred victim reclamation.
func (b *Backend) Remove(num uint64) error {
	b.mu.Lock()
	fi, ok := b.files[num]
	if ok {
		delete(b.files, num)
		b.stats.Removes++
	}
	b.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	if !fi.grouped {
		b.alloc.Free(fi.ext)
		return b.drive.Free(fi.ext.Off, fi.ext.Len)
	}
	return nil
}

// ReplaceFile atomically replaces the contents of file num: the new
// data is written to a fresh extent first, the mapping is swapped
// only after that write succeeds, and then the old extent is freed.
// A crash between the steps leaves either the old or the new version
// fully intact — used for the CURRENT pointer, which must never be
// half-updated. Creates the file if it does not exist.
func (b *Backend) ReplaceFile(num uint64, data []byte) error {
	b.writeMu.Lock()
	ext, err := b.alloc.Alloc(int64(len(data)))
	if err != nil {
		b.writeMu.Unlock()
		return err
	}
	_, werr := b.drive.WriteAt(data, ext.Off)
	b.writeMu.Unlock()
	if werr != nil {
		b.alloc.Free(ext)
		return werr
	}
	b.mu.Lock()
	old := b.files[num]
	b.files[num] = &fileInfo{ext: ext, size: int64(len(data)), limit: ext.Len}
	b.stats.FilesWritten++
	b.mu.Unlock()
	if old != nil && !old.grouped {
		b.alloc.Free(old.ext)
		return b.drive.Free(old.ext.Off, old.ext.Len)
	}
	return nil
}

// FreeExtent returns raw space (a dead set's group extent) to the
// allocator and the drive.
func (b *Backend) FreeExtent(e Extent) error {
	b.alloc.Free(e)
	return b.drive.Free(e.Off, e.Len)
}

// Stats returns a snapshot of the backend activity counters.
func (b *Backend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// NumFiles returns how many files the backend tracks.
func (b *Backend) NumFiles() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.files)
}

// Handle returns an io.ReaderAt view of file num for the SSTable
// reader. The handle remains valid until the file is removed.
func (b *Backend) Handle(num uint64) *Handle {
	return &Handle{b: b, num: num}
}

// Handle adapts a backend file to io.ReaderAt and is the file's read
// clock: it adds up the device time of the reads made through it. The
// clock is in memory only and starts at zero with each handle, so a
// table reopened after a restart has read nothing.
type Handle struct {
	b      *Backend
	num    uint64
	readNS atomic.Int64
}

// ReadAt implements io.ReaderAt.
func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	n, dt, err := h.b.readFileAt(h.num, p, off)
	h.readNS.Add(int64(dt))
	return n, err
}

// ReadTime returns the device time of every read made through h so far;
// one atomic load, no lock.
func (h *Handle) ReadTime() time.Duration { return time.Duration(h.readNS.Load()) }

// ---------------------------------------------------------------------------
// Append files (write-ahead logs)

// AppendFile is a preallocated extent written strictly sequentially,
// used for WALs and the MANIFEST.
type AppendFile struct {
	b   *Backend
	num uint64

	mu    sync.Mutex
	ext   Extent
	limit int64
	pos   int64 // guarded by mu
}

// CreateAppend reserves maxSize bytes for an append-only file. On a
// write-anywhere SMR drive the reservation is padded with the drive's
// guard window, which is never written: incremental appends damage
// only that padding, never a neighbouring extent.
func (b *Backend) CreateAppend(num uint64, maxSize int64) (*AppendFile, error) {
	b.mu.Lock()
	if _, dup := b.files[num]; dup {
		b.mu.Unlock()
		return nil, fmt.Errorf("storage: file %d already exists", num)
	}
	b.mu.Unlock()
	b.writeMu.Lock()
	ext, err := b.alloc.AllocAppend(maxSize + b.drive.Guard())
	b.writeMu.Unlock()
	if err != nil {
		return nil, err
	}
	fi := &fileInfo{ext: ext, limit: maxSize}
	b.mu.Lock()
	b.files[num] = fi
	b.mu.Unlock()
	return &AppendFile{b: b, num: num, ext: ext, limit: maxSize}, nil
}

// Write appends p, growing the file's logical size.
func (f *AppendFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pos+int64(len(p)) > f.limit {
		return 0, fmt.Errorf("storage: append file %d full (%d + %d > %d)", f.num, f.pos, len(p), f.limit)
	}
	if _, err := f.b.drive.WriteAt(p, f.ext.Off+f.pos); err != nil {
		return 0, err
	}
	f.pos += int64(len(p))
	f.b.mu.Lock()
	if fi, ok := f.b.files[f.num]; ok {
		fi.size = f.pos
	}
	f.b.mu.Unlock()
	return len(p), nil
}

// Size returns the bytes appended so far.
func (f *AppendFile) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pos
}

// SealAppend ends all writes to append file num and returns everything
// of its extent past the last written byte — the unused reservation and
// the guard padding — to the allocator and the drive's validity map. A
// write placed there later damages only what lies downstream of it, so
// the file's bytes stay intact. Only a write-anywhere drive pads a
// reservation with a guard: on a banded drive the allocator frees whole
// bands, the file's live bytes included, so there the reservation stays.
func (b *Backend) SealAppend(num uint64) error {
	if b.drive.Guard() <= 0 {
		return nil
	}
	b.mu.Lock()
	fi, ok := b.files[num]
	if !ok {
		b.mu.Unlock()
		return ErrNotFound
	}
	tail := Extent{Off: fi.ext.Off + fi.size, Len: fi.ext.Len - fi.size}
	fi.ext.Len, fi.limit = fi.size, fi.size
	b.mu.Unlock()
	if tail.Len <= 0 {
		return nil
	}
	b.alloc.Free(tail)
	return b.drive.Free(tail.Off, tail.Len)
}

// ReadReserved reads append file num's whole reservation, ignoring its
// logical size: after a crash that size cannot be trusted, so recovery
// scans everything that may have reached the platter and lets record
// framing find the true end. An empty reservation is returned without
// touching the drive.
func (b *Backend) ReadReserved(num uint64) ([]byte, error) {
	b.mu.Lock()
	fi, ok := b.files[num]
	var off, limit int64
	if ok {
		off, limit = fi.ext.Off, fi.limit
	}
	b.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	buf := make([]byte, limit)
	if limit == 0 {
		return buf, nil
	}
	if _, err := b.drive.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReopenAppend resumes appends to file num at size, the end of its
// last whole record: it cuts the logical size back to size and retires
// the drive validity of everything past it, the guard padding included
// (freeing never-valid space is a no-op), so the writer can append over
// a torn tail without tripping the raw drive's overlap check.
func (b *Backend) ReopenAppend(num uint64, size int64) (*AppendFile, error) {
	b.mu.Lock()
	fi, ok := b.files[num]
	if !ok {
		b.mu.Unlock()
		return nil, ErrNotFound
	}
	if size < 0 || size > fi.limit {
		b.mu.Unlock()
		return nil, fmt.Errorf("storage: reopen of file %d at %d outside [0, %d]", num, size, fi.limit)
	}
	fi.size = size
	f := &AppendFile{b: b, num: num, ext: fi.ext, limit: fi.limit, pos: size}
	b.mu.Unlock()
	if err := b.drive.Free(f.ext.Off+size, f.ext.Len-size); err != nil {
		return nil, err
	}
	return f, nil
}
