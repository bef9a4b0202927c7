package version

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"sealdb/internal/kv"
	"sealdb/internal/storage"
)

// Edit is a delta applied to a Version and logged to the MANIFEST.
type Edit struct {
	HasLogNum   bool
	LogNum      uint64
	HasNextFile bool
	NextFileNum uint64
	HasLastSeq  bool
	LastSeq     kv.SeqNum

	CompactPointers []CompactPointer
	Deleted         []DeletedFile
	Added           []AddedFile

	// NewSets registers contiguously stored compaction-output groups
	// (the paper's sets); DropSets retires them once every member is
	// dead and the extent has been returned to the free-space list.
	NewSets  []SetRecord
	DropSets []uint64

	// NewVlogSegs registers value-log segments the moment they are
	// created — before any pointer into them can be acknowledged —
	// so recovery never finds a pointer whose segment the manifest
	// does not know. SealVlogSegs freezes a full segment at its
	// final length, making it a GC candidate; VlogDead carries the
	// dead-byte deltas that compaction drops charge to segments;
	// DropVlogSegs retires a collected segment.
	NewVlogSegs  []uint64
	SealVlogSegs []VlogSegRecord
	VlogDead     []VlogDeadRecord
	DropVlogSegs []uint64

	// VlogHead is the value log's replay head: where recovery starts
	// scanning for batches the value log, not the WAL, made durable.
	// It is to the value log what LogNum is to the WAL and travels
	// with LastSeq — every group at or after it is newer than the
	// edit's LastSeq.
	HasVlogHead bool
	VlogHead    VlogPos
}

// VlogPos is a position in the value log: a segment and a group
// boundary inside it. The zero value precedes every segment.
type VlogPos struct {
	Seg uint64
	Off int64
}

// VlogSegRecord seals a value-log segment at its final length.
// Overhead is the part of Bytes that is header and commit frames,
// which no pointer references; the collector leaves it out of its
// dead ratio.
type VlogSegRecord struct {
	Num      uint64
	Bytes    int64
	Overhead int64
}

// VlogDeadRecord charges dead bytes to a value-log segment. In an
// incremental edit Dead is a delta; in a manifest snapshot it is the
// absolute count (a delta applied to a fresh version). Dropped names the
// records whose last tree entry a compaction dropped, by their bits in
// the segment's bitmap (Set.VlogDropped): it is never encoded, so the
// bitmap lives only as long as the Set.
type VlogDeadRecord struct {
	Num     uint64
	Dead    int64
	Dropped []uint64
}

// VlogDrops gathers what a compaction's drops kill in the value log, per
// segment: the dropped records' bytes and bits.
type VlogDrops map[uint64]*VlogDeadRecord

// Add charges a dropped record of n bytes, whose bit is bit, to segment
// num.
func (d *VlogDrops) Add(num, bit uint64, n int64) {
	if *d == nil {
		*d = VlogDrops{}
	}
	r := (*d)[num]
	if r == nil {
		r = &VlogDeadRecord{Num: num}
		(*d)[num] = r
	}
	r.Dead += n
	r.Dropped = append(r.Dropped, bit)
}

// Records returns the edit records carrying the drops, in segment order.
func (d VlogDrops) Records() []VlogDeadRecord {
	recs := make([]VlogDeadRecord, 0, len(d))
	for _, r := range d {
		recs = append(recs, *r)
	}
	slices.SortFunc(recs, func(a, b VlogDeadRecord) int { return cmp.Compare(a.Num, b.Num) })
	return recs
}

// SetRecord describes a set: a group of SSTables written back to back
// in one extent. Members counts the files originally in the group;
// the live subset is derived from FileMeta.SetID references.
type SetRecord struct {
	ID      uint64
	Off     int64
	Len     int64
	Members int
}

// Extent returns the set's group extent.
func (r SetRecord) Extent() storage.Extent { return storage.Extent{Off: r.Off, Len: r.Len} }

// CompactPointer remembers where round-robin victim selection left
// off in a level.
type CompactPointer struct {
	Level int
	Key   kv.InternalKey
}

// DeletedFile names a file removed from a level.
type DeletedFile struct {
	Level int
	Num   uint64
}

// AddedFile places a file in a level.
type AddedFile struct {
	Level int
	Meta  *FileMeta
}

// Manifest record tags.
const (
	tagLogNum         = 1
	tagNextFileNum    = 2
	tagLastSeq        = 3
	tagCompactPointer = 4
	tagDeletedFile    = 5
	tagAddedFile      = 6
	tagNewSet         = 7
	tagDropSet        = 8
	tagNewVlogSeg     = 9
	tagSealVlogSeg    = 10
	tagVlogDead       = 11
	tagDropVlogSeg    = 12
	tagVlogHead       = 13
	tagVlogOverhead   = 14
)

// Encode serializes the edit as one manifest record.
func (e *Edit) Encode() []byte {
	var b []byte
	putUvarint := func(v uint64) { b = binary.AppendUvarint(b, v) }
	putBytes := func(p []byte) {
		putUvarint(uint64(len(p)))
		b = append(b, p...)
	}
	if e.HasLogNum {
		putUvarint(tagLogNum)
		putUvarint(e.LogNum)
	}
	if e.HasNextFile {
		putUvarint(tagNextFileNum)
		putUvarint(e.NextFileNum)
	}
	if e.HasLastSeq {
		putUvarint(tagLastSeq)
		putUvarint(uint64(e.LastSeq))
	}
	for _, cp := range e.CompactPointers {
		putUvarint(tagCompactPointer)
		putUvarint(uint64(cp.Level))
		putBytes(cp.Key)
	}
	for _, d := range e.Deleted {
		putUvarint(tagDeletedFile)
		putUvarint(uint64(d.Level))
		putUvarint(d.Num)
	}
	for _, a := range e.Added {
		putUvarint(tagAddedFile)
		putUvarint(uint64(a.Level))
		putUvarint(a.Meta.Num)
		putUvarint(uint64(a.Meta.Size))
		putUvarint(a.Meta.SetID)
		putBytes(a.Meta.Smallest)
		putBytes(a.Meta.Largest)
	}
	for _, s := range e.NewSets {
		putUvarint(tagNewSet)
		putUvarint(s.ID)
		putUvarint(uint64(s.Off))
		putUvarint(uint64(s.Len))
		putUvarint(uint64(s.Members))
	}
	for _, id := range e.DropSets {
		putUvarint(tagDropSet)
		putUvarint(id)
	}
	for _, num := range e.NewVlogSegs {
		putUvarint(tagNewVlogSeg)
		putUvarint(num)
	}
	for _, s := range e.SealVlogSegs {
		putUvarint(tagSealVlogSeg)
		putUvarint(s.Num)
		putUvarint(uint64(s.Bytes))
		// A record of its own, after the seal it completes: the seal
		// record keeps the shape format-1 manifests gave it, so opening
		// one of those still reaches the segment-header check.
		putUvarint(tagVlogOverhead)
		putUvarint(uint64(s.Overhead))
	}
	for _, d := range e.VlogDead {
		putUvarint(tagVlogDead)
		putUvarint(d.Num)
		putUvarint(uint64(d.Dead))
	}
	for _, num := range e.DropVlogSegs {
		putUvarint(tagDropVlogSeg)
		putUvarint(num)
	}
	if e.HasVlogHead {
		putUvarint(tagVlogHead)
		putUvarint(e.VlogHead.Seg)
		putUvarint(uint64(e.VlogHead.Off))
	}
	return b
}

// DecodeEdit parses a manifest record.
func DecodeEdit(p []byte) (*Edit, error) {
	e := &Edit{}
	d := &decoder{p: p}
	for d.err == nil && d.pos < len(p) {
		switch tag := d.uvarint(); tag {
		case tagLogNum:
			e.HasLogNum, e.LogNum = true, d.uvarint()
		case tagNextFileNum:
			e.HasNextFile, e.NextFileNum = true, d.uvarint()
		case tagLastSeq:
			e.HasLastSeq, e.LastSeq = true, kv.SeqNum(d.uvarint())
		case tagCompactPointer:
			e.CompactPointers = append(e.CompactPointers, CompactPointer{Level: int(d.uvarint()), Key: d.bytes()})
		case tagDeletedFile:
			e.Deleted = append(e.Deleted, DeletedFile{Level: int(d.uvarint()), Num: d.uvarint()})
		case tagAddedFile:
			e.Added = append(e.Added, AddedFile{Level: int(d.uvarint()), Meta: &FileMeta{
				Num: d.uvarint(), Size: d.int64(), SetID: d.uvarint(), Smallest: d.bytes(), Largest: d.bytes(),
			}})
		case tagNewSet:
			e.NewSets = append(e.NewSets, SetRecord{ID: d.uvarint(), Off: d.int64(), Len: d.int64(), Members: int(d.uvarint())})
		case tagDropSet:
			e.DropSets = append(e.DropSets, d.uvarint())
		case tagNewVlogSeg:
			e.NewVlogSegs = append(e.NewVlogSegs, d.uvarint())
		case tagSealVlogSeg:
			e.SealVlogSegs = append(e.SealVlogSegs, VlogSegRecord{Num: d.uvarint(), Bytes: d.int64()})
		case tagVlogDead:
			e.VlogDead = append(e.VlogDead, VlogDeadRecord{Num: d.uvarint(), Dead: d.int64()})
		case tagDropVlogSeg:
			e.DropVlogSegs = append(e.DropVlogSegs, d.uvarint())
		case tagVlogOverhead:
			overhead := d.int64()
			if len(e.SealVlogSegs) == 0 {
				d.fail(fmt.Errorf("version: vlog overhead record without a seal before it"))
			} else {
				e.SealVlogSegs[len(e.SealVlogSegs)-1].Overhead = overhead
			}
		case tagVlogHead:
			e.HasVlogHead, e.VlogHead = true, VlogPos{Seg: d.uvarint(), Off: d.int64()}
		default:
			d.fail(fmt.Errorf("version: unknown manifest tag %d", tag))
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return e, nil
}

// decoder reads the fields of a manifest record. It keeps the first
// error: after it every read returns zero and consumes nothing, so a
// record is checked once, at its end. Fields of one composite literal
// are read in the order written (Go evaluates its calls left to right).
type decoder struct {
	p   []byte
	pos int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("version: truncated varint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) int64() int64 { return int64(d.uvarint()) }

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.p)-d.pos) {
		d.err = fmt.Errorf("version: truncated bytes at %d", d.pos)
		return nil
	}
	out := append([]byte(nil), d.p[d.pos:d.pos+int(n)]...)
	d.pos += int(n)
	return out
}

// Apply builds the successor version of v under this edit. Levels of
// added files must be < NumLevels.
func (e *Edit) Apply(v *Version) (*Version, error) {
	return e.apply(v, nil)
}

// apply is Apply that also stores each deleted file's metadata in
// deleted[i], for e.Deleted[i] (nil to skip). A level the edit does not
// touch is shared with v; a touched one is rebuilt once: v's files less
// the deleted ones, then the added ones, sorted.
func (e *Edit) apply(v *Version, deleted []*FileMeta) (*Version, error) {
	var dels, adds [NumLevels]int
	for _, d := range e.Deleted {
		if d.Level < 0 || d.Level >= NumLevels {
			return nil, fmt.Errorf("version: delete at bad level %d", d.Level)
		}
		dels[d.Level]++
	}
	for _, a := range e.Added {
		if a.Level < 0 || a.Level >= NumLevels {
			return nil, fmt.Errorf("version: add at bad level %d", a.Level)
		}
		adds[a.Level]++
	}
	nv := &Version{Files: v.Files}
	for l := range nv.Files {
		if dels[l] == 0 && adds[l] == 0 {
			continue
		}
		files := make([]*FileMeta, 0, len(v.Files[l])-dels[l]+adds[l])
		for _, f := range v.Files[l] {
			if i := e.deletes(l, f.Num); i >= 0 {
				if deleted != nil {
					deleted[i] = f
				}
				continue
			}
			files = append(files, f)
		}
		if len(files) != len(v.Files[l])-dels[l] {
			// A delete matched no file: name the first, or the file named twice.
			for _, d := range e.Deleted {
				if d.Level == l && !slices.ContainsFunc(v.Files[l], func(f *FileMeta) bool { return f.Num == d.Num }) {
					return nil, fmt.Errorf("version: deleting unknown file %d at L%d", d.Num, l)
				}
			}
			return nil, fmt.Errorf("version: edit deletes a file of L%d twice", l)
		}
		for _, a := range e.Added {
			if a.Level == l {
				files = append(files, a.Meta)
			}
		}
		if l == 0 {
			slices.SortStableFunc(files, func(a, b *FileMeta) int { return cmp.Compare(a.Num, b.Num) })
		} else {
			slices.SortStableFunc(files, func(a, b *FileMeta) int { return kv.CompareInternal(a.Smallest, b.Smallest) })
		}
		nv.Files[l] = files
	}
	return nv, nil
}

// deletes returns the index of the first e.Deleted entry naming file
// num at level, or -1.
func (e *Edit) deletes(level int, num uint64) int {
	for i, d := range e.Deleted {
		if d.Level == level && d.Num == num {
			return i
		}
	}
	return -1
}
