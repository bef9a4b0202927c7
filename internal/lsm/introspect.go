package lsm

import (
	"bytes"
	"fmt"
	"sort"

	"sealdb/internal/kv"
	"sealdb/internal/sstable"
	"sealdb/internal/storage"
	"sealdb/internal/version"
	"sealdb/internal/vlog"
)

// LevelInfo describes one level of the tree.
type LevelInfo struct {
	Level int
	Files int
	Bytes int64
	// Target is the level's size limit (0 for level 0 and the last
	// level, which are bounded by file count and nothing).
	Target int64
}

// LevelProfile returns the current shape of the tree, shallowest
// level first.
func (d *DB) LevelProfile() []LevelInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.vs.Current()
	out := make([]LevelInfo, d.cfg.NumLevels())
	for l := 0; l < d.cfg.NumLevels(); l++ {
		out[l] = LevelInfo{Level: l, Files: v.NumFiles(l), Bytes: v.LevelBytes(l)}
		if l > 0 && l < d.cfg.NumLevels()-1 {
			out[l].Target = d.cfg.maxBytesForLevel(l)
		}
	}
	return out
}

// TableLocation reports where one live table file sits on the device:
// its level, file number, and physical extent. The chaos harness uses
// it to aim bit flips at real table bytes; debugging tools use it to
// map a journaled corruption offset back to a file.
type TableLocation struct {
	Level int    `json:"level"`
	Num   uint64 `json:"num"`
	Off   int64  `json:"off"`
	Len   int64  `json:"len"`
}

// TableLocations returns the physical placement of every live table,
// ordered by (level, file number). Files whose extent the backend
// cannot resolve (mid-deletion races) are skipped.
func (d *DB) TableLocations() []TableLocation {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.vs.Current()
	var out []TableLocation
	for l := 0; l < d.cfg.NumLevels(); l++ {
		files := append([]*version.FileMeta(nil), v.Files[l]...)
		sort.Slice(files, func(i, j int) bool { return files[i].Num < files[j].Num })
		for _, f := range files {
			ext, err := d.backend.FileExtent(f.Num)
			if err != nil {
				continue
			}
			out = append(out, TableLocation{Level: l, Num: f.Num, Off: ext.Off, Len: ext.Len})
		}
	}
	return out
}

// SetProfile summarizes the live sets: their members and the
// invalid-member backlog the set-priority GC works through.
type SetProfile struct {
	LiveSets       int
	LiveMembers    int
	TotalMembers   int
	InvalidMembers int
}

// SetProfile returns the summary (meaningful in the grouped modes;
// zero-valued otherwise).
func (d *DB) SetProfile() SetProfile {
	var p SetProfile
	for _, set := range d.vs.Sets() {
		p.LiveSets++
		p.LiveMembers += set.Live
		p.TotalMembers += set.Members
	}
	p.InvalidMembers = p.TotalMembers - p.LiveMembers
	return p
}

// CompactRange compacts every file whose user-key range intersects
// [lo, hi] down the tree until none of those levels exceed their
// targets and the range has reached the deepest populated level.
// Nil bounds mean unbounded. This is LevelDB's manual compaction,
// useful to settle a store before read benchmarks.
func (d *DB) CompactRange(lo, hi []byte) error {
	return d.maintain(func() error {
		if !d.mem.Empty() {
			if err := d.rotateAndFlush(d.cfg.walSize()); err != nil {
				return err
			}
		}
		for level := 0; level < d.cfg.NumLevels()-1; level++ {
			for {
				v := d.vs.Current()
				files := v.Overlaps(level, lo, hi, d.cfg.sortedLevel(level))
				if len(files) == 0 {
					break
				}
				c := d.buildCompaction(v, level, files)
				if err := d.run(job{c: c}); err != nil {
					return err
				}
				if c.trivial {
					continue // the file moved down; the next loop sees it there
				}
				break
			}
		}
		return d.drainJobs(1)
	})
}

// VerifyIntegrity, the repository's fsck, checks every invariant it can
// reach: table checksums and ordering, version metadata against table
// contents, set records against file placements, value-log segments
// against the pointers the tree serves, and (SEALDB) space accounting
// against the allocator and the drive. It reads the media, not the cache:
// tables whole as compaction does, segments whole as the collector does.
func (d *DB) VerifyIntegrity() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	v := d.vs.Current()
	if err := v.CheckInvariants(d.cfg.sortedLevel); err != nil {
		return fmt.Errorf("version: %w", err)
	}
	served := map[vlog.Pointer]string{}
	mi := d.mem.NewIterator()
	for mi.SeekToFirst(); mi.Valid(); mi.Next() {
		if err := d.noteServed(served, mi.Key(), mi.Value()); err != nil {
			return fmt.Errorf("memtable key %s: %w", mi.Key(), err)
		}
	}
	for l := 0; l < d.cfg.NumLevels(); l++ {
		for _, f := range v.Files[l] {
			if err := d.verifyTable(f, served); err != nil {
				return fmt.Errorf("L%d %s: %w", l, f, err)
			}
		}
	}
	if err := d.verifySets(v); err != nil {
		return err
	}
	if err := d.verifyVlog(served); err != nil {
		return err
	}
	return d.verifyExtents()
}

// verifyTable reads table f whole, as compaction does, checks its block
// CRCs, key order and metadata bounds, and notes in served each record it
// serves. Caller holds d.mu.
func (d *DB) verifyTable(f *version.FileMeta, served map[vlog.Pointer]string) error {
	_, bufs, err := d.readWhole([]*version.FileMeta{f})
	defer d.putBufs(bufs)
	if err != nil {
		return err
	}
	t, err := sstable.OpenBuilt(bufs[0], nil, f.Num, nil)
	if err != nil {
		return err
	}
	it := t.NewMemIterator(bufs[0])
	var prev kv.InternalKey
	entries := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		if prev != nil && kv.CompareInternal(prev, ik) >= 0 {
			return fmt.Errorf("keys out of order at entry %d", entries)
		}
		if entries == 0 && kv.CompareInternal(ik, f.Smallest) != 0 {
			return fmt.Errorf("first key %s != smallest %s", ik, f.Smallest)
		}
		if err := d.noteServed(served, ik, it.Value()); err != nil {
			return fmt.Errorf("key %s: %w", ik, err)
		}
		prev = append(prev[:0], ik...)
		entries++
	}
	if err := it.Error(); err != nil {
		return err
	}
	if entries == 0 || kv.CompareInternal(prev, f.Largest) != 0 {
		return fmt.Errorf("last of %d keys %s != largest %s", entries, prev, f.Largest)
	}
	return nil
}

// noteServed notes in served the value-log record stored points at, under
// its key, if stored is the key's newest visible version: GC repairs
// pointers by re-putting, so a shadowed one may name a collected segment
// until compaction drops it. Caller holds d.mu.
func (d *DB) noteServed(served map[vlog.Pointer]string, ik kv.InternalKey, stored []byte) error {
	if ik.Kind() != kv.KindPointer {
		return nil
	}
	newest, kind, _, found, err := d.lookup(d.state.Load(), ik.UserKey(), d.seq, nil)
	if err != nil || !found || kind != kv.KindPointer || !bytes.Equal(newest, stored) {
		return err
	}
	p, err := vlog.DecodePointer(stored)
	if err != nil {
		return err
	}
	if other, ok := served[p]; ok && other != string(ik.UserKey()) {
		return fmt.Errorf("keys %q and %q both point at %+v", other, ik.UserKey(), p)
	}
	served[p] = string(ik.UserKey())
	return nil
}

// verifyVlog checks the value log against the manifest and the tree: no
// segment is more dead than long and at most one is unsealed; the records
// served out of one fit in the bytes it accounts live (header, frames and
// charged-dead records excluded); each scans clean to its length, read
// whole as the collector reads it; and every served record is one a scan
// found, of the same key and length. Caller holds d.mu.
func (d *DB) verifyVlog(served map[vlog.Pointer]string) error {
	bytesServed := map[uint64]int64{}
	for p := range served {
		bytesServed[p.Seg] += int64(p.Len)
	}
	unsealed := 0
	for _, s := range d.vlogSegs() {
		if s.Live() < 0 {
			return fmt.Errorf("vlog segment %d: dead bytes %d and overhead %d exceed total %d", s.Num, s.Dead, s.Overhead, s.Bytes)
		}
		if n := bytesServed[s.Num]; n > s.Live() {
			return fmt.Errorf("vlog segment %d: the tree serves %d record bytes but only %d are accounted live (%d bytes, %d overhead, %d dead)",
				s.Num, n, s.Live(), s.Bytes, s.Overhead, s.Dead)
		}
		if !s.Sealed {
			unsealed++
		}
		if err := d.scanServed(s, served); err != nil {
			return fmt.Errorf("vlog segment %d: %w", s.Num, err)
		}
	}
	if unsealed > 1 {
		return fmt.Errorf("vlog: %d unsealed segments in manifest, want at most one", unsealed)
	}
	for p, key := range served {
		return fmt.Errorf("vlog: key %q points at %+v, where no record of a registered segment begins", key, p)
	}
	return nil
}

// scanServed reads segment s whole, scans it and deletes from served
// each record the scan finds there. Caller holds d.mu.
func (d *DB) scanServed(s version.VlogSeg, served map[vlog.Pointer]string) error {
	buf, err := d.vlogReadSealed(s.Num, d.tableBuf(s.Bytes)[:s.Bytes])
	if err != nil {
		return err
	}
	defer d.cache.PutBuf(buf)
	sc := vlog.NewScanner(s.Num, buf[vlog.HeaderSize:], vlog.HeaderSize)
	for sc.Next() {
		for _, r := range sc.Records() {
			if key, ok := served[r.Ptr]; ok && key != string(r.Key) {
				return fmt.Errorf("key %q points at the record of key %q at offset %d", key, r.Key, r.Ptr.Off)
			}
			delete(served, r.Ptr)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("does not scan clean to its length %d: %w", s.Bytes, err)
	}
	return nil
}

// verifySets cross-checks the manifest's sets — records and live
// counts — against the version's files, their placements, and the
// device state. Caller holds d.mu.
func (d *DB) verifySets(v *version.Version) error {
	records := d.vs.Sets()
	liveBysSet := map[uint64]version.SetInfo{} // recounted from the version
	for l := 0; l < d.cfg.NumLevels(); l++ {
		for _, f := range v.Files[l] {
			if f.SetID == 0 {
				continue
			}
			rec, ok := records[f.SetID]
			if !ok {
				return fmt.Errorf("set %d referenced by %s has no manifest record", f.SetID, f)
			}
			ext, err := d.backend.FileExtent(f.Num)
			if err != nil {
				return fmt.Errorf("set %d member %s: %w", f.SetID, f, err)
			}
			if ext.Off < rec.Off || ext.End() > rec.Off+rec.Len {
				return fmt.Errorf("set %d member %s extent %v outside set extent [%d,%d)",
					f.SetID, f, ext, rec.Off, rec.Off+rec.Len)
			}
			n := liveBysSet[f.SetID]
			n.Live, n.LiveBytes = n.Live+1, n.LiveBytes+ext.Len
			liveBysSet[f.SetID] = n
		}
	}
	for id, rec := range records {
		n := liveBysSet[id]
		if n.Live == 0 {
			return fmt.Errorf("set %d (members %d) has a record but no live members", id, rec.Members)
		}
		if n.Live != rec.Live || n.LiveBytes != rec.LiveBytes {
			return fmt.Errorf("set %d has %d live members in %d bytes of extents but the manifest state counts %d in %d", id, n.Live, n.LiveBytes, rec.Live, rec.LiveBytes)
		}
		if n.Live > rec.Members {
			return fmt.Errorf("set %d has %d live members > recorded total %d", id, n.Live, rec.Members)
		}
	}

	// Dynamic-band accounting: allocator state must reconcile with
	// the raw drive's validity map.
	if mgr := d.dev.DBand; mgr != nil {
		valid := d.dev.Raw.ValidBytes()
		if alloc := mgr.AllocatedBytes(); valid > alloc {
			return fmt.Errorf("drive holds %d valid bytes but allocator accounts only %d", valid, alloc)
		}
	}
	return nil
}

// ownedExtent is one extent the store owns on the device: an ungrouped
// file, a live set's group, or a dead set's group parked behind a read
// state. dead counts the bytes in it that are no longer logically live
// but not yet back with the allocator.
type ownedExtent struct {
	off, len, dead int64
	kind           ownedKind
	id             uint64 // file number or set id; unused for a parked group
}

type ownedKind uint8

const (
	ownedFile ownedKind = iota
	ownedSet
	ownedParked
)

func (e ownedExtent) end() int64 { return e.off + e.len }

func (e ownedExtent) String() string {
	switch e.kind {
	case ownedFile:
		return fmt.Sprintf("file %d", e.id)
	case ownedSet:
		return fmt.Sprintf("set %d", e.id)
	}
	return "pending reclaim"
}

// ownedExtents lists, in address order, every extent the store owns,
// each with the dead bytes its owner accounts for: an ungrouped backend
// file is live unless it is a value-log segment (its dead records plus,
// once sealed, the header and frames) or parked behind a read state
// (wholly dead); a live set's group is dead but for its live members'
// extents (invalidated members and guard slack); a dead set's group
// awaiting deferred reclamation is wholly dead. Recovery reconciles the
// allocator against it, fsck checks it for overlap and leaks, and the
// storage-surface views (surface.go) bucket it into bands. Caller holds
// d.mu.
func (d *DB) ownedExtents() []ownedExtent {
	parked := map[uint64]bool{}
	var spans []ownedExtent
	for _, s := range d.retiring {
		for _, num := range s.retired.Files {
			parked[num] = true
		}
		for _, set := range s.retired.Sets {
			spans = append(spans, ownedExtent{off: set.Off, len: set.Len, dead: set.Len, kind: ownedParked})
		}
	}
	for _, fr := range d.backend.Files() {
		if fr.Grouped {
			continue // covered by its set's extent, live or parked
		}
		e := ownedExtent{off: fr.Extent.Off, len: fr.Extent.Len, kind: ownedFile, id: fr.Num}
		if parked[fr.Num] {
			e.dead = e.len
		} else if seg, ok := d.vs.VlogSeg(fr.Num); ok {
			e.dead = seg.Dead + seg.Overhead // no overhead on record until the seal
		}
		spans = append(spans, e)
	}
	for id, set := range d.vs.Sets() {
		spans = append(spans, ownedExtent{off: set.Off, len: set.Len, dead: set.Len - set.LiveBytes, kind: ownedSet, id: id})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	return spans
}

// verifyExtents checks physical space accounting: every owned extent
// must be pairwise disjoint (no double allocation) and no more dead
// than long, and in SEALDB mode the owned extents must cover exactly
// what the dynamic band manager has allocated: none outside it (a
// double free) and no allocated run unowned (a leak). Caller holds d.mu.
func (d *DB) verifyExtents() error {
	spans := d.ownedExtents()
	for i, sp := range spans {
		if i > 0 && spans[i-1].end() > sp.off {
			return fmt.Errorf("extent overlap: %s [%d,%d) vs %s [%d,%d)",
				spans[i-1], spans[i-1].off, spans[i-1].end(), sp, sp.off, sp.end())
		}
		if sp.dead < 0 || sp.dead > sp.len {
			return fmt.Errorf("%s [%d,%d) has dead bytes %d outside [0,%d]", sp, sp.off, sp.end(), sp.dead, sp.len)
		}
	}
	mgr := d.dev.DBand
	if mgr == nil {
		return nil
	}
	leaks, stray := unownedRuns(mgr.Bands(), spans)
	if stray != nil {
		return fmt.Errorf("%s [%d,%d) lies outside the allocator's allocated space", stray, stray.off, stray.end())
	}
	if len(leaks) > 0 {
		return fmt.Errorf("extent accounting: the allocator holds [%d,%d) that no file or set owns (%d unowned runs)",
			leaks[0].Off, leaks[0].End(), len(leaks))
	}
	return nil
}

// unownedRuns walks bands, the allocator's maximal allocated runs, and
// owned (ownedExtents), both in address order, in one merge. It returns
// the allocated runs no owned extent covers, in address order, and the
// first owned extent that does not lie inside one band (nil if none).
// Recovery frees the runs; fsck fails on either.
func unownedRuns(bands []storage.Extent, owned []ownedExtent) (runs []storage.Extent, stray *ownedExtent) {
	j := 0
	for _, b := range bands {
		pos := b.Off
		for ; j < len(owned) && owned[j].off < b.End(); j++ {
			sp := &owned[j]
			if stray == nil && sp.off < b.Off {
				stray = sp // in free space, or reaching in from the band before
			}
			if sp.off > pos {
				runs = append(runs, storage.Extent{Off: pos, Len: sp.off - pos})
			}
			if pos = max(pos, sp.end()); pos > b.End() {
				break // the next band sees sp again
			}
		}
		if pos < b.End() {
			runs = append(runs, storage.Extent{Off: pos, Len: b.End() - pos})
		}
	}
	if stray == nil && j < len(owned) {
		stray = &owned[j]
	}
	return runs, stray
}
