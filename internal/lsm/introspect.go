package lsm

import (
	"bytes"
	"fmt"
	"sort"

	"sealdb/internal/kv"
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

// ApproximateSize returns the table bytes whose key ranges intersect
// [lo, hi] (nil = unbounded), LevelDB's GetApproximateSizes. It is an
// upper estimate: a file partially in range counts fully.
func (d *DB) ApproximateSize(lo, hi []byte) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.vs.Current()
	var total int64
	for l := 0; l < d.cfg.NumLevels(); l++ {
		for _, f := range v.Overlaps(l, lo, hi, d.cfg.sortedLevel(l)) {
			total += f.Size
		}
	}
	return total
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
				if _, err := d.run(job{c: c}); err != nil {
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

// VerifyIntegrity walks the whole store and checks every invariant it
// can reach: table checksums and ordering, version metadata against
// table contents, set records against file placements, and (in
// SEALDB mode) dynamic-band space accounting against the drive's
// valid-extent map. It is the repository's fsck, used by tests and
// the CLI.
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
	for l := 0; l < d.cfg.NumLevels(); l++ {
		for _, f := range v.Files[l] {
			if err := d.verifyTable(l, f); err != nil {
				return err
			}
		}
	}
	if err := d.verifySets(v); err != nil {
		return err
	}
	if d.cfg.vlogEnabled() {
		if err := d.verifyVlog(v); err != nil {
			return err
		}
	}
	return d.verifyExtents()
}

// verifyVlog cross-checks key–value separation state: the manifest's
// segment records against each other, and every *serving* pointer — the
// newest visible version of its key — against the value log: the
// pointed-at record must decode, sit inside its segment's
// logical bytes, and carry the same user key; and the records served
// out of a segment must fit in the bytes its accounting still calls
// live (header, frames and charged-dead records excluded). Shadowed
// versions are exempt: GC repairs pointers by re-putting, so a
// superseded entry may reference a collected segment until compaction
// drops it. Caller holds d.mu.
func (d *DB) verifyVlog(v *version.Version) error {
	segs := map[uint64]version.VlogSeg{}
	unsealed := 0
	for _, s := range d.vlogSegs() {
		if s.Live() < 0 {
			return fmt.Errorf("vlog segment %d: dead bytes %d and overhead %d exceed total %d", s.Num, s.Dead, s.Overhead, s.Bytes)
		}
		if !s.Sealed {
			unsealed++
		}
		segs[s.Num] = s
	}
	if unsealed > 1 {
		return fmt.Errorf("vlog: %d unsealed segments in manifest, want at most one", unsealed)
	}

	serving := map[uint64]int64{} // segment → bytes of records the tree serves from it
	check := func(where string, ik kv.InternalKey, stored []byte) error {
		if ik.Kind() != kv.KindSet || len(stored) == 0 || stored[0] != vlogTagPtr {
			return nil
		}
		newest, kind, _, found, err := d.lookup(d.state.Load(), ik.UserKey(), d.seq, nil)
		if err != nil {
			return err
		}
		if !found || kind != kv.KindSet || !bytes.Equal(newest, stored) {
			return nil // shadowed version: its record may be collected
		}
		p, err := vlog.DecodePointer(stored[1:])
		if err != nil {
			return fmt.Errorf("%s key %s: %w", where, ik, err)
		}
		info, ok := segs[p.Seg]
		if !ok {
			return fmt.Errorf("%s key %s: pointer into unknown vlog segment %d", where, ik, p.Seg)
		}
		if end := int64(p.Off) + int64(p.Len); p.Off < vlog.HeaderSize || end > info.Bytes {
			return fmt.Errorf("%s key %s: pointer [%d,%d) outside the groups of segment %d, bytes [%d,%d)",
				where, ik, p.Off, end, p.Seg, vlog.HeaderSize, info.Bytes)
		}
		serving[p.Seg] += int64(p.Len)
		rkey, _, err := d.vlogRead(make([]byte, p.Len), p)
		if err != nil {
			return fmt.Errorf("%s key %s: vlog segment %d offset %d: %w", where, ik, p.Seg, p.Off, err)
		}
		if !bytes.Equal(rkey, ik.UserKey()) {
			return fmt.Errorf("%s key %s: vlog record holds key %q", where, ik, rkey)
		}
		return nil
	}

	mi := d.mem.NewIterator()
	for mi.SeekToFirst(); mi.Valid(); mi.Next() {
		if err := check("memtable", mi.Key(), mi.Value()); err != nil {
			return err
		}
	}
	for l := 0; l < d.cfg.NumLevels(); l++ {
		for _, f := range v.Files[l] {
			t, err := d.openTable(f)
			if err != nil {
				return fmt.Errorf("L%d %s: %w", l, f, err)
			}
			it := t.NewIterator()
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if err := check(fmt.Sprintf("L%d %s", l, f), it.Key(), it.Value()); err != nil {
					return err
				}
			}
			if err := it.Error(); err != nil {
				return fmt.Errorf("L%d %s: %w", l, f, err)
			}
		}
	}
	for num, n := range serving {
		if info := segs[num]; n > info.Live() {
			return fmt.Errorf("vlog segment %d: the tree serves %d record bytes but only %d are accounted live (%d bytes, %d overhead, %d dead)",
				num, n, info.Live(), info.Bytes, info.Overhead, info.Dead)
		}
	}
	return nil
}

// verifyTable scans one table, checking block CRCs (implicitly),
// internal ordering, and the metadata bounds. Caller holds d.mu.
func (d *DB) verifyTable(level int, f *version.FileMeta) error {
	t, err := d.openTable(f)
	if err != nil {
		return fmt.Errorf("L%d %s: %w", level, f, err)
	}
	it := t.NewIterator()
	var prev kv.InternalKey
	entries := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		if prev != nil && kv.CompareInternal(prev, ik) >= 0 {
			return fmt.Errorf("L%d %s: keys out of order at entry %d", level, f, entries)
		}
		if entries == 0 && kv.CompareInternal(ik, f.Smallest) != 0 {
			return fmt.Errorf("L%d %s: first key %s != smallest %s", level, f, ik, f.Smallest)
		}
		prev = append(prev[:0], ik...)
		entries++
	}
	if err := it.Error(); err != nil {
		return fmt.Errorf("L%d %s: %w", level, f, err)
	}
	if entries == 0 {
		return fmt.Errorf("L%d %s: empty table", level, f)
	}
	if kv.CompareInternal(prev, f.Largest) != 0 {
		return fmt.Errorf("L%d %s: last key %s != largest %s", level, f, prev, f.Largest)
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
// than long, and in SEALDB mode their total must equal exactly what the
// dynamic band manager has allocated (no leak) with none of them
// landing in its free space. Caller holds d.mu.
func (d *DB) verifyExtents() error {
	spans := d.ownedExtents()
	var total int64
	for i, sp := range spans {
		total += sp.len
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
	if alloc := mgr.AllocatedBytes(); total != alloc {
		return fmt.Errorf("extent accounting: %d bytes owned by files/sets but allocator holds %d (leak or double-free of %d)",
			total, alloc, alloc-total)
	}
	free := mgr.FreeRegions()
	for _, sp := range spans {
		for _, fr := range free {
			if sp.off < fr.Off+fr.Len && fr.Off < sp.end() {
				return fmt.Errorf("%s [%d,%d) overlaps allocator free region [%d,%d)",
					sp, sp.off, sp.end(), fr.Off, fr.Off+fr.Len)
			}
		}
	}
	return nil
}
