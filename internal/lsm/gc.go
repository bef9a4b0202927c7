package lsm

import (
	"fmt"

	"sealdb/internal/version"
)

// GCResult reports one DefragmentBands pass.
type GCResult struct {
	// SetsMoved is how many sets were relocated.
	SetsMoved int
	// BytesMoved is the live data rewritten to move them.
	BytesMoved int64
	// FragmentsBefore and FragmentsAfter are the unusable free bytes
	// (free regions too small to serve any insert) before and after.
	FragmentsBefore int64
	FragmentsAfter  int64
}

// DefragmentBands is the garbage-collection supplement the paper's
// §IV-C leaves as future work: small free fragments — regions that
// cannot hold even one SSTable plus a guard — are reclaimed by
// relocating the set downstream of each fragment to fresh space, so
// the fragment coalesces with the freed set extent into a usable
// region (or folds into the append frontier).
//
// The pass is explicit (call it from a maintenance window); each
// relocation costs one sequential read and one sequential write of
// the set's live members. maxMoves bounds the pass; <= 0 means no
// bound. Only meaningful in ModeSEALDB.
func (d *DB) DefragmentBands(maxMoves int) (res GCResult, err error) {
	mgr := d.dev.DBand
	if mgr == nil {
		return res, fmt.Errorf("lsm: DefragmentBands requires dynamic bands (mode %v)", d.cfg.Mode)
	}
	err = d.maintain(func() error {
		// A fragment is a free region that cannot serve the smallest
		// useful insert: one SSTable plus its guard (Equation 1).
		threshold := d.cfg.SSTableSize + d.cfg.GuardSize
		res.FragmentsBefore = mgr.FragmentBytes(threshold)
		sp := d.journal.Begin("band_gc", 0)
		sp.Set("fragments_before", res.FragmentsBefore)

		// Index live sets by their extent start, member files by set, and
		// each member's level by file number.
		byOff := map[int64]version.SetRecord{}
		for _, set := range d.vs.Sets() {
			byOff[set.Off] = set.SetRecord
		}
		members := map[uint64][]*version.FileMeta{}
		levelOf := map[uint64]int{}
		v := d.vs.Current()
		for l := 0; l < d.cfg.NumLevels; l++ {
			for _, f := range v.Files[l] {
				if f.SetID != 0 {
					members[f.SetID] = append(members[f.SetID], f)
					levelOf[f.Num] = l
				}
			}
		}

		// Walk the fragments in address order and relocate each one's
		// downstream set (if its neighbour is not an ungrouped file). The free
		// list changes as we go, so collect the victims first. Free regions
		// are disjoint, so the victims are distinct and in address order too.
		var victims []version.SetRecord
		for _, fr := range mgr.FreeRegions() {
			if rec, ok := byOff[fr.End()]; ok && fr.Len < threshold {
				victims = append(victims, rec)
			}
		}

		for _, rec := range victims {
			if maxMoves > 0 && res.SetsMoved >= maxMoves {
				break
			}
			moved, err := d.relocateSet(rec, members[rec.ID], levelOf, sp.ID())
			if err != nil {
				return err
			}
			res.SetsMoved++
			res.BytesMoved += moved
		}
		res.FragmentsAfter = mgr.FragmentBytes(threshold)
		sp.Set("sets_moved", int64(res.SetsMoved))
		sp.Set("bytes_moved", res.BytesMoved)
		sp.Set("fragments_after", res.FragmentsAfter)
		sp.End()
		return nil
	})
	return res, err
}

// relocateSet moves a set's live members to a fresh contiguous extent
// as a compaction that does not merge: read them, write them under new
// file numbers as a new set, and install one edit that swaps each member
// for its copy at its own level. The edit drops the old set, and its
// files and extent are reclaimed behind readers like any compaction's
// inputs — so nothing is unmapped before its replacement is durable, a
// crash leaves either set whole (plus orphans the next open sweeps), and
// a live iterator keeps reading the old files until it closes. parent
// links the migration span to its band-GC pass. Caller holds d.mu.
func (d *DB) relocateSet(rec version.SetRecord, files []*version.FileMeta, levelOf map[uint64]int, parent uint64) (int64, error) {
	if len(files) == 0 {
		return 0, fmt.Errorf("lsm: relocating set %d with no live members", rec.ID)
	}
	msp := d.journal.Begin("set_migration", parent)
	msp.Set("set", int64(rec.ID))
	// One sequential pass over the old extent.
	files, datas, err := d.readWhole(files)
	if err != nil {
		return 0, err
	}
	defer d.putBufs(datas)

	edit := &version.Edit{}
	copies := make([]*version.FileMeta, len(files))
	var moved int64
	for i, f := range files {
		// Field by field: the copy must not inherit f's reader, whose handle
		// names the number about to be removed. An open member's copy opens
		// from the bytes read; bytes that do not open (media damage) leave
		// it to its first read to report, as an unopened member's would.
		nf := &version.FileMeta{Num: d.vs.NewFileNum(), Size: f.Size, Smallest: f.Smallest, Largest: f.Largest, SetID: f.SetID}
		_ = d.openBuilt(nf, datas[i], f.Reader.Load() != nil)
		copies[i] = nf
		moved += int64(len(datas[i]))
		edit.Deleted = append(edit.Deleted, version.DeletedFile{Level: levelOf[f.Num], Num: f.Num})
		edit.Added = append(edit.Added, version.AddedFile{Level: levelOf[f.Num], Meta: nf})
	}
	newRec, err := d.writeOutputs(copies, datas, true)
	if err != nil {
		return 0, err
	}
	if newRec != nil {
		edit.NewSets = []version.SetRecord{*newRec}
		msp.Set("new_set", int64(newRec.ID))
	}
	// The copies hold the members' bytes: what is cached of a member is
	// cached of its copy, before the edit evicts the old number.
	for i, f := range files {
		d.cache.RekeyFile(f.Num, copies[i].Num)
	}
	if err := d.install(edit); err != nil {
		return 0, err
	}
	d.metrics.bandGCMoves.Inc()
	d.metrics.bandGCBytes.Add(moved)
	msp.Set("bytes", moved)
	msp.Set("members", int64(len(files)))
	msp.End()
	return moved, nil
}
