package lsm

import (
	"fmt"

	"sealdb/internal/obs"
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
// relocation is a job that costs one sequential read and one sequential
// write of the set's live members. Only meaningful in ModeSEALDB.
func (d *DB) DefragmentBands() (res GCResult, err error) {
	mgr := d.dev.DBand
	if mgr == nil {
		return res, fmt.Errorf("lsm: DefragmentBands requires dynamic bands (mode %v)", d.cfg.Mode)
	}
	err = d.maintain(func() error {
		// A fragment is a free region that cannot serve the smallest
		// useful insert: one SSTable plus its one-SSTable guard
		// (Equation 1).
		threshold := 2 * d.cfg.SSTableSize
		res.FragmentsBefore = mgr.FragmentBytes(threshold)
		sp := d.journal.Begin("band_gc", 0)
		sp.Set("fragments_before", res.FragmentsBefore)
		movedBefore := d.metrics.bandGCBytes.Value()

		// The victims are the sets that start where a fragment ends (a
		// fragment whose neighbour is an ungrouped file stays). Relocation
		// changes the free list, so collect them first; both lists are in
		// address order, and so are the victims.
		free := mgr.FreeRegions()
		var victims []uint64
		for _, e := range d.ownedExtents() {
			for len(free) > 0 && free[0].End() < e.off {
				free = free[1:]
			}
			if e.kind == ownedSet && len(free) > 0 && free[0].End() == e.off && free[0].Len < threshold {
				victims = append(victims, e.id)
			}
		}
		for _, id := range victims {
			if err := d.run(job{set: id}); err != nil {
				return err
			}
		}
		res.SetsMoved = len(victims)
		res.BytesMoved = d.metrics.bandGCBytes.Value() - movedBefore
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
// a live iterator keeps reading the old files until it closes. Caller
// holds d.mu.
func (d *DB) relocateSet(id uint64, sp *obs.Span) error {
	sp.Set("set", int64(id))
	var files []*version.FileMeta
	levelOf := map[uint64]int{}
	v := d.vs.Current()
	for l := 0; l < d.cfg.NumLevels(); l++ {
		for _, f := range v.Files[l] {
			if f.SetID == id {
				files = append(files, f)
				levelOf[f.Num] = l
			}
		}
	}
	if len(files) == 0 {
		return fmt.Errorf("lsm: relocating set %d with no live members", id)
	}
	// One sequential pass over the old extent.
	files, datas, err := d.readWhole(files)
	if err != nil {
		return err
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
		return err
	}
	if newRec != nil {
		edit.NewSets = []version.SetRecord{*newRec}
		sp.Set("new_set", int64(newRec.ID))
	}
	// The copies hold the members' bytes: what is cached of a member is
	// cached of its copy, before the edit evicts the old number.
	for i, f := range files {
		d.cache.RekeyFile(f.Num, copies[i].Num)
	}
	if err := d.install(edit); err != nil {
		return err
	}
	d.metrics.bandGCMoves.Inc()
	d.metrics.bandGCBytes.Add(moved)
	sp.Set("bytes", moved)
	sp.Set("members", int64(len(files)))
	return nil
}
