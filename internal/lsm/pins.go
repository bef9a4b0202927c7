package lsm

import "sealdb/internal/version"

// Iterators capture the file set of the version current at their
// creation and reopen tables lazily between locked operations, so a
// compaction must not reclaim its input files while such an iterator
// is live. This is LevelDB's version reference count reduced to the
// single-mutex design: versions themselves need no refs because only
// file deletion (and dead-set extent frees) can hurt a reader.
//
// Each iterator pins the epoch current at its creation. A compaction
// that retires files while any iterator is live queues a
// pendingReclaim tagged with that epoch and bumps it; the reclaim
// runs once every iterator pinned at or before its epoch has closed.
// Iterators created after the bump were built from a version that no
// longer references the retired files, so they never block it.

// pendingReclaim is what an edit retired, its reclamation deferred past
// live iterators.
type pendingReclaim struct {
	epoch   uint64
	retired version.Retired
}

// pinIter registers a live iterator and returns the epoch it pins.
// Caller holds d.mu.
func (d *DB) pinIter() uint64 {
	e := d.iterEpoch
	d.iterPins[e]++
	return e
}

// unpinIter drops an iterator's pin and runs any reclamation it was
// blocking. Caller holds d.mu.
func (d *DB) unpinIter(epoch uint64) {
	if n := d.iterPins[epoch]; n > 1 {
		d.iterPins[epoch] = n - 1
		return
	}
	delete(d.iterPins, epoch)
	d.runReclaims()
}

// reclaim frees what an edit retired — table and segment files, the
// extents of dead sets — now if no iterator can still read them,
// deferred otherwise. Caller holds d.mu.
func (d *DB) reclaim(r version.Retired) error {
	if len(r.Files) == 0 && len(r.Sets) == 0 {
		return nil
	}
	if len(d.iterPins) == 0 {
		return d.reclaimNow(r)
	}
	d.reclaims = append(d.reclaims, pendingReclaim{epoch: d.iterEpoch, retired: r})
	d.iterEpoch++
	return nil
}

// reclaimNow performs the reclamation. Caller holds d.mu.
func (d *DB) reclaimNow(r version.Retired) error {
	for _, num := range r.Files {
		d.dropTable(num)
		d.backend.Remove(num)
	}
	for _, set := range r.Sets {
		if err := d.backend.FreeExtent(set.Extent()); err != nil {
			return err
		}
	}
	return nil
}

// runReclaims runs every pending reclamation that no live iterator
// blocks. Caller holds d.mu.
func (d *DB) runReclaims() {
	min := ^uint64(0)
	for e := range d.iterPins {
		if e < min {
			min = e
		}
	}
	for len(d.reclaims) > 0 && d.reclaims[0].epoch < min {
		p := d.reclaims[0]
		d.reclaims = d.reclaims[1:]
		if err := d.reclaimNow(p.retired); err != nil {
			// The space is leaked but the store is consistent; there
			// is no caller to hand the error to.
			d.journal.Record("reclaim_error", map[string]int64{"epoch": int64(p.epoch)})
		}
	}
}
