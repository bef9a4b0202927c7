package lsm

import (
	"sync/atomic"

	"sealdb/internal/kv"
	"sealdb/internal/memtable"
	"sealdb/internal/version"
)

// readState is LevelDB's refcounted MemTable/Version pair as one object,
// immutable while it can be held, published behind d.state at every install and
// rotation and read at d.visible. What an edit retired hangs on the
// state it superseded and is reclaimed in publication order once that
// and every older state are released: in install if no reader holds
// one, else by the last reader out — the only time a reader takes d.mu.
type readState struct {
	refs     atomic.Int32 // the DB's while current, plus one per reader; 0 is dead
	mem, imm *memtable.MemTable
	v        *version.Version
	seq      kv.SeqNum       // d.seq at publication: only the read-seq mutation reads at it
	retired  version.Retired // guarded by mu
}

var readAtPublished = false // the read-seq mutation (linearizable_mutation_test.go)

// publish makes d.mem, imm (the memtable being flushed, or nil) and the
// current version the state readers acquire, and queues the state it
// supersedes with what the edit retired. Caller holds d.mu.
func (d *DB) publish(imm *memtable.MemTable, retired version.Retired) error {
	s := d.spare
	if d.spare = nil; s == nil {
		s = new(readState)
	}
	s.mem, s.imm, s.v, s.seq, s.retired = d.mem, imm, d.vs.Current(), d.seq, version.Retired{}
	s.refs.Store(1)
	if old := d.state.Swap(s); old != nil {
		old.retired = retired
		d.retiring = append(d.retiring, old)
		old.refs.Add(-1) // the DB's
	}
	return d.reclaimReleased()
}

// acquire returns the current state and the sequence number to read it
// at, or nil once the DB is closed. It takes no lock.
func (d *DB) acquire() (*readState, kv.SeqNum) {
	for !d.closed.Load() { // a state released since the load is dead: load again
		s := d.state.Load()
		for n := s.refs.Load(); n > 0; n = s.refs.Load() {
			if s.refs.CompareAndSwap(n, n+1) {
				if readAtPublished {
					return s, s.seq
				}
				return s, kv.SeqNum(d.visible.Load())
			}
		}
	}
	return nil, 0
}

// release drops a reader's reference; the last one of a superseded state
// may unblock reclamation. A caller holding d.mu holds the current state,
// whose last reference is the DB's.
func (d *DB) release(s *readState) {
	if s.refs.Add(-1) > 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.reclaimReleased(); err != nil {
		// The space is leaked but the store is consistent; there is no
		// caller to hand the error to.
		d.journal.Record("reclaim_error", map[string]int64{"queued": int64(len(d.retiring))})
	}
}

// reclaimReleased reclaims, oldest first, what the released prefix of the
// queue retired. After Close it reclaims nothing: the next open sweeps
// it, and a late free could hit an extent the successor reconciled.
// Caller holds d.mu.
func (d *DB) reclaimReleased() error {
	var first error
	n := 0 // released states reclaimed, shifted out below so appends reuse the array
	for ; !d.closed.Load() && n < len(d.retiring) && d.retiring[n].refs.Load() == 0; n++ {
		r := d.retiring[n].retired
		for _, num := range r.Files {
			d.cache.EvictFile(num)
			d.backend.Remove(num)
		}
		for _, set := range r.Sets {
			if err := d.backend.FreeExtent(set.Extent()); err != nil && first == nil {
				first = err
			}
		}
	}
	for _, s := range d.retiring {
		if s.refs.Load() == 0 { // dead, reclaimed or behind a held one: drop the memtables
			s.mem, s.imm, s.v = nil, nil, nil
		}
	}
	if n > 0 { // no reader can acquire a dead state again: publish reuses one
		d.spare = d.retiring[n-1]
	}
	clear(d.retiring[copy(d.retiring, d.retiring[n:]):])
	d.retiring = d.retiring[:len(d.retiring)-n]
	return first
}
