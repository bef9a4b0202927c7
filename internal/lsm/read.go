package lsm

import (
	"sealdb/internal/invariant"
	"sealdb/internal/kv"
	"sealdb/internal/version"
)

// Get returns the value of key at the latest sequence number.
func (d *DB) Get(key []byte) ([]byte, error) {
	return d.get(key, nil, 0)
}

// GetCtx is Get carrying a request context: when tracing is enabled,
// the lookup's physical I/Os and per-level stage times are attributed
// to ctx.ReqID. With tracing off it is exactly Get.
func (d *DB) GetCtx(key []byte, ctx OpContext) ([]byte, error) {
	return d.get(key, nil, ctx.ReqID)
}

// GetAt returns the value of key as of the given snapshot.
func (d *DB) GetAt(key []byte, snap *Snapshot) ([]byte, error) {
	return d.get(key, snap, 0)
}

// get is the user read, lock-free whether traced or not; untraced, the
// tracer costs it one atomic load.
func (d *DB) get(key []byte, snap *Snapshot, reqID uint64) ([]byte, error) {
	if !d.tracer.enabled.Load() {
		return d.getAt(key, snap, nil)
	}
	ot := d.traceBegin("get", reqID)
	v, err := d.getAt(key, snap, ot)
	d.traceEnd(ot, err)
	return v, err
}

// getAt reads key in the current read state, at snap or (nil) the
// visible sequence number: the shared lookup, the one hit epilogue
// (resolve or copy the stored value), and the read-path counters.
func (d *DB) getAt(key []byte, snap *Snapshot, ot *opTrace) ([]byte, error) {
	s, seq := d.acquire()
	if s == nil {
		return nil, ErrClosed
	}
	defer d.release(s)
	if snap != nil {
		seq = snap.seq
	}
	var v []byte
	stored, kind, file, found, err := d.lookup(s, key, seq, ot)
	switch {
	case err != nil:
	case !found || kind == kv.KindDelete:
		err = ErrNotFound
	case file != nil && !d.cfg.vlogEnabled():
		v = stored // a table read already handed out a private copy
	default:
		v, err = d.resolveValue(nil, key, stored)
	}
	d.metrics.gets.Inc()
	if err == nil {
		d.metrics.getHits.Inc()
	}
	return v, err
}

// lookup is the engine's one point-read traversal of state s, the
// LevelDB read path: memtables, then level 0 newest to oldest, then
// each deeper level. It returns the newest entry for key visible at seq
// as stored in the tree (value-log tag byte and all), its kind, and the
// SSTable that served it (nil for a memtable hit). User reads, the
// value-log collector and fsck all go through it, so they probe the
// same files in the same order. ot may be nil.
func (d *DB) lookup(s *readState, key []byte, seq kv.SeqNum, ot *opTrace) (stored []byte, kind kv.Kind, file *version.FileMeta, found bool, err error) {
	si := ot.stageStart(stageReadMemtable)
	v, deleted, hit := s.mem.Get(key, seq)
	if !hit && s.imm != nil {
		v, deleted, hit = s.imm.Get(key, seq)
	}
	ot.stageEnd(si)
	if hit {
		if deleted {
			return nil, kv.KindDelete, nil, true, nil
		}
		return v, kv.KindSet, nil, true, nil
	}
	cur := s.v
	for level := 0; level < d.cfg.NumLevels(); level++ {
		// Level 0 files may overlap, so every one is a candidate, and
		// flush order makes file-number order data recency order: probe
		// newest first and stop at the first hit. A sorted level has at
		// most one file that can contain the key. An overlapped level
		// (SMRDB) may hold several versions; the highest visible
		// sequence number wins, so every candidate is probed.
		sorted := d.cfg.sortedLevel(level)
		files := cur.Files[0]
		switch {
		case level > 0 && sorted:
			files = cur.Candidate(level, key)
		case level > 0:
			files = cur.Overlaps(level, key, key, false)
		}
		if len(files) == 0 {
			continue
		}
		si = ot.stageStart(d.tracer.readStages[level])
		var bestSeq kv.SeqNum
		for i := range files {
			f := files[i]
			if level == 0 {
				f = files[len(files)-1-i]
				if !fileMayContain(f, key) {
					continue
				}
			}
			val, fseq, k, ok, err := d.tableGet(f, key, seq)
			if err != nil {
				return nil, 0, nil, false, err
			}
			if ok && (!found || fseq > bestSeq) {
				stored, bestSeq, kind, file, found = val, fseq, k, f, true
			}
			if found && level == 0 {
				break
			}
		}
		ot.stageEnd(si)
		if found {
			return stored, kind, file, true, nil
		}
	}
	return nil, 0, nil, false, nil
}

// fileMayContain is the cheap user-key range test.
func fileMayContain(f *version.FileMeta, key []byte) bool {
	return kv.CompareUser(key, f.Smallest.UserKey()) >= 0 &&
		kv.CompareUser(key, f.Largest.UserKey()) <= 0
}

// tableGet looks key up in one table file.
func (d *DB) tableGet(f *version.FileMeta, key []byte, seq kv.SeqNum) ([]byte, kv.SeqNum, kv.Kind, bool, error) {
	t, err := d.openTable(f)
	if err != nil {
		return nil, 0, 0, false, err
	}
	return t.GetEntry(key, seq)
}

// Snapshot pins a sequence number: reads through it see the database
// as of its creation, and compactions keep the versions it needs.
type Snapshot struct {
	seq kv.SeqNum
	db  *DB
}

// NewSnapshot captures the current state.
func (d *DB) NewSnapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.snapshots[d.seq]++
	return &Snapshot{seq: d.seq, db: d}
}

// Release un-pins the snapshot. Releasing twice is a no-op.
func (s *Snapshot) Release() {
	if s.db == nil {
		return
	}
	d := s.db
	s.db = nil
	d.mu.Lock()
	defer d.mu.Unlock()
	if invariant.Enabled {
		invariant.Assert(d.snapshots[s.seq] > 0, "releasing snapshot at seq %d with no registered pin", s.seq)
	}
	if n := d.snapshots[s.seq]; n > 1 {
		d.snapshots[s.seq] = n - 1
	} else {
		delete(d.snapshots, s.seq)
	}
}

// smallestSnapshot returns the oldest sequence number any reader can
// still observe. Caller holds d.mu.
func (d *DB) smallestSnapshot() kv.SeqNum {
	min := d.seq
	for s := range d.snapshots {
		if s < min {
			min = s
		}
	}
	return min
}
