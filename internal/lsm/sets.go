package lsm

import (
	"sort"

	"sealdb/internal/storage"
	"sealdb/internal/version"
)

// setRegistry tracks live sets: which SSTables belong to which
// contiguously stored compaction-output group, how many members are
// already invalid (the paper's deferred victim reclamation), and when
// a group extent can be returned to the dynamic band manager.
type setRegistry struct {
	byID   map[uint64]*setState
	byFile map[uint64]uint64 // file num -> set id
}

type setState struct {
	rec  version.SetRecord
	live map[uint64]bool
}

func newSetRegistry() *setRegistry {
	return &setRegistry{byID: map[uint64]*setState{}, byFile: map[uint64]uint64{}}
}

// register adds a freshly written set. The set id is the first output
// file's number, which is unique for the lifetime of the DB.
func (r *setRegistry) register(rec version.SetRecord, files []uint64) {
	st := &setState{rec: rec, live: make(map[uint64]bool, len(files))}
	for _, f := range files {
		st.live[f] = true
		r.byFile[f] = rec.ID
	}
	r.byID[rec.ID] = st
}

// fileInvalid marks a set member dead. It returns the set's extent
// and true when the last member died and the extent must be freed.
func (r *setRegistry) fileInvalid(num uint64) (storage.Extent, uint64, bool) {
	id, ok := r.byFile[num]
	if !ok {
		return storage.Extent{}, 0, false
	}
	delete(r.byFile, num)
	st := r.byID[id]
	delete(st.live, num)
	if len(st.live) > 0 {
		return storage.Extent{}, 0, false
	}
	delete(r.byID, id)
	return storage.Extent{Off: st.rec.Off, Len: st.rec.Len}, id, true
}

// setOf returns the set id a file belongs to (0 if none).
func (r *setRegistry) setOf(num uint64) uint64 { return r.byFile[num] }

// invalidCount returns how many members of a set are already dead.
// Compacting members of high-invalid sets first empties their extents
// soonest — the paper's implicit garbage collection.
func (r *setRegistry) invalidCount(id uint64) int {
	st, ok := r.byID[id]
	if !ok {
		return 0
	}
	return st.rec.Members - len(st.live)
}

// liveSets returns the number of registered sets.
func (r *setRegistry) liveSets() int { return len(r.byID) }

// memberStats returns (liveMembers, totalMembers) across all sets,
// and the average member count, for the paper's set-size analysis.
func (r *setRegistry) memberStats() (live, total int) {
	for _, st := range r.byID {
		live += len(st.live)
		total += st.rec.Members
	}
	return live, total
}

// rebuild reconstructs the registry after recovery: set records come
// from the manifest, live membership from the recovered version.
// Sets that ended up with no live members (a crash between logging
// and freeing) are returned so the caller can free their extents and
// log the drops.
func (r *setRegistry) rebuild(records map[uint64]version.SetRecord, v *version.Version) []version.SetRecord {
	liveFiles := map[uint64][]uint64{} // set id -> live file nums
	for l := 0; l < version.NumLevels; l++ {
		for _, f := range v.Files[l] {
			if f.SetID != 0 {
				liveFiles[f.SetID] = append(liveFiles[f.SetID], f.Num)
			}
		}
	}
	var orphans []version.SetRecord
	ids := make([]uint64, 0, len(records))
	for id := range records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec := records[id]
		files := liveFiles[id]
		if len(files) == 0 {
			orphans = append(orphans, rec)
			continue
		}
		r.register(rec, files)
	}
	return orphans
}
