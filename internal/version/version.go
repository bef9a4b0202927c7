// Package version tracks the files of the LSM tree across its
// levels, exactly as LevelDB's version machinery does: an immutable
// Version lists the live SSTables per level; an Edit describes a
// mutation (files added/deleted, log number, sequence number,
// compaction pointers); a Set owns the current version, applies edits
// copy-on-write, and makes them durable in a MANIFEST log.
package version

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sealdb/internal/kv"
	"sealdb/internal/sstable"
)

// NumLevels is the depth of the tree. The SMRDB baseline only uses
// levels 0 and 1 of the same structure.
const NumLevels = 7

// FileMeta describes one live SSTable.
type FileMeta struct {
	Num      uint64
	Size     int64
	Smallest kv.InternalKey
	Largest  kv.InternalKey
	// SetID links the file to the set (contiguously stored
	// compaction output group) it belongs to; 0 means none.
	SetID uint64
	// Reader is the table's reader, set by the first read that opens it;
	// it lives as long as some version holds the file.
	Reader atomic.Pointer[sstable.Table]
}

func (f *FileMeta) String() string {
	return fmt.Sprintf("#%d(%s..%s, %dB, set %d)", f.Num, f.Smallest, f.Largest, f.Size, f.SetID)
}

// Version is an immutable snapshot of the tree's file layout.
// Level 0 is ordered oldest-to-newest (ascending file number);
// deeper levels are ordered by smallest key and, except in
// overlapped mode, have pairwise-disjoint user-key ranges.
type Version struct {
	Files [NumLevels][]*FileMeta
}

// NumFiles returns the file count of a level.
func (v *Version) NumFiles(level int) int { return len(v.Files[level]) }

// TotalFiles returns the file count across all levels.
func (v *Version) TotalFiles() int {
	n := 0
	for l := range v.Files {
		n += len(v.Files[l])
	}
	return n
}

// LevelBytes returns the total file bytes of a level.
func (v *Version) LevelBytes(level int) int64 {
	var n int64
	for _, f := range v.Files[level] {
		n += f.Size
	}
	return n
}

// Overlaps returns the files of a level whose user-key range
// intersects [smallest, largest]. Nil bounds mean unbounded. For
// level 0 and overlapped levels every file is checked; for sorted
// levels a binary search finds the run.
func (v *Version) Overlaps(level int, smallest, largest []byte, levelSorted bool) []*FileMeta {
	files := v.Files[level]
	overlap := func(f *FileMeta) bool {
		if smallest != nil && kv.CompareUser(f.Largest.UserKey(), smallest) < 0 {
			return false
		}
		if largest != nil && kv.CompareUser(f.Smallest.UserKey(), largest) > 0 {
			return false
		}
		return true
	}
	if level == 0 || !levelSorted {
		var out []*FileMeta
		for _, f := range files {
			if overlap(f) {
				out = append(out, f)
			}
		}
		return out
	}
	// Sorted, disjoint level: find the first file whose largest key
	// is >= smallest, then take files until one starts past largest.
	i := 0
	if smallest != nil {
		i = searchLargest(files, smallest)
	}
	var out []*FileMeta
	for ; i < len(files); i++ {
		if largest != nil && kv.CompareUser(files[i].Smallest.UserKey(), largest) > 0 {
			break
		}
		out = append(out, files[i])
	}
	return out
}

// Candidate returns the one file of sorted level (level > 0) whose
// user-key range may hold ukey, as a slice of v.Files[level] one file long
// or empty: a point read's binary search, allocating nothing.
func (v *Version) Candidate(level int, ukey []byte) []*FileMeta {
	files := v.Files[level]
	i := searchLargest(files, ukey)
	if i == len(files) || kv.CompareUser(files[i].Smallest.UserKey(), ukey) > 0 {
		return nil
	}
	return files[i : i+1]
}

// searchLargest returns the index of the first of files, a sorted level's,
// whose largest user key is at or after ukey: the one file that may hold
// ukey, if any does.
func searchLargest(files []*FileMeta, ukey []byte) int {
	return sort.Search(len(files), func(k int) bool {
		return kv.CompareUser(files[k].Largest.UserKey(), ukey) >= 0
	})
}

// OverlapsAny reports whether Overlaps would return a file, without
// building the list.
func (v *Version) OverlapsAny(level int, smallest, largest []byte, levelSorted bool) bool {
	files := v.Files[level]
	if level > 0 && levelSorted {
		// Only the first file ending at or after smallest can overlap.
		i := 0
		if smallest != nil {
			i = searchLargest(files, smallest)
		}
		return i < len(files) && (largest == nil || kv.CompareUser(files[i].Smallest.UserKey(), largest) <= 0)
	}
	for _, f := range files {
		if (smallest == nil || kv.CompareUser(f.Largest.UserKey(), smallest) >= 0) &&
			(largest == nil || kv.CompareUser(f.Smallest.UserKey(), largest) <= 0) {
			return true
		}
	}
	return false
}

// CheckInvariants verifies ordering (and disjointness on sorted
// levels); used by tests and recovery.
func (v *Version) CheckInvariants(sortedLevels func(level int) bool) error {
	for l := 0; l < NumLevels; l++ {
		files := v.Files[l]
		for i := 1; i < len(files); i++ {
			if l == 0 {
				if files[i-1].Num >= files[i].Num {
					return fmt.Errorf("L0 not ordered by file number: %s before %s", files[i-1], files[i])
				}
				continue
			}
			if kv.CompareInternal(files[i-1].Smallest, files[i].Smallest) > 0 {
				return fmt.Errorf("L%d not sorted: %s before %s", l, files[i-1], files[i])
			}
			if sortedLevels != nil && sortedLevels(l) {
				if kv.CompareUser(files[i-1].Largest.UserKey(), files[i].Smallest.UserKey()) >= 0 {
					return fmt.Errorf("L%d overlap: %s and %s", l, files[i-1], files[i])
				}
			}
		}
	}
	return nil
}
