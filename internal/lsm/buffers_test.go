package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/kv"
	"sealdb/internal/version"
)

// widestCompaction returns the compaction out of levels from to to
// whose victim overlaps the most files of the next level. Caller holds
// d.mu.
func widestCompaction(d *DB, from, to int) *compaction {
	var best *compaction
	v := d.vs.Current()
	for level := from; level <= to && level < d.cfg.NumLevels()-1; level++ {
		for _, f := range v.Files[level] {
			c := d.buildCompaction(v, level, []*version.FileMeta{f})
			if best == nil || len(c.inputs1) > len(best.inputs1) {
				best = c
			}
		}
	}
	return best
}

// TestCompactionMergesLevelsNotFiles: the inputs of a sorted level enter
// the merge as one child however many files they are, and the merged
// stream — so every output byte — is the one a child per file gives.
func TestCompactionMergesLevelsNotFiles(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			loadRandom(t, d, 16000, 5)
			d.mu.Lock()
			defer d.mu.Unlock()
			// Level 0 included, and not empty: its files stay a child each.
			if err := d.rotateAndFlush(d.cfg.walSize()); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for level := 0; level < d.cfg.NumLevels()-1; level++ {
				if c := widestCompaction(d, level, level); c != nil && len(c.inputs1) >= 2 {
					checkLevelMerge(t, d, c)
					checked++
				}
			}
			if checked == 0 || checked == 1 && mode != ModeSMRDB {
				t.Fatalf("%d levels had a compaction with a multi-file set", checked)
			}
		})
	}
}

func checkLevelMerge(t *testing.T, d *DB, c *compaction) {
	children, bufs, err := d.inputIterators(c)
	if err != nil {
		t.Fatal(err)
	}
	defer d.putBufs(bufs)
	want := len(c.inputs0) + len(c.inputs1)
	if d.cfg.sortedLevel(c.outLevel) {
		want = len(c.inputs0) + 1 // level 0 stays a child per file
	}
	if len(children) != want {
		t.Fatalf("L%d: %d+%d input files are %d merge children, want %d", c.level, len(c.inputs0), len(c.inputs1), len(children), want)
	}

	var perFile []kv.Iterator
	for _, f := range append(append([]*version.FileMeta(nil), c.inputs0...), c.inputs1...) {
		tbl, err := d.openTable(f)
		if err != nil {
			t.Fatal(err)
		}
		perFile = append(perFile, tbl.NewIterator())
	}
	got, ref := &mergingIter{children: children, cur: -1}, &mergingIter{children: perFile, cur: -1}
	n := 0
	got.SeekToFirst()
	ref.SeekToFirst()
	for ; got.Valid() && ref.Valid(); n++ {
		if !bytes.Equal(got.Key(), ref.Key()) || !bytes.Equal(got.Value(), ref.Value()) {
			t.Fatalf("L%d, entry %d: level merge has %s, per-file merge %s", c.level, n, got.Key(), ref.Key())
		}
		got.Next()
		ref.Next()
	}
	if n == 0 || got.Valid() || ref.Valid() || got.Error() != nil || ref.Error() != nil {
		t.Fatalf("L%d, after %d entries: level merge valid %v (%v), per-file merge valid %v (%v)",
			c.level, n, got.Valid(), got.Error(), ref.Valid(), ref.Error())
	}
}

// mallocsDuring counts the heap objects fn allocates.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWritePathAllocsScaleWithTables: a flush and a compaction allocate
// per table they read or write — a buffer out of the pool, a reader, a
// version edit — and nothing per entry they move.
func TestWritePathAllocsScaleWithTables(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := tinyConfig(ModeSEALDB)
	cfg.SSTableSize, cfg.MemtableSize = 64*kv.KiB, 64*kv.KiB
	cfg.BandSize = 640 * kv.KiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadRandom(t, d, 60000, 9) // ~90-byte entries: some 500 to a table

	// Fill the memtable to just short of a rotation, then flush it.
	for i := 0; d.mem.ApproximateSize() < cfg.MemtableSize*9/10; i++ {
		if err := d.Put([]byte(fmt.Sprintf("fill%07d", i)), []byte("some value or other, forty bytes of it..")); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	entries := d.mem.Len()
	flush := mallocsDuring(func() { err = d.rotateAndFlush(d.cfg.walSize()) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flush of %d entries: %d allocations", entries, flush)
	if flush > 120 || int(flush) > entries/4 {
		t.Errorf("flushing %d entries allocated %d objects, want a constant few dozen", entries, flush)
	}

	c := widestCompaction(d, 1, d.cfg.NumLevels())
	if c == nil || len(c.inputs1) < 6 {
		t.Fatalf("no wide compaction to measure: %+v", c)
	}
	tables := len(c.inputs0) + len(c.inputs1)
	var inBytes int64
	for _, f := range append(append([]*version.FileMeta(nil), c.inputs0...), c.inputs1...) {
		inBytes += f.Size
	}
	compact := mallocsDuring(func() { err = d.run(job{c: c}) })
	if err != nil {
		t.Fatal(err)
	}
	perEntry := int(inBytes / 100)
	t.Logf("compaction of %d tables, ~%d entries: %d allocations", tables, perEntry, compact)
	if int(compact) > 60*tables || int(compact) > perEntry/4 {
		t.Errorf("compacting %d tables (~%d entries) allocated %d objects, want at most 60 per table", tables, perEntry, compact)
	}
}

// TestCompactionWriteFailureReleasesOnce: when the set write of a
// compaction fails, the output buffers go back to the pool once (under
// -tags sealdb_invariants a second release panics), the inputs were
// released when the merge ended, and nothing that is still mapped reads
// through either: the store degrades with every acknowledged key
// readable, and a store opened next builds its tables in those buffers.
func TestCompactionWriteFailureReleasesOnce(t *testing.T) {
	d, fd := newFaultDB(t, ModeSEALDB)
	defer d.Close()
	ref := loadRandom(t, d, 12000, 11)

	d.mu.Lock()
	c := widestCompaction(d, 1, d.cfg.NumLevels())
	if c == nil || len(c.inputs1) < 2 || !d.cfg.groupedOutputs(c.outLevel) {
		d.mu.Unlock()
		t.Fatalf("no set compaction to fail: %+v", c)
	}
	// A compaction reads, merges, then writes: its first device write is
	// the group write of the new set.
	fd.Inject(faultfs.Rule{Op: faultfs.OpWrite, Count: 1})
	err := d.run(job{c: c})
	d.mu.Unlock()
	var fe *faultfs.Error
	if !errors.As(err, &fe) || fe.Temporary {
		t.Fatalf("compaction job = %v, want the injected permanent write error", err)
	}
	if err := d.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put after a failed set write = %v, want ErrDegraded", err)
	}
	verifyAll(t, d, ref)

	d2, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	verifyAll(t, d2, loadRandom(t, d2, 6000, 12))
	verifyAll(t, d, ref)
}
