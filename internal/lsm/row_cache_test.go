package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/kv"
	"sealdb/internal/smr"
	"sealdb/internal/sstable"
)

// A point read that finds its block cached keeps a large inline entry as
// a row of the block cache (DESIGN.md §sstable.Cache). These tests cover
// what a row could newly get wrong in the engine: hiding media damage from
// fsck, and outliving its table.

// loadRowVictim stores one large value under the store's smallest key
// among 400 small ones, flushes, reads the large one until it is a row, and
// returns its key and value.
func loadRowVictim(t *testing.T, d *DB) ([]byte, []byte) {
	t.Helper()
	key, want := []byte("a-victim"), bigValue("victim", 700)
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := d.Put([]byte(fmt.Sprintf("fill%04d", i)), bigValue("fill", 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // device miss that forms the row, then a row hit
		if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get = %d bytes, %v", len(got), err)
		}
	}
	if st := d.cache.Stats(); st.RowEntries != 1 {
		t.Fatalf("two reads of a 700-byte value left %d rows, want 1: %+v", st.RowEntries, st)
	}
	return key, want
}

// TestRowCacheDoesNotHideMediaDamage flips a bit in the on-media block
// under a cached row after the block itself has left the cache. The
// running store keeps serving the row, as it would a cached block; fsck
// reads the table whole from the media, as compaction does, and reports
// the block; and once the cache is gone (reopen) so does the Get.
func TestRowCacheDoesNotHideMediaDamage(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.BlockCacheSize = 32 * kv.KiB
	var fd *faultfs.Drive
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 3)
		return fd
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, want := loadRowVictim(t, d)
	// One-touch reads sweep the victim's block, never promoted, out of
	// probation; the row is read in between and stays protected.
	for i := 0; i < 400; i += 7 {
		if _, err := d.Get([]byte(fmt.Sprintf("fill%04d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	_, _, file, _, err := d.lookup(d.state.Load(), key, d.seq, nil)
	d.mu.Unlock()
	if err != nil || file == nil {
		t.Fatalf("lookup: file %v, %v", file, err)
	}
	// The victim is its table's first entry: its value starts within the
	// first few bytes of the file.
	ext, err := d.backend.FileExtent(file.Num)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.FlipBit(ext.Off+300, 3); err != nil {
		t.Fatal(err)
	}

	before := d.cache.Stats()
	if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get of the cached row after the flip = %d bytes, %v", len(got), err)
	}
	if st := d.cache.Stats(); st.Misses != before.Misses || st.Hits != before.Hits+1 {
		t.Fatalf("the Get was not served by the row: %+v -> %+v", before, st)
	}
	if err := d.VerifyIntegrity(); !errors.Is(err, sstable.ErrCorruptBlock) {
		t.Fatalf("VerifyIntegrity over a damaged block under a cached row = %v, want sstable.ErrCorruptBlock", err)
	}
	dev := d.Device()
	d.Close()
	d, err = OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got, err := d.Get(key); !errors.Is(err, sstable.ErrCorruptBlock) {
		t.Fatalf("Get after reopen = %d bytes, %v; want sstable.ErrCorruptBlock", len(got), err)
	}
	if st := d.cache.Stats(); st.RowEntries != 0 {
		t.Fatalf("a block that failed its CRC became a row: %+v", st)
	}
}

// TestRowsLeaveWithTheirTable: a row follows its key into the table that
// rewrites it, and leaves with its old table only when the rewrite did not
// carry the key: a tombstone drops the row at the flush that writes it, and
// a compaction that drops a key (here the tombstone and the value under it,
// at the base level; the engine has no range delete) re-homes nothing, so
// the row goes when the input is evicted.
func TestRowsLeaveWithTheirTable(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	key, want := loadRowVictim(t, d)
	// Overwrite a neighbour so the compaction has two versions to merge
	// and cannot move the victim's table down as it is.
	if err := d.Put([]byte("fill0000"), bigValue("fill", 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	before := d.cache.Stats()
	if before.RowEntries != 1 || before.RowsRehomed == 0 {
		t.Fatalf("the victim's table was rewritten and its row did not follow: %+v", before)
	}
	if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after the compaction = %d bytes, %v", len(got), err)
	}
	if st := d.cache.Stats(); st.Misses != before.Misses || st.Hits != before.Hits+1 {
		t.Fatalf("the re-homed row did not answer: %+v -> %+v", before, st)
	}

	snap := d.NewSnapshot()
	if err := d.Delete(key); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	if st := d.cache.Stats(); st.RowEntries != 0 || st.RowBytes != 0 {
		t.Fatalf("a tombstone was flushed over the row and it stayed: %+v", st)
	}
	if _, err := d.Get(key); err != ErrNotFound {
		t.Fatalf("Get of the deleted key = %v, want ErrNotFound", err)
	}
	// Reads under the tombstone make the old version a row again, bound
	// to the table that still holds it.
	for i := 0; i < 3; i++ {
		if got, err := d.GetAt(key, snap); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("GetAt under the tombstone = %d bytes, %v", len(got), err)
		}
	}
	if st := d.cache.Stats(); st.RowEntries != 1 {
		t.Fatalf("snapshot reads formed %d rows, want 1", st.RowEntries)
	}
	snap.Release()
	rehomed := d.cache.Stats().RowsRehomed
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if st := d.cache.Stats(); st.RowEntries != 0 || st.RowBytes != 0 || st.RowsRehomed != rehomed {
		t.Fatalf("the compaction dropped the key and its row stayed: %+v", st)
	}
	if _, err := d.Get(key); err != ErrNotFound {
		t.Fatalf("Get of the dropped key = %v, want ErrNotFound", err)
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// readCost runs fn and returns the device reads it made and the blocks it
// asked the cache for in vain.
func readCost(d *DB, fn func()) (reads, misses int64) {
	misses = d.cache.Stats().Misses
	reads = deviceReads(d, fn)
	return reads, d.cache.Stats().Misses - misses
}

// compactLevel compacts every file of level into the next and reports
// whether the tables were rewritten, not moved down as they were.
func compactLevel(t *testing.T, d *DB, level int) (rewritten bool) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.vs.Current()
	c := d.buildCompaction(v, level, v.Files[level])
	if err := d.run(job{c: c}); err != nil {
		t.Fatal(err)
	}
	return !c.trivial
}

// TestHotRowsSurviveFlushAndCompaction: keys read twice keep their rows
// through an overwrite's flush, the L0->L1 merge and the L1->L2 merge that
// follow. After each rewrite a first pass over the hot keys is answered by
// the rows alone, with no device read (the new tables took rows along, so
// they were opened from their builder's bytes), a snapshot from before the
// overwrite still sees the old values, and a key nobody read gains no row by
// being written.
func TestHotRowsSurviveFlushAndCompaction(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.MemtableSize = 1 * kv.MiB // flushes happen where the test asks
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const hot = 40
	hotKey := func(i int) []byte { return []byte(fmt.Sprintf("hot%02d", i)) }
	put := func(k, v []byte) {
		t.Helper()
		if err := d.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := d.FlushMemtable(); err != nil {
			t.Fatal(err)
		}
	}
	// The old versions, a cold key and filler, two levels down.
	for i := 0; i < hot; i++ {
		put(hotKey(i), bigValue(fmt.Sprintf("old%02d", i), 700))
	}
	put([]byte("cold"), bigValue("cold-old", 700))
	for i := 0; i < 200; i++ {
		put([]byte(fmt.Sprintf("fill%04d", i)), bigValue("fill", 100))
	}
	flush()
	compactLevel(t, d, 0)
	compactLevel(t, d, 1)
	if lp := d.LevelProfile(); lp[0].Files+lp[1].Files != 0 || lp[2].Files == 0 {
		t.Fatalf("set-up: levels %+v, want everything in level 2", lp[:3])
	}

	// pass reads every hot key, at snap if there is one, and returns what
	// that cost.
	pass := func(tag string, snap *Snapshot) (reads, misses int64) {
		t.Helper()
		return readCost(d, func() {
			for i := 0; i < hot; i++ {
				got, err := d.GetAt(hotKey(i), snap)
				if want := bigValue(fmt.Sprintf("%s%02d", tag, i), 700); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Get(%s) = %d bytes, %v; want the %q version", hotKey(i), len(got), err, tag)
				}
			}
		})
	}
	pass("old", nil)
	pass("old", nil)
	if st := d.cache.Stats(); st.RowEntries != hot {
		t.Fatalf("two reads of %d keys formed %d rows", hot, st.RowEntries)
	}
	if reads, _ := pass("old", nil); reads != 0 {
		t.Fatalf("a pass over the rows cost %d device reads", reads)
	}

	snap := d.NewSnapshot()
	defer snap.Release()
	for i := 0; i < hot; i++ {
		put(hotKey(i), bigValue(fmt.Sprintf("new%02d", i), 700))
	}
	put([]byte("cold"), bigValue("cold-new", 700))
	// check holds the cache to the contract after the rewrite named what.
	rewrites := int64(0)
	check := func(what string) {
		t.Helper()
		rewrites++
		if st := d.cache.Stats(); st.RowEntries != hot || st.RowsRehomed != rewrites*hot {
			t.Fatalf("after the %s: %d rows, %d re-homed; want %d and %d", what, st.RowEntries, st.RowsRehomed, hot, rewrites*hot)
		}
		if reads, misses := pass("new", nil); reads != 0 || misses != 0 {
			t.Fatalf("after the %s the hot keys missed %d blocks and cost %d device reads: their rows did not follow", what, misses, reads)
		}
		pass("old", snap)
		if st := d.cache.Stats(); st.RowEntries != hot {
			t.Fatalf("after the %s and its snapshot reads: %d rows", what, st.RowEntries)
		}
	}
	flush()
	check("flush")

	// A second level-0 table over the same range makes the next merge real.
	put([]byte("fill0000"), bigValue("fill", 100))
	put([]byte("hov"), bigValue("fill", 100))
	flush()
	if !compactLevel(t, d, 0) {
		t.Fatal("the L0->L1 compaction rewrote nothing")
	}
	check("L0->L1 compaction")
	if !compactLevel(t, d, 1) {
		t.Fatal("the L1->L2 compaction rewrote nothing")
	}
	check("L1->L2 compaction")
	if lp := d.LevelProfile(); lp[0].Files+lp[1].Files != 0 {
		t.Fatalf("levels %+v, want levels 0 and 1 empty", lp[:3])
	}
	// The cold key was written with the hot ones and read by nobody: it
	// has no row (check counted them), and its value is the new one.
	if got, err := d.Get([]byte("cold")); err != nil || !bytes.Equal(got, bigValue("cold-new", 700)) {
		t.Fatalf("Get(cold) = %d bytes, %v", len(got), err)
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestJustWrittenTableOpensWithItsRows: a flush or compaction output that
// takes a cached row along is opened from its builder's bytes before it is
// installed, so the Get that follows reads nothing from the device, not even
// the new table's footer, filter and index. An output that takes no row
// stays unopened, so a store nobody reads keeps no table open.
func TestJustWrittenTableOpensWithItsRows(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.MemtableSize = 1 * kv.MiB // flushes happen where the test asks
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	put := func(d *DB, k, v []byte) {
		t.Helper()
		if err := d.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	key, _ := loadRowVictim(t, d)
	want := bigValue("victim-new", 700)
	put(d, key, want)
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	l0 := d.vs.Current().Files[0]
	if f := l0[len(l0)-1]; f.Reader.Load() == nil {
		t.Fatalf("the flushed table %v took the row along and is not open", f)
	}
	get := func() int64 {
		t.Helper()
		return deviceReads(d, func() {
			if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get = %d bytes, %v", len(got), err)
			}
		})
	}
	if reads := get(); reads != 0 {
		t.Fatalf("the first Get from the flushed table cost %d device reads", reads)
	}

	// Two more level-0 tables, written and never read, make the level due.
	for i := 0; i < 2; i++ {
		for j := 0; j < 200; j++ {
			put(d, []byte(fmt.Sprintf("fill%04d", j)), bigValue(fmt.Sprint("fill", i), 100))
		}
		if err := d.FlushMemtable(); err != nil {
			t.Fatal(err)
		}
	}
	if err := compactAll(d); err != nil {
		t.Fatal(err)
	}
	v := d.vs.Current()
	if v.NumFiles(0) != 0 {
		t.Fatalf("set-up: compactAll left %d level-0 tables", v.NumFiles(0))
	}
	carried := 0
	for l := range v.Files {
		for _, f := range v.Files[l] {
			carries := kv.CompareUser(f.Smallest.UserKey(), key) <= 0 && kv.CompareUser(key, f.Largest.UserKey()) <= 0
			if open := f.Reader.Load() != nil; open != carries {
				t.Errorf("L%d %v: open %v, took the row along %v", l, f, open, carries)
			}
			if carries {
				carried++
			}
		}
	}
	if carried != 1 || v.TotalFiles() < 2 {
		t.Fatalf("set-up: %d of %d tables hold the key, want 1 of several", carried, v.TotalFiles())
	}
	if reads := get(); reads != 0 {
		t.Fatalf("the first Get after compactAll cost %d device reads", reads)
	}

	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3000; i++ {
		put(w, []byte(fmt.Sprintf("key%04d", i*7919%3000)), bigValue(fmt.Sprint("v", i), 700))
	}
	if err := compactAll(w); err != nil {
		t.Fatal(err)
	}
	v = w.vs.Current()
	for l := range v.Files {
		for _, f := range v.Files[l] {
			if f.Reader.Load() != nil {
				t.Errorf("a write-only load left L%d %v open", l, f)
			}
		}
	}
}
