package lsm

import (
	"fmt"
	"sync"
	"testing"

	"sealdb/internal/kv"
	"sealdb/internal/sstable"
	"sealdb/internal/version"
)

func TestLevelProfile(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadRandom(t, d, 5000, 3)
	profile := d.LevelProfile()
	if len(profile) != d.cfg.NumLevels() {
		t.Fatalf("profile has %d levels", len(profile))
	}
	var files int
	for _, li := range profile {
		files += li.Files
		if li.Files > 0 && li.Bytes == 0 {
			t.Errorf("L%d has %d files but zero bytes", li.Level, li.Files)
		}
		if li.Level > 0 && li.Level < d.cfg.NumLevels()-1 && li.Target == 0 {
			t.Errorf("L%d has no target", li.Level)
		}
	}
	if files == 0 {
		t.Error("no files in profile after load")
	}
}

func TestSetProfile(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	loadRandom(t, d, 10000, 5)
	sp := d.SetProfile()
	if sp.LiveSets == 0 || sp.LiveMembers == 0 {
		t.Fatalf("no sets after deep load: %+v", sp)
	}
	if sp.LiveMembers > sp.TotalMembers {
		t.Errorf("live %d > total %d", sp.LiveMembers, sp.TotalMembers)
	}
	if sp.InvalidMembers != sp.TotalMembers-sp.LiveMembers {
		t.Errorf("invalid accounting wrong: %+v", sp)
	}
}

func TestCompactRange(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ref := loadRandom(t, d, 4000, 7)
			if err := d.CompactRange(nil, nil); err != nil {
				t.Fatal(err)
			}
			// Everything readable, L0 empty (all pushed down), and for
			// leveled modes nothing in shallow levels above base data.
			verifyAll(t, d, ref)
			if n := d.vs.Current().NumFiles(0); n != 0 {
				t.Errorf("L0 still holds %d files after CompactRange", n)
			}
			if err := d.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCompactRangePartial(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	ref := loadRandom(t, d, 4000, 9)
	// Compact only a sub-range; the store must stay correct.
	if err := d.CompactRange([]byte("key0001000"), []byte("key0002000")); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, d, ref)
}

func TestVerifyIntegrityAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			loadRandom(t, d, 5000, 11)
			if err := d.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVerifyIntegrityAfterRecovery(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	d, _ := Open(cfg)
	loadRandom(t, d, 5000, 13)
	dev := d.Device()
	d.Close()
	d2, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDefragmentBands(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Heavy churn produces dead sets and fragments.
	ref := loadRandom(t, d, 14000, 17)

	before := d.Device().DBand.FragmentBytes(2 * cfg.SSTableSize)
	res, err := d.DefragmentBands(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FragmentsBefore != before {
		t.Errorf("FragmentsBefore %d != measured %d", res.FragmentsBefore, before)
	}
	if res.SetsMoved > 0 {
		if res.BytesMoved == 0 {
			t.Error("sets moved but no bytes accounted")
		}
		if res.FragmentsAfter >= res.FragmentsBefore {
			t.Errorf("fragments did not shrink: %d -> %d", res.FragmentsBefore, res.FragmentsAfter)
		}
	}
	// Correctness after relocation: all data readable, integrity
	// holds, and the drive never saw an illegal write (AWA still 1).
	verifyAll(t, d, ref)
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if amp := d.Amplification(); amp.AWA != 1.0 {
		t.Errorf("AWA %v after GC", amp.AWA)
	}
	moved := d.MetricsSnapshot().Counters["sealdb_band_gc_bytes_total"]
	if st := d.Stats(); st.GCMoves != int64(res.SetsMoved) || moved != res.BytesMoved {
		t.Errorf("stats GCMoves %d, sealdb_band_gc_bytes_total %d != result %d sets, %d bytes", st.GCMoves, moved, res.SetsMoved, res.BytesMoved)
	}

	// The store keeps working and recovering after a GC pass.
	loadRandomInto(t, d, 2000, 18, ref)
	verifyAll(t, d, ref)
	dev := d.Device()
	d.Close()
	d2, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	verifyAll(t, d2, ref)
	if err := d2.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDefragmentBandsWrongMode(t *testing.T) {
	d, _ := Open(tinyConfig(ModeLevelDB))
	defer d.Close()
	if _, err := d.DefragmentBands(0); err == nil {
		t.Error("DefragmentBands accepted on a fixed-band store")
	}
}

func TestDefragmentBandsMaxMoves(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	loadRandom(t, d, 12000, 19)
	res, err := d.DefragmentBands(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetsMoved > 1 {
		t.Errorf("maxMoves=1 but moved %d sets", res.SetsMoved)
	}
}

func TestCompactRangeOnEmptyStore(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func ExampleDB_LevelProfile() {
	d, _ := Open(DefaultConfig(ModeSEALDB))
	defer d.Close()
	for i := 0; i < 100; i++ {
		d.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	p := d.LevelProfile()
	fmt.Println(len(p), "levels")
	// Output: 7 levels
}

// TestTableReaderLivesWithItsFile: a table's reader is opened once per
// FileMeta and goes where the FileMeta goes. Concurrent first reads of a
// cold table all get the one reader published; a trivial move keeps it. A
// relocated copy never inherits the member's reader, which names the number
// the edit removes: the copy of an open member starts with a reader of its
// own, opened from the bytes the relocation read, and that of a member no
// read opened starts without one.
func TestTableReaderLivesWithItsFile(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 100; i++ { // one table, flushed where the test asks
		if err := d.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprint("v", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	f := d.vs.Current().Files[0][0]
	if f.Reader.Load() != nil {
		t.Fatal("set-up: the flushed table is already open")
	}
	const readers = 8
	var (
		wg     sync.WaitGroup
		start  = make(chan struct{})
		tables [readers]*sstable.Table
	)
	for g := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			if tables[g], err = d.openTable(f); err != nil {
				t.Error(err)
			}
			if v, err := d.Get([]byte(fmt.Sprintf("key%03d", g))); err != nil || string(v) != fmt.Sprint("v", g) {
				t.Errorf("Get(key%03d) = %q, %v", g, v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	opened := f.Reader.Load()
	for g, tbl := range tables {
		if opened == nil || tbl != opened {
			t.Fatalf("reader %d got table %p, the FileMeta holds %p", g, tbl, opened)
		}
	}

	if compactLevel(t, d, 0) {
		t.Fatal("set-up: a lone L0 table was rewritten, not moved")
	}
	if moved := d.vs.Current().Files[1][0]; moved != f || moved.Reader.Load() != opened {
		t.Errorf("the trivial move left L1 with %v holding %p, want %v holding %p", moved, moved.Reader.Load(), f, opened)
	}

	ref := loadRandom(t, d, 14000, 17)
	verifyAll(t, d, ref)
	// Every other table is open, the rest are as if no read reached them;
	// a member's copy is found by its smallest key.
	readerOf, before := map[string]*sstable.Table{}, map[*version.FileMeta]bool{}
	v := d.vs.Current()
	for l := range v.Files {
		for i, f := range v.Files[l] {
			tbl, err := d.openTable(f)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 1 {
				tbl = nil
				f.Reader.Store(nil)
			}
			readerOf[string(f.Smallest)], before[f] = tbl, true
		}
	}
	held, _ := d.acquire()
	res, err := d.DefragmentBands(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetsMoved == 0 {
		t.Fatal("set-up: DefragmentBands relocated nothing")
	}
	var copies []*version.FileMeta
	for _, files := range d.vs.Current().Files {
		for _, f := range files {
			if !before[f] {
				copies = append(copies, f)
			}
		}
	}
	var open []*version.FileMeta
	for _, f := range copies {
		old, got := readerOf[string(f.Smallest)], f.Reader.Load()
		switch {
		case old == nil && got != nil:
			t.Errorf("copy %v of a table never opened starts with a reader", f)
		case old != nil && (got == nil || got == old):
			t.Errorf("copy %v of an open table holds %p, want a reader of its own (the member's was %p)", f, got, old)
		case old != nil:
			open = append(open, f)
		}
	}
	if len(open) == 0 || len(open) == len(copies) {
		t.Fatalf("set-up: %d of %d relocated members were open, want some of them", len(open), len(copies))
	}
	d.release(held)
	if len(d.retiring) != 0 {
		t.Fatalf("%d states still queued after the last reader left", len(d.retiring))
	}
	// The members' files are gone: a copy's reader reads its own file,
	// under its own number.
	for _, f := range open {
		d.cache.EvictFile(f.Num)
		if _, _, ok, err := f.Reader.Load().Get(f.Smallest.UserKey(), kv.MaxSeqNum); !ok || err != nil {
			t.Fatalf("Get(%q) from the reader of copy %v: ok %v, %v", f.Smallest.UserKey(), f, ok, err)
		}
		used := d.cache.Stats().UsedBytes
		if d.cache.EvictFile(f.Num); d.cache.Stats().UsedBytes >= used {
			t.Errorf("the reader of copy %v cached its block under another number", f)
		}
	}
	verifyAll(t, d, ref)
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
