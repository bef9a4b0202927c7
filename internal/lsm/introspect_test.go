package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/kv"
	"sealdb/internal/smr"
	"sealdb/internal/sstable"
	"sealdb/internal/storage"
	"sealdb/internal/vlog"
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

// faultyConfig wraps cfg's drive in a fault injector and returns where
// the injector will be once the store opens.
func faultyConfig(cfg Config) (Config, **faultfs.Drive) {
	fd := new(*faultfs.Drive)
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		*fd = faultfs.New(inner, 3)
		return *fd
	}
	return cfg, fd
}

// TestVerifyIntegritySeesDamageUnderACachedBlock flips a bit in the first
// block of a table whose every block a full scan has cached. The store
// keeps scanning from the cache; fsck reads the media and reports it.
func TestVerifyIntegritySeesDamageUnderACachedBlock(t *testing.T) {
	cfg, fd := faultyConfig(tinyConfig(ModeSEALDB))
	cfg.BlockCacheSize = 8 * kv.MiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadRandom(t, d, 3000, 17)
	disk := d.Device().Disk
	scan := func() int64 {
		before := disk.Stats().ReadOps
		if _, err := d.Scan(nil, 1<<20); err != nil {
			t.Fatal(err)
		}
		return disk.Stats().ReadOps - before
	}
	scan()
	if n := scan(); n != 0 {
		t.Fatalf("set-up: a second full scan read the device %d times, want 0", n)
	}
	loc := d.TableLocations()[0]
	if err := (*fd).FlipBit(loc.Off+8, 1); err != nil {
		t.Fatal(err)
	}
	if n := scan(); n != 0 {
		t.Fatalf("a scan after the flip read the device %d times, want 0", n)
	}
	if err := d.VerifyIntegrity(); !errors.Is(err, sstable.ErrCorruptBlock) {
		t.Fatalf("VerifyIntegrity over a damaged cached block of file %d = %v, want sstable.ErrCorruptBlock", loc.Num, err)
	}
}

// TestVerifyIntegritySeesDamageInAShadowedVlogRecord flips a bit in a
// sealed segment's record that an overwrite shadowed. No read serves it,
// but the collector's next pass over the segment would fail its scan and
// degrade the store, so fsck must report it now.
func TestVerifyIntegritySeesDamageInAShadowedVlogRecord(t *testing.T) {
	cfg, fd := faultyConfig(vlogConfig())
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put([]byte("victim"), bigValue("old", 700)); err != nil {
		t.Fatal(err)
	}
	old := pointerOf(t, d, "victim")
	want := bigValue("new", 700)
	if err := d.Put([]byte("victim"), want); err != nil {
		t.Fatal(err)
	}
	for i := 0; old.Seg == d.vlog.w.Seg(); i++ {
		if err := d.Put([]byte(fmt.Sprintf("fill%02d", i)), bigValue("fill", 700)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := d.vs.VlogSeg(old.Seg); !ok {
		t.Fatalf("set-up: segment %d was collected", old.Seg)
	}
	ext, err := d.backend.FileExtent(old.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := (*fd).FlipBit(ext.Off+int64(old.Off)+int64(old.Len)-1, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get([]byte("victim")); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after the flip = %d bytes, %v", len(got), err)
	}
	if err := d.VerifyIntegrity(); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("VerifyIntegrity over a damaged shadowed record = %v, want vlog.ErrCorrupt", err)
	}
}

// TestVerifyIntegrityMatchesServedPointers plants, as a key's newest
// version, a pointer into the middle of its record, then ones to another
// key's shadowed and serving records, then one into a segment nobody
// registered: fsck must fail on each.
func TestVerifyIntegrityMatchesServedPointers(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var ptrs []vlog.Pointer // a, b, b again
	for _, k := range []string{"a", "b", "b"} {
		if err := d.Put([]byte(k), bigValue(k, 700)); err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, pointerOf(t, d, k))
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	a := ptrs[0]
	mid, unknown := a, a
	mid.Off++
	unknown.Seg += 1000
	for _, c := range []struct {
		p    vlog.Pointer
		want string
	}{
		{mid, "no record of a registered segment begins"},
		{ptrs[1], `key "a" points at the record of key "b"`},
		{ptrs[2], `keys "a" and "b" both point at`},
		{unknown, "no record of a registered segment begins"},
	} {
		d.mu.Lock()
		d.seq++
		d.mem.Add(d.seq, kv.KindSet, []byte("a"), vlog.AppendPointer([]byte{vlogTagPtr}, c.p))
		d.visible.Store(uint64(d.seq))
		d.mu.Unlock()
		if err := d.VerifyIntegrity(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("VerifyIntegrity with key a pointing at %+v = %v, want %q", c.p, err, c.want)
		}
	}
}

// TestUnownedRuns checks the one walk of allocated bands against owned
// extents that recovery frees leaks by and fsck fails on.
func TestUnownedRuns(t *testing.T) {
	ext := func(off, end int64) storage.Extent { return storage.Extent{Off: off, Len: end - off} }
	own := func(off, end int64) ownedExtent { return ownedExtent{off: off, len: end - off} }
	bands := []storage.Extent{ext(0, 100), ext(200, 300)}
	for _, c := range []struct {
		name  string
		owned []ownedExtent
		runs  []storage.Extent
		stray int // index into owned, -1 for none
	}{
		{"covered", []ownedExtent{own(0, 60), own(60, 100), own(200, 300)}, nil, -1},
		{"gaps", []ownedExtent{own(10, 20), own(40, 100), own(250, 260)},
			[]storage.Extent{ext(0, 10), ext(20, 40), ext(200, 250), ext(260, 300)}, -1},
		{"nothing owned", nil, bands, -1},
		{"in free space", []ownedExtent{own(0, 100), own(120, 140), own(200, 300)}, nil, 1},
		{"across two bands", []ownedExtent{own(0, 50), own(50, 250)}, []storage.Extent{ext(250, 300)}, 1},
		{"past the last band", []ownedExtent{own(0, 100), own(200, 300), own(400, 410)}, nil, 2},
		{"overlapping", []ownedExtent{own(0, 80), own(20, 40), own(90, 100), own(200, 300)}, []storage.Extent{ext(80, 90)}, -1},
	} {
		runs, stray := unownedRuns(bands, c.owned)
		if fmt.Sprint(runs) != fmt.Sprint(c.runs) {
			t.Errorf("%s: runs %v, want %v", c.name, runs, c.runs)
		}
		if want := (c.stray >= 0); (stray != nil) != want || want && stray != &c.owned[c.stray] {
			t.Errorf("%s: stray %v, want index %d", c.name, stray, c.stray)
		}
	}
}

// TestRecoveryFreesLeakedRuns leaks extents the allocator places in holes
// and at the frontier, some of them adjacent: fsck reports the leak, and
// a reopen frees each unowned run once, in address order, after which
// fsck passes and a second reopen frees nothing.
func TestRecoveryFreesLeakedRuns(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadRandom(t, d, 4000, 1)
	var leaked int64
	for _, n := range []int64{32, 16, 8, 80, 4} {
		if _, _, err := d.Device().DBand.Alloc(n * kv.KiB); err != nil {
			t.Fatal(err)
		}
		leaked += n * kv.KiB
	}
	if err := d.VerifyIntegrity(); err == nil || !strings.Contains(err.Error(), "extent accounting") {
		t.Fatalf("VerifyIntegrity with leaked extents = %v, want an extent accounting error", err)
	}
	dev := d.Device()
	d.Close()
	for reopen := 0; reopen < 2; reopen++ {
		if d, err = OpenDevice(cfg, dev); err != nil {
			t.Fatal(err)
		}
		var freed, end int64
		for _, ev := range d.Events() {
			if ev.Type != "leaked_extent_reclaimed" {
				continue
			}
			if ev.Fields["off"] <= end && freed > 0 {
				t.Fatalf("reopen %d: a run at %d does not start past the end of the one before, %d", reopen, ev.Fields["off"], end)
			}
			freed, end = freed+ev.Fields["len"], ev.Fields["off"]+ev.Fields["len"]
		}
		if want := []int64{leaked, 0}[reopen]; freed != want || d.Recovery().LeakedBytes != want {
			t.Fatalf("reopen %d freed %d bytes (LeakedBytes %d), want %d", reopen, freed, d.Recovery().LeakedBytes, want)
		}
		if err := d.VerifyIntegrity(); err != nil {
			t.Fatalf("reopen %d: %v", reopen, err)
		}
		d.Close()
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
// cold table all get the one reader published; a trivial move keeps it.
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
}
