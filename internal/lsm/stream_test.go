package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/kv"
	"sealdb/internal/platter"
	"sealdb/internal/smr"
	"sealdb/internal/sstable"
	"sealdb/internal/version"
)

// User iterators stream (DESIGN.md §sstable.Cache, Streaming): past the
// second block of a table they read ahead through a window of their own
// and stop filling a full cache, and a Scan reads each level's share of
// its range in one device read (its span). These tests cover the engine's
// side of that: walks across file boundaries, media damage met in a
// window, what stays resident, an iterator that outlives its files'
// compaction, what a Scan reads and costs the host, and windows going
// back to their pool while other scans run.

// streamConfig is tinyConfig with tables of 16 blocks, so that most of a
// table is past its second block, and the given cache.
func streamConfig(mode Mode, cache int64) Config {
	cfg := tinyConfig(mode)
	cfg.SSTableSize = 64 * kv.KiB
	cfg.MemtableSize = 64 * kv.KiB
	cfg.BandSize = 640 * kv.KiB
	cfg.BlockCacheSize = cache
	cfg.applyMode()
	return cfg
}

// loadStream writes n keys with values near 400 bytes, ten to a block, in
// random order and returns the reference state.
func loadStream(t *testing.T, d *DB, n int) map[string]string {
	t.Helper()
	ref := make(map[string]string, n)
	for _, i := range rand.New(rand.NewSource(int64(n))).Perm(n) {
		k := fmt.Sprintf("sk%06d", i)
		ref[k] = string(bigValue(k, 350+i%100))
		if err := d.Put([]byte(k), []byte(ref[k])); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func sortedKeys(ref map[string]string) []string {
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStreamingWalkAcrossFilesMatchesReference: Next-heavy random walks
// over a store of many tables, with windows from two blocks to the whole
// table and a cache that is full throughout, return exactly the
// reference — sorted levels (one table after another) and SMRDB's
// overlapped level (every table its own child) alike.
func TestStreamingWalkAcrossFilesMatchesReference(t *testing.T) {
	for _, mode := range []Mode{ModeSEALDB, ModeSMRDB, ModeLevelDB} {
		for _, scale := range []float64{1.0 / 16, 1.0 / 4, 1} {
			cfg := streamConfig(mode, 48*kv.KiB)
			cfg.DeviceTimeScale = scale
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := loadStream(t, d, 3000)
			keys := sortedKeys(ref)
			it := d.NewIterator()
			rng := rand.New(rand.NewSource(int64(mode) + 5))
			pos := -1
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(200); {
				case r < 1:
					it.SeekToFirst()
					pos = 0
				case r < 2:
					it.SeekToLast()
					pos = len(keys) - 1
				case r < 4:
					target := fmt.Sprintf("sk%06d", rng.Intn(len(keys)+10))
					it.Seek([]byte(target))
					pos = sort.SearchStrings(keys, target)
				case r < 10 && pos >= 0:
					it.Prev()
					pos--
				case pos >= 0:
					it.Next()
					pos++
				}
				if pos < 0 || pos >= len(keys) {
					if it.Valid() || it.Error() != nil {
						t.Fatalf("%v scale %v step %d: valid at %q past the end, err %v", mode, scale, step, it.Key(), it.Error())
					}
					pos = -1
					continue
				}
				if !it.Valid() || string(it.Key()) != keys[pos] || string(it.Value()) != ref[keys[pos]] {
					t.Fatalf("%v scale %v step %d: at %q (valid %v, err %v), reference at %q", mode, scale, step, it.Key(), it.Valid(), it.Error(), keys[pos])
				}
			}
			it.Close()
			if n := d.MetricsSnapshot().Counters["sealdb_sstable_streamed_blocks_total"]; n < 100 {
				t.Errorf("%v scale %v: only %d blocks streamed; the walk did not exercise the window", mode, scale, n)
			}
			d.Close()
		}
	}
}

// TestStreamedCorruptBlockFailsTheScan: a bit flipped on the media in a
// block that a scan reaches through its window ends the scan with
// ErrCorruptBlock naming that block, counted once in
// sealdb_sstable_corrupt_blocks_total, after returning only entries that
// are right.
func TestStreamedCorruptBlockFailsTheScan(t *testing.T) {
	cfg := streamConfig(ModeSEALDB, 48*kv.KiB)
	var fd *faultfs.Drive
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 3)
		return fd
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := loadStream(t, d, 2000)
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(ref)
	// The table holding the middle key, damaged three fifths of the way
	// in: about its tenth data block of sixteen.
	d.mu.Lock()
	var victim uint64
	var smallest string
	v := d.vs.Current()
	for level := 1; level < cfg.NumLevels(); level++ {
		for _, f := range v.Overlaps(level, []byte(keys[1000]), []byte(keys[1000]), true) {
			victim, smallest = f.Num, string(f.Smallest.UserKey())
		}
	}
	ext, err := d.backend.FileExtent(victim)
	d.mu.Unlock()
	if victim == 0 || err != nil {
		t.Fatalf("no table holds %q: %v", keys[1000], err)
	}
	flipped := ext.Len * 3 / 5
	if err := fd.FlipBit(ext.Off+flipped, 2); err != nil {
		t.Fatal(err)
	}

	start := sort.SearchStrings(keys, smallest)
	got, err := d.Scan([]byte(smallest), len(keys))
	var cbe *sstable.CorruptBlockError
	if !errors.Is(err, sstable.ErrCorruptBlock) || !errors.As(err, &cbe) {
		t.Fatalf("Scan over the damaged table = %d entries, %v; want ErrCorruptBlock", len(got), err)
	}
	if cbe.FileNum != victim || int64(cbe.Offset) > flipped || int64(cbe.Offset)+6000 < flipped {
		t.Errorf("error names file %d offset %d; bit flipped in file %d at %d", cbe.FileNum, cbe.Offset, victim, flipped)
	}
	if len(got) < 20 || start+len(got) >= len(keys) {
		t.Fatalf("Scan returned %d entries before the error", len(got))
	}
	for i, e := range got {
		if k := keys[start+i]; string(e.Key) != k || string(e.Value) != ref[k] {
			t.Fatalf("entry %d is %q, want %q: damaged bytes were emitted", i, e.Key, k)
		}
	}
	c := d.MetricsSnapshot().Counters
	if c["sealdb_sstable_corrupt_blocks_total"] != 1 || c["sealdb_sstable_streamed_blocks_total"] == 0 {
		t.Errorf("corrupt blocks counted %d (want 1), streamed %d (want > 0)",
			c["sealdb_sstable_corrupt_blocks_total"], c["sealdb_sstable_streamed_blocks_total"])
	}
	d.Close()
}

// deviceReads runs fn and returns how many device reads it made.
func deviceReads(d *DB, fn func()) int64 {
	before := d.disk.Stats().ReadOps
	fn()
	return d.disk.Stats().ReadOps - before
}

// TestScanLeavesHotBlocksResident: keys warmed by Get are still served
// from the cache after a scan over ten times the cache; and a store that
// fits the cache is read from the device once, however often it is
// scanned.
func TestScanLeavesHotBlocksResident(t *testing.T) {
	cfg := DefaultConfig(ModeSEALDB) // 256 KiB tables: 64 blocks each
	cfg.BlockCacheSize = 256 * kv.KiB
	cfg.DiskCapacity = 256 * kv.MiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadStream(t, d, 6500) // 2.6 MiB
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(ref)
	getHot := func() {
		for i := 0; i < 12; i++ {
			k := keys[i*len(keys)/12]
			if v, err := d.Get([]byte(k)); err != nil || string(v) != ref[k] {
				t.Fatalf("Get(%q) = %d bytes, %v", k, len(v), err)
			}
		}
	}
	scanAll := func() {
		if kvs, err := d.Scan(nil, len(keys)); err != nil || len(kvs) != len(keys) {
			t.Fatalf("Scan = %d entries, %v", len(kvs), err)
		}
	}
	scanAll() // a cache with room takes streamed blocks too: fill it first
	getHot()
	if n := deviceReads(d, getHot); n != 0 {
		t.Fatalf("set-up: warmed Gets still make %d device reads", n)
	}
	before := d.disk.Stats().BytesRead
	if scanAll(); d.disk.Stats().BytesRead-before < 10*cfg.BlockCacheSize {
		t.Fatalf("set-up: a scan of ten times the cache read only %d bytes", d.disk.Stats().BytesRead-before)
	}
	if n := deviceReads(d, getHot); n != 0 {
		t.Errorf("after a long scan the warmed Gets make %d device reads, want 0", n)
	}

	small, err := Open(streamConfig(ModeSEALDB, 1*kv.MiB))
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	ref = loadStream(t, small, 1200) // under 500 KiB
	scanSmall := func() {
		if kvs, err := small.Scan(nil, len(ref)); err != nil || len(kvs) != len(ref) {
			t.Fatalf("Scan = %d entries, %v", len(kvs), err)
		}
	}
	scanSmall()
	if n := deviceReads(small, scanSmall); n != 0 {
		t.Errorf("repeated scan of a store that fits the cache makes %d device reads, want 0", n)
	}
}

// TestStreamingIteratorOutlivesCompaction: an iterator in the middle of a
// table, its window filled, keeps returning its snapshot while every
// file under it is compacted away and new data lands: the pin keeps the
// files, the window is only a copy of their bytes.
func TestStreamingIteratorOutlivesCompaction(t *testing.T) {
	d, err := Open(streamConfig(ModeSEALDB, 48*kv.KiB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadStream(t, d, 2500)
	keys := sortedKeys(ref)
	it := d.NewIterator()
	pos := 700
	it.Seek([]byte(keys[pos]))
	for ; pos < 760; pos++ { // six blocks in
		if !it.Valid() || string(it.Key()) != keys[pos] {
			t.Fatalf("before compaction: at %q, want %q", it.Key(), keys[pos])
		}
		it.Next()
	}
	for i := 0; i < 2500; i += 2 {
		if err := d.Put([]byte(keys[i]), []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	parked := len(d.retiring)
	d.mu.Unlock()
	if parked == 0 {
		t.Fatal("set-up: no reclamation parked behind the iterator")
	}
	for ; pos < len(keys); pos++ {
		if !it.Valid() || string(it.Key()) != keys[pos] || !bytes.Equal(it.Value(), []byte(ref[keys[pos]])) {
			t.Fatalf("after compaction: at %q (valid %v, err %v), want %q of the snapshot", it.Key(), it.Valid(), it.Error(), keys[pos])
		}
		it.Next()
	}
	if it.Valid() || it.Error() != nil {
		t.Fatalf("iterator did not end cleanly: %v", it.Error())
	}
	it.Close()
	d.mu.Lock()
	parked = len(d.retiring)
	d.mu.Unlock()
	if parked != 0 {
		t.Errorf("%d reclamations still parked after Close", parked)
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// scanAllocs bounds a Scan's allocations over a handful of tables (9 to 12
// measured for 1 to 100 records), and scanOverhead the bytes of one with a
// huge limit past twice its records' (15.7 KiB measured for 10 records of
// ~450 B: chunks for 1, 2, 4 and 8 records, the result's 128 slots, the
// iterator).
const scanAllocs, scanOverhead = 14, 16 << 10

// TestScanAllocatesPerScan: a Scan allocates per scan, not per record,
// whatever its length, since its records are cut from shared chunks; an
// append to a returned key or value leaves the next record as it was; and
// a limit far beyond the store sizes neither the result nor its chunks.
func TestScanAllocatesPerScan(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	d, err := Open(streamConfig(ModeSEALDB, 4*kv.MiB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadStream(t, d, 1500)
	keys := sortedKeys(ref)
	for _, n := range []int{1, 10, 100} {
		scan := func() {
			if kvs, err := d.Scan([]byte(keys[300]), n); err != nil || len(kvs) != n || string(kvs[n-1].Key) != keys[299+n] {
				t.Fatalf("Scan = %d entries, %v", len(kvs), err)
			}
		}
		scan()
		if allocs := testing.AllocsPerRun(20, scan); allocs > scanAllocs {
			t.Errorf("a Scan of %d records allocates %.0f times, want at most %d whatever its length", n, allocs, scanAllocs)
		}
	}

	kvs, err := d.Scan([]byte(keys[300]), 10)
	if err != nil || len(kvs) != 10 {
		t.Fatalf("Scan = %d entries, %v", len(kvs), err)
	}
	for _, r := range kvs {
		_ = append(r.Key, "overwrite"...)
		_ = append(r.Value, "overwrite"...)
	}
	for i, r := range kvs {
		if string(r.Key) != keys[300+i] || string(r.Value) != ref[keys[300+i]] {
			t.Fatalf("record %d is %q = %.16q... after appends to every record, want %q = %.16q...", i, r.Key, r.Value, keys[300+i], ref[keys[300+i]])
		}
	}

	// A limit far beyond the store sizes neither the result nor a chunk
	// from it (after a first Scan has read its blocks into the cache).
	const runs = 20
	if _, err := d.Scan([]byte(keys[1490]), 1<<40); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	records := 0
	for i := 0; i < runs; i++ {
		kvs, err := d.Scan([]byte(keys[1490]), 1<<40)
		if err != nil || len(kvs) != 10 || cap(kvs) > 1024 {
			t.Fatalf("Scan with a huge limit = %d entries (cap %d), %v", len(kvs), cap(kvs), err)
		}
		for _, r := range kvs {
			records += len(r.Key) + len(r.Value)
		}
	}
	runtime.ReadMemStats(&after)
	if perScan, want := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(2*records/runs+scanOverhead); perScan > want {
		t.Errorf("a Scan of %d bytes of records with a huge limit allocates %d bytes, want at most %d", records/runs, perScan, want)
	}
}

// TestScanSkipsTombstonesWithoutAllocating: a Scan across 100 deleted keys
// allocates no more than one of as many records across none.
func TestScanSkipsTombstonesWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	d, err := Open(streamConfig(ModeSEALDB, 4*kv.MiB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	keys := sortedKeys(loadStream(t, d, 1500))
	for _, k := range keys[400:500] {
		if err := d.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(start, last string) float64 {
		scan := func() {
			if kvs, err := d.Scan([]byte(start), 100); err != nil || len(kvs) != 100 || string(kvs[99].Key) != last {
				t.Fatalf("Scan(%s) = %d entries, %v", start, len(kvs), err)
			}
		}
		scan()
		return testing.AllocsPerRun(20, scan)
	}
	across, none := allocs(keys[350], keys[549]), allocs(keys[900], keys[999])
	if across > none {
		t.Errorf("a Scan across 100 tombstones allocates %.0f times, one across none %.0f", across, none)
	}
}

// readSink records the offset of every device read.
type readSink struct{ offs []int64 }

func (s *readSink) ObserveAccess(a platter.AccessInfo) {
	if !a.Write {
		s.offs = append(s.offs, a.Offset)
	}
}

// fileAt returns the table whose extent holds device offset off, and its
// level, or level -1.
func fileAt(t *testing.T, d *DB, v *version.Version, off int64) (uint64, int) {
	t.Helper()
	for level, files := range v.Files {
		for _, f := range files {
			ext, err := d.backend.FileExtent(f.Num)
			if err != nil {
				t.Fatal(err)
			}
			if off >= ext.Off && off < ext.Off+ext.Len {
				return f.Num, level
			}
		}
	}
	return 0, -1
}

// TestScanPositionsEachLevelOnce: with L0 to L3 populated, a Scan whose
// share of each level fits its span reads every L0 table and every sorted
// level it stays in one table of in one device read; and a Scan returns
// the reference state whatever its limit.
func TestScanPositionsEachLevelOnce(t *testing.T) {
	cfg := streamConfig(ModeSEALDB, 4*kv.MiB)
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadStream(t, d, 45000)
	keys := sortedKeys(ref)
	d.mu.Lock()
	v := d.vs.Current()
	d.mu.Unlock()
	for level := 0; level <= 3; level++ {
		if len(v.Files[level]) == 0 {
			t.Fatalf("set-up: level %d is empty", level)
		}
	}
	for _, limit := range []int{1, 7, 100, 1 << 40} {
		for _, i := range []int{0, 1, 2345, 4500, 8990, len(keys) - 1} {
			got, err := d.Scan([]byte(keys[i]), limit)
			if err != nil || len(got) != min(limit, len(keys)-i) {
				t.Fatalf("Scan(%q, %d) = %d entries, %v", keys[i], limit, len(got), err)
			}
			for j, e := range got {
				if k := keys[i+j]; string(e.Key) != k || string(e.Value) != ref[k] {
					t.Fatalf("Scan(%q, %d) entry %d is %q, want %q", keys[i], limit, j, e.Key, k)
				}
			}
		}
	}

	// The table a sorted level's seek enters must hold a key past the
	// scan's last: then the level never moves on to its next table.
	const limit = 7
	staysInOneTable := func(i int) bool {
		last := []byte(keys[i+limit-1])
		for level := 1; level < cfg.NumLevels(); level++ {
			files := v.Files[level]
			j := sort.Search(len(files), func(j int) bool { return string(files[j].Largest.UserKey()) >= keys[i] })
			if j < len(files) && kv.CompareUser(files[j].Largest.UserKey(), last) <= 0 {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(3))
	for scans := 0; scans < 25; {
		i := rng.Intn(len(keys) - limit)
		if !staysInOneTable(i) {
			continue
		}
		scans++
		start := []byte(keys[i])
		if _, err := d.Scan(start, limit); err != nil { // opens the tables
			t.Fatal(err)
		}
		for _, files := range v.Files {
			for _, f := range files {
				d.cache.EvictFile(f.Num)
			}
		}
		var sink readSink
		d.disk.SetSink(&sink)
		_, err := d.Scan(start, limit)
		d.disk.SetSink(nil)
		if err != nil {
			t.Fatal(err)
		}
		perTable, perLevel := map[uint64]int{}, map[int]int{}
		for _, off := range sink.offs {
			num, level := fileAt(t, d, v, off)
			if level < 0 {
				t.Fatalf("Scan(%q) read device offset %d outside every table", start, off)
			}
			perTable[num]++
			perLevel[level]++
		}
		for num, n := range perTable {
			if n > 1 {
				t.Errorf("Scan(%q, %d) read table %d %d times", start, limit, num, n)
			}
		}
		for level := 1; level < cfg.NumLevels(); level++ {
			if perLevel[level] > 1 {
				t.Errorf("Scan(%q, %d) read level %d %d times", start, limit, level, perLevel[level])
			}
		}
	}
}

// TestScanStopsAtItsLastRecord: a Scan whose limit ends on the last record
// of a table does not step on into the next table of its level: nothing
// of that table is read.
func TestScanStopsAtItsLastRecord(t *testing.T) {
	d, err := Open(streamConfig(ModeSEALDB, 4*kv.MiB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadStream(t, d, 3000)
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(ref)
	d.mu.Lock()
	v := d.vs.Current()
	d.mu.Unlock()
	level := len(v.Files) - 1
	for len(v.Files[level]) < 2 {
		level--
	}
	a, b := v.Files[level][0], v.Files[level][1]
	first := sort.SearchStrings(keys, string(a.Smallest.UserKey()))
	limit := sort.SearchStrings(keys, string(a.Largest.UserKey())) + 1 - first
	var sink readSink
	d.disk.SetSink(&sink)
	got, err := d.Scan([]byte(keys[first]), limit)
	d.disk.SetSink(nil)
	if err != nil || len(got) != limit || string(got[limit-1].Key) != string(a.Largest.UserKey()) {
		t.Fatalf("Scan = %d entries, %v; want %d ending at %q", len(got), err, limit, a.Largest.UserKey())
	}
	for _, off := range sink.offs {
		if num, _ := fileAt(t, d, v, off); num == b.Num {
			t.Fatalf("a Scan ending on table %d's last record read table %d at %d", a.Num, b.Num, off)
		}
	}
}

// TestConcurrentScansNeverShareAWindow: Scans and iterators closed at any
// point, beside Puts and CompactRange, return only records that are right.
// Under -tags sealdb_invariants a window goes back to its pool poisoned,
// so two iterators reading through one would fail a block checksum.
func TestConcurrentScansNeverShareAWindow(t *testing.T) {
	d, err := Open(streamConfig(ModeSEALDB, 256*kv.KiB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadStream(t, d, 2000)
	keys := sortedKeys(ref)
	check := func(k, v []byte) error {
		if !bytes.Equal(v, bigValue(string(k), len(v))) {
			return fmt.Errorf("key %q carries a %d-byte value that is not its own", k, len(v))
		}
		return nil
	}
	rounds := 300
	if testing.Short() {
		rounds = 100
	}
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				start := []byte(keys[rng.Intn(len(keys))])
				if r%3 == 0 { // an iterator closed part way
					it := d.NewIterator()
					it.Seek(start)
					for n := rng.Intn(40); n > 0 && it.Valid(); n-- {
						if err := check(it.Key(), it.Value()); err != nil {
							errs <- err
							return
						}
						it.Next()
					}
					err := it.Error()
					it.Close()
					if err != nil {
						errs <- err
						return
					}
					continue
				}
				limit := 1 + rng.Intn(150)
				if r%7 == 0 {
					limit = 1 << 40
				}
				got, err := d.Scan(start, limit)
				if err != nil {
					errs <- err
					return
				}
				for i, e := range got {
					if err := check(e.Key, e.Value); err != nil || i > 0 && bytes.Compare(got[i-1].Key, e.Key) >= 0 {
						errs <- fmt.Errorf("Scan(%q) entry %d: %v (order %q, %q)", start, i, err, got[max(i-1, 0)].Key, e.Key)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for r := 0; r < rounds*3; r++ {
			k := keys[rng.Intn(len(keys))]
			if err := d.Put([]byte(k), bigValue(k, 300+rng.Intn(200))); err != nil {
				errs <- err
				return
			}
			if r%(rounds/2) == 0 {
				if err := d.CompactRange(nil, nil); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSpanFor: no span without a limit, the two-block floor before the DB
// has built a table, then the level's share of the limit in blocks of the
// mean entry built, one block per entry at most.
func TestSpanFor(t *testing.T) {
	d := &DB{}
	if got := d.spanFor(100, 1, 2); got != 2 {
		t.Errorf("before any table: span %d, want 2", got)
	}
	d.builtBytes.Add(1 << 20) // 512-byte entries
	d.builtEntries.Add(1 << 11)
	for _, c := range []struct {
		limit        int
		bytes, total int64
		want         int
	}{{0, 1, 2, 0}, {100, 1, 2, 2 + 6}, {100, 2, 2, 2 + 12}, {1 << 40, 1, 1, 2 + 1<<30}} {
		if got := d.spanFor(c.limit, c.bytes, c.total); got != c.want {
			t.Errorf("spanFor(%d, %d, %d) = %d, want %d", c.limit, c.bytes, c.total, got, c.want)
		}
	}
	d.builtBytes.Add(1 << 30) // now ~256 KiB entries
	d.builtEntries.Add(1 << 11)
	if got := d.spanFor(100, 1, 2); got != 2+50 {
		t.Errorf("entries larger than a block: span %d, want one block per entry, 52", got)
	}
}
