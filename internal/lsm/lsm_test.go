package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sealdb/internal/kv"
	"sealdb/internal/platter"
	"sealdb/internal/smr"
)

// tinyConfig returns a geometry small enough that a few thousand keys
// exercise flushes and multi-level compactions quickly.
func tinyConfig(mode Mode) Config {
	cfg := Config{Mode: mode, Seed: 1}
	cfg.Geometry = Geometry{
		SSTableSize:        16 * kv.KiB,
		BandSize:           160 * kv.KiB,
		MemtableSize:       16 * kv.KiB,
		MaxCompactionFiles: 8,
		DiskCapacity:       256 * kv.MiB,
		ManifestSize:       2 * kv.MiB,
		BlockCacheSize:     1 * kv.MiB,
	}
	cfg.applyMode()
	return cfg
}

func allModes() []Mode {
	return []Mode{ModeLevelDB, ModeLevelDBSets, ModeSMRDB, ModeSEALDB}
}

// loadRandom writes n random keys (with some overwrites and deletes)
// and returns the reference state.
func loadRandom(t *testing.T, d *DB, n int, seed int64) map[string]string {
	t.Helper()
	ref := map[string]string{}
	loadRandomInto(t, d, n, seed, ref)
	return ref
}

// loadRandomInto is loadRandom mutating a shared reference map, so
// that deletes performed by a second load phase are reflected in the
// first phase's expectations.
func loadRandomInto(t *testing.T, d *DB, n int, seed int64, ref map[string]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%07d", rng.Intn(n))
		switch {
		case rng.Intn(10) == 0 && len(ref) > 0:
			if err := d.Delete([]byte(k)); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
			delete(ref, k)
		default:
			v := fmt.Sprintf("value-%d-%d-%032d", i, rng.Int63(), i)
			if err := d.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			ref[k] = v
		}
	}
}

func verifyAll(t *testing.T, d *DB, ref map[string]string) {
	t.Helper()
	for k, want := range ref {
		got, err := d.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("Get(%q) = %q, want %q", k, got, want)
		}
	}
	// A few absent keys.
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("absent%07d", i)
		if _, err := d.Get([]byte(k)); err != ErrNotFound {
			t.Fatalf("Get(%q) err = %v, want ErrNotFound", k, err)
		}
	}
}

func TestBasicCRUDAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if err := d.Put([]byte("a"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			if v, _ := d.Get([]byte("a")); string(v) != "1" {
				t.Fatalf("got %q", v)
			}
			if err := d.Put([]byte("a"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			if v, _ := d.Get([]byte("a")); string(v) != "2" {
				t.Fatalf("overwrite: got %q", v)
			}
			if err := d.Delete([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Get([]byte("a")); err != ErrNotFound {
				t.Fatalf("after delete: %v", err)
			}
			if _, err := d.Get([]byte("never")); err != ErrNotFound {
				t.Fatalf("missing key: %v", err)
			}
		})
	}
}

func TestLoadAndReadBackAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ref := loadRandom(t, d, 4000, 42)
			if st := d.Stats(); st.FlushCount == 0 {
				t.Error("load did not trigger flushes")
			}
			verifyAll(t, d, ref)
		})
	}
}

func TestCompactionsReachDeepLevels(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadRandom(t, d, 8000, 7)
	st := d.Stats()
	if st.CompactionCount == 0 {
		t.Fatal("no compactions ran")
	}
	v := d.vs.Current()
	if v.NumFiles(2) == 0 {
		t.Errorf("no files reached L2; level sizes: %v", levelSizes(d))
	}
	verifyAll(t, d, ref)
}

func levelSizes(d *DB) []int {
	v := d.vs.Current()
	out := make([]int, d.cfg.NumLevels())
	for l := range out {
		out[l] = v.NumFiles(l)
	}
	return out
}

func TestSMRDBUsesTwoLevels(t *testing.T) {
	d, err := Open(tinyConfig(ModeSMRDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadRandom(t, d, 16000, 3) // L0, never read, falls due at its twelfth band-sized table
	v := d.vs.Current()
	for l := 2; l < 7; l++ {
		if v.NumFiles(l) != 0 {
			t.Errorf("SMRDB has files at L%d", l)
		}
	}
	if v.NumFiles(1) == 0 {
		t.Error("SMRDB never compacted into L1")
	}
	verifyAll(t, d, ref)
}

func TestSEALDBZeroAuxiliaryWriteAmplification(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadRandom(t, d, 6000, 5)
	if awa := smr.AWA(d.dev.Drive); awa != 1.0 {
		t.Errorf("SEALDB AWA = %v, want exactly 1.0", awa)
	}
	amp := d.Amplification()
	if amp.WA <= 1 {
		t.Errorf("WA = %v, expected > 1 after compactions", amp.WA)
	}
	if amp.AWA != 1.0 {
		t.Errorf("AWA = %v", amp.AWA)
	}
}

func TestLevelDBOnSMRHasAuxiliaryAmplification(t *testing.T) {
	d, err := Open(tinyConfig(ModeLevelDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadRandom(t, d, 8000, 5)
	if awa := smr.AWA(d.dev.Drive); awa <= 1.05 {
		t.Errorf("LevelDB-on-SMR AWA = %v, expected well above 1 from band RMW", awa)
	}
}

// TestSEALDBSetsAreContiguous: in both modes whose engine groups its
// outputs, every file at level >= 2 that a compaction wrote belongs to a
// set, the files of a set lie inside its one extent in file order, and a
// set that lost no member tiles its extent from the start, back to back.
func TestSEALDBSetsAreContiguous(t *testing.T) {
	for _, mode := range []Mode{ModeSEALDB, ModeLevelDBSets} {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			loadRandom(t, d, 10000, 11)
			v := d.vs.Current()
			setFiles := map[uint64][]uint64{}
			deepFiles := 0
			for l := 2; l < 7; l++ {
				for _, f := range v.Files[l] {
					deepFiles++
					if f.SetID == 0 {
						continue // trivially moved files keep no set
					}
					setFiles[f.SetID] = append(setFiles[f.SetID], f.Num)
				}
			}
			if deepFiles == 0 {
				t.Fatal("no deep files; load too small")
			}
			whole := 0
			for id, files := range setFiles {
				rec, ok := d.vs.Sets()[id]
				if !ok {
					t.Fatalf("set %d not in manifest records", id)
				}
				sort.Slice(files, func(i, j int) bool { return files[i] < files[j] })
				end := rec.Off
				for i, num := range files {
					e, err := d.backend.FileExtent(num)
					if err != nil {
						t.Fatalf("set %d file %d: %v", id, num, err)
					}
					if e.Off < end || e.End() > rec.Off+rec.Len {
						t.Fatalf("set %d member %d at %v, not past %d inside set extent [%d,%d)",
							id, num, e, end, rec.Off, rec.Off+rec.Len)
					}
					// Members lie in file order; gaps are where dead members lived.
					if len(files) == rec.Members && e.Off != end {
						t.Fatalf("set %d lost no member, yet member %d of %d starts at %d, not %d",
							id, i, len(files), e.Off, end)
					}
					end = e.End()
				}
				if len(files) == rec.Members && len(files) > 1 {
					whole++
				}
			}
			if whole == 0 {
				t.Fatalf("no set of several members kept all of them (%d sets)", len(setFiles))
			}
		})
	}
}

// TestBaselinesFormNoSets is the converse: LevelDB and SMRDB write every
// compaction output as a file of its own, so no file carries a set.
func TestBaselinesFormNoSets(t *testing.T) {
	for _, mode := range []Mode{ModeLevelDB, ModeSMRDB} {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			loadRandom(t, d, 10000, 11)
			if err := d.CompactAll(); err != nil {
				t.Fatal(err)
			}
			v := d.vs.Current()
			deep := min(2, d.cfg.NumLevels()-1) // L2, or SMRDB's last level
			deepFiles := 0
			for l := range v.Files {
				for _, f := range v.Files[l] {
					if f.SetID != 0 {
						t.Fatalf("L%d file %d carries set %d", l, f.Num, f.SetID)
					}
					if l >= deep {
						deepFiles++
					}
				}
			}
			if deepFiles == 0 {
				t.Fatalf("no file at L%d or deeper; load too small", deep)
			}
			if n := len(d.vs.Sets()); n != 0 {
				t.Errorf("%d set records", n)
			}
			if n := d.MetricsSnapshot().Counters["sealdb_sets_created_total"]; n != 0 {
				t.Errorf("sealdb_sets_created_total = %d", n)
			}
		})
	}
}

// jobWrites is a platter.Sink recording every device write together
// with the number of flush/compaction jobs completed before it: a
// job's own writes carry its index in d.compactions. Accesses are
// issued under d.mu, so reading d.compactions here is serialized.
type jobWrites struct {
	d      *DB
	writes []jobWrite
}

type jobWrite struct {
	job      int
	off, end int64
}

func (j *jobWrites) ObserveAccess(ai platter.AccessInfo) {
	if ai.Write {
		j.writes = append(j.writes, jobWrite{len(j.d.compactions), ai.Offset, ai.Offset + int64(ai.Length)})
	}
}

func TestCompactionWritesAreSequentialInSEALDB(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := &jobWrites{d: d}
	d.disk.SetSink(rec)
	loadRandom(t, d, 10000, 13)
	d.disk.SetSink(nil)

	// For every compaction that produced a set (output level >= 2),
	// the platter writes it issued inside the set's extent must form
	// one ascending contiguous run covering the whole extent.
	sets := 0
	for job, ci := range d.Stats().Compactions {
		if ci.Flush || ci.TrivialMove || ci.ToLevel < 2 || ci.OutputFiles == 0 {
			continue
		}
		sets++
		first, last := ci.OutputPlacements[0], ci.OutputPlacements[len(ci.OutputPlacements)-1]
		setOff, setEnd := first.Off, last.End()
		next := setOff
		for _, w := range rec.writes {
			if w.job != job || w.end <= setOff || w.off >= setEnd {
				continue
			}
			if w.off != next {
				t.Fatalf("compaction %d: write at %d, want %d: set [%d,%d) not written as one ascending run",
					ci.ID, w.off, next, setOff, setEnd)
			}
			next = w.end
		}
		if next < setEnd {
			t.Fatalf("compaction %d: platter writes cover [%d,%d) of set [%d,%d)", ci.ID, setOff, next, setOff, setEnd)
		}
	}
	if sets == 0 {
		t.Fatal("no set-producing compactions")
	}
}

func TestBatchAtomicityAndSequencing(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b := NewBatch()
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	b.Delete([]byte("x"))
	if err := d.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get([]byte("x")); err != ErrNotFound {
		t.Error("delete within batch not applied last")
	}
	if v, _ := d.Get([]byte("y")); string(v) != "2" {
		t.Error("batch put lost")
	}
	if d.Seq() != 3 {
		t.Errorf("seq = %d, want 3", d.Seq())
	}
	// Empty batch is a no-op.
	if err := d.Apply(NewBatch()); err != nil {
		t.Fatal(err)
	}
	if d.Seq() != 3 {
		t.Error("empty batch consumed sequence numbers")
	}
}

func TestReopenRecoversEverything(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := tinyConfig(mode)
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := loadRandom(t, d, 3000, 17)
			// A few writes that only live in the WAL.
			for i := 0; i < 10; i++ {
				k := fmt.Sprintf("wal-only-%d", i)
				if err := d.Put([]byte(k), []byte("fresh")); err != nil {
					t.Fatal(err)
				}
				ref[k] = "fresh"
			}
			seqBefore := d.Seq()
			dev := d.Device()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d2, err := OpenDevice(cfg, dev)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d2.Close()
			if d2.Seq() < seqBefore {
				t.Errorf("sequence went backwards: %d < %d", d2.Seq(), seqBefore)
			}
			verifyAll(t, d2, ref)
			// The store keeps working after recovery.
			loadRandomInto(t, d2, 1000, 18, ref)
			verifyAll(t, d2, ref)
		})
	}
}

func TestReopenTwiceWithSets(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	d, _ := Open(cfg)
	ref := loadRandom(t, d, 5000, 23)
	dev := d.Device()
	d.Close()
	d2, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Push more data through so recovered sets get compacted away.
	loadRandomInto(t, d2, 5000, 24, ref)
	d2.Close()
	d3, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	verifyAll(t, d3, ref)
	if awa := smr.AWA(d3.dev.Drive); awa != 1.0 {
		t.Errorf("AWA after recovery cycles = %v", awa)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Put([]byte("k"), []byte("old"))
	snap := d.NewSnapshot()
	d.Put([]byte("k"), []byte("new"))
	d.Delete([]byte("gone"))

	if v, err := d.GetAt([]byte("k"), snap); err != nil || string(v) != "old" {
		t.Fatalf("snapshot read = %q, %v", v, err)
	}
	if v, _ := d.Get([]byte("k")); string(v) != "new" {
		t.Error("latest read wrong")
	}

	// Churn hard so compactions run; the snapshot must still see
	// the old value afterwards.
	loadRandom(t, d, 5000, 31)
	if v, err := d.GetAt([]byte("k"), snap); err != nil || string(v) != "old" {
		t.Fatalf("snapshot read after compactions = %q, %v", v, err)
	}
	snap.Release()
	snap.Release() // double release is a no-op
}

func TestIteratorMatchesReference(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ref := loadRandom(t, d, 4000, 51)
			keys := make([]string, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			sort.Strings(keys)

			it := d.NewIterator()
			defer it.Close()
			i := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if i >= len(keys) {
					t.Fatalf("iterator yielded extra key %q", it.Key())
				}
				if string(it.Key()) != keys[i] {
					t.Fatalf("position %d: got %q, want %q", i, it.Key(), keys[i])
				}
				if string(it.Value()) != ref[keys[i]] {
					t.Fatalf("value mismatch at %q", keys[i])
				}
				i++
			}
			if err := it.Error(); err != nil {
				t.Fatal(err)
			}
			if i != len(keys) {
				t.Fatalf("iterated %d keys, want %d", i, len(keys))
			}
		})
	}
}

func TestScan(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadRandom(t, d, 3000, 61)
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	start := keys[len(keys)/2]
	got, err := d.Scan([]byte(start), 50)
	if err != nil {
		t.Fatal(err)
	}
	want := keys[len(keys)/2:]
	if len(want) > 50 {
		want = want[:50]
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d, want %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i].Key) != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, got[i].Key, want[i])
		}
		if !bytes.Equal(got[i].Value, []byte(ref[want[i]])) {
			t.Fatalf("scan value mismatch at %q", want[i])
		}
	}
}

func TestTombstonesSurviveCompactionUntilBase(t *testing.T) {
	// A delete must shadow older versions even after the tombstone's
	// level compacts, across every mode (the overlapped-level mode is
	// the risky one).
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			d, err := Open(tinyConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			// Write the victim key early so it sinks deep.
			d.Put([]byte("victim"), []byte("alive"))
			loadRandom(t, d, 3000, 71)
			// Delete it, then churn to push the tombstone down.
			d.Delete([]byte("victim"))
			loadRandom(t, d, 3000, 72)
			if _, err := d.Get([]byte("victim")); err != ErrNotFound {
				t.Fatalf("deleted key resurrected: %v", err)
			}
		})
	}
}

func TestClosedDBRejectsOps(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	d.Put([]byte("a"), []byte("b"))
	d.Close()
	if err := d.Put([]byte("x"), []byte("y")); err != ErrClosed {
		t.Errorf("Put after close: %v", err)
	}
	if _, err := d.Get([]byte("a")); err != ErrClosed {
		t.Errorf("Get after close: %v", err)
	}
	if err := d.Close(); err != ErrClosed {
		t.Errorf("double close: %v", err)
	}
}

func TestLargeValues(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// A value larger than the memtable threshold.
	big := bytes.Repeat([]byte("B"), 64*1024)
	if err := d.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	d.Put([]byte("after"), []byte("ok"))
	got, err := d.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large value: err=%v len=%d", err, len(got))
	}
	if v, _ := d.Get([]byte("after")); string(v) != "ok" {
		t.Error("write after large value lost")
	}
}

func TestStatsAccounting(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	loadRandom(t, d, 3000, 81)
	st := d.Stats()
	if st.UserBytes == 0 || st.UserWrites == 0 {
		t.Error("user write stats empty")
	}
	if st.FlushBytes == 0 || st.CompactionWriteBytes == 0 {
		t.Errorf("flush/compaction stats empty: %+v", st)
	}
	if len(st.Compactions) == 0 {
		t.Error("no compaction trace")
	}
	for _, ci := range st.Compactions {
		if !ci.Flush && !ci.TrivialMove && ci.Latency <= 0 {
			t.Errorf("compaction %d has no simulated latency", ci.ID)
		}
	}
	amp := d.Amplification()
	if amp.MWA < amp.WA {
		t.Errorf("MWA %v < WA %v", amp.MWA, amp.WA)
	}
}

func TestSetRegistryReclaimsExtents(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	loadRandom(t, d, 10000, 91)
	// Sets must come and go: the registry should not grow without
	// bound, and the dynamic band manager must have reclaimed space.
	mgr := d.dev.DBand
	if mgr.Stats().Frees == 0 {
		t.Error("no set extents were ever freed")
	}
	if sp := d.SetProfile(); sp.LiveMembers > sp.TotalMembers || sp.LiveSets == 0 {
		t.Errorf("set accounting corrupt: %+v", sp)
	}
	// Freed space must actually be reused: inserts into reclaimed
	// regions happen, and the free list is not growing without bound.
	if mgr.Stats().Inserts == 0 {
		t.Error("no allocations ever reused freed set space")
	}
	if free, frontier := mgr.FreeBytes(), mgr.Frontier(); frontier > 0 && free > frontier*9/10 {
		t.Errorf("free list holds %d of %d frontier bytes: space never reused", free, frontier)
	}
}
