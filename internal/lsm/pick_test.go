package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/sstable"
	"sealdb/internal/version"
)

// mkMeta builds a FileMeta spanning [lo, hi] user keys.
func mkMeta(num uint64, lo, hi string, size int64) *version.FileMeta {
	return &version.FileMeta{
		Num:      num,
		Size:     size,
		Smallest: kv.MakeInternalKey(nil, []byte(lo), 100, kv.KindSet),
		Largest:  kv.MakeInternalKey(nil, []byte(hi), 1, kv.KindSet),
	}
}

// installFiles force-feeds a version state through the manifest.
func installFiles(t *testing.T, d *DB, adds []version.AddedFile) {
	t.Helper()
	if _, err := d.vs.LogAndApply(&version.Edit{Added: adds}); err != nil {
		t.Fatal(err)
	}
}

func TestPickCompactionIdleWhenBalanced(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	if c := d.pickCompaction(debtBound); c != nil {
		t.Fatalf("empty store picked a compaction: %+v", c)
	}
	// Below every trigger: three L0 files (due at 6, 1.5x the trigger of 4).
	installFiles(t, d, []version.AddedFile{
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "a", "c", 1000)},
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "b", "d", 1000)},
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "c", "e", 1000)},
	})
	if c := d.pickCompaction(debtBound); c != nil {
		t.Fatalf("under-trigger store picked a compaction: %+v", c)
	}
}

func TestPickCompactionL0Fixpoint(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	// An overlapping chain of L0 files that nothing has read: a-c, c-e,
	// ... L0 falls due only at LevelDB's stop trigger, 3x the trigger of
	// 4, and picking any victim must transitively pull in the whole chain.
	stop := l0CompactTrigger * l0StopBound
	for i := 0; i < stop; i++ {
		lo, hi := string(rune('a'+2*i)), string(rune('c'+2*i))
		installFiles(t, d, []version.AddedFile{{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), lo, hi, 1000)}})
		c := d.pickCompaction(debtBound)
		if i < stop-1 {
			if c != nil {
				t.Fatalf("%d unread L0 files picked a compaction: %+v", i+1, c)
			}
			continue
		}
		if c == nil {
			t.Fatal("no compaction with L0 due")
		}
		if c.level != 0 || len(c.inputs0) != stop || c.rent != 0 || c.price <= 0 {
			t.Fatalf("L0 fixpoint: level %d inputs %d rent %v price %v, want level 0 with %d, no rent and a price",
				c.level, len(c.inputs0), c.rent, c.price, stop)
		}
	}
}

func TestPickCompactionChoosesWorstLevel(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	d, _ := Open(cfg)
	defer d.Close()
	// L1 at 2x its target, L2 at 1.6x: both due, L1 must win.
	var adds []version.AddedFile
	perFile := cfg.SSTableSize
	filesL1 := int(2 * cfg.maxBytesForLevel(1) / perFile)
	for i := 0; i < filesL1; i++ {
		lo := fmt.Sprintf("k%03d", i*2)
		hi := fmt.Sprintf("k%03d", i*2+1)
		adds = append(adds, version.AddedFile{Level: 1, Meta: mkMeta(d.vs.NewFileNum(), lo, hi, perFile)})
	}
	adds = append(adds, version.AddedFile{
		Level: 2, Meta: mkMeta(d.vs.NewFileNum(), "zz", "zzz", 16*cfg.maxBytesForLevel(1)),
	})
	installFiles(t, d, adds)
	c := d.pickCompaction(debtBound)
	if c == nil || c.level != 1 {
		t.Fatalf("picked %+v, want level 1", c)
	}
}

func TestPickVictimSetPriority(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	// Two sets in L2; set A has 2 invalid members, set B none. The
	// victim must come from set A (the paper's implicit GC priority).
	fA1, fA2 := d.vs.NewFileNum(), d.vs.NewFileNum()
	fB1 := d.vs.NewFileNum()
	recA := version.SetRecord{ID: fA1, Off: 0, Len: 4096, Members: 4}
	recB := version.SetRecord{ID: fB1, Off: 8192, Len: 4096, Members: 1}
	// recA claims 4 members but only 2 live -> 2 invalid.
	mA1 := mkMeta(fA1, "a", "b", 100)
	mA1.SetID = fA1
	mA2 := mkMeta(fA2, "c", "d", 100)
	mA2.SetID = fA1
	mB1 := mkMeta(fB1, "e", "f", 100)
	mB1.SetID = fB1
	if _, err := d.vs.LogAndApply(&version.Edit{
		NewSets: []version.SetRecord{recA, recB},
		Added:   []version.AddedFile{{Level: 2, Meta: mB1}, {Level: 2, Meta: mA1}, {Level: 2, Meta: mA2}},
	}); err != nil {
		t.Fatal(err)
	}
	victim := d.pickVictim(d.vs.Current(), 2)
	if victim == nil || victim.SetID != fA1 {
		t.Fatalf("victim %v, want a member of the high-invalid set %d", victim, fA1)
	}
}

func TestPickVictimRoundRobinPointer(t *testing.T) {
	d, _ := Open(tinyConfig(ModeLevelDB))
	defer d.Close()
	m1 := mkMeta(d.vs.NewFileNum(), "a", "b", 100)
	m2 := mkMeta(d.vs.NewFileNum(), "c", "d", 100)
	m3 := mkMeta(d.vs.NewFileNum(), "e", "f", 100)
	installFiles(t, d, []version.AddedFile{
		{Level: 1, Meta: m1}, {Level: 1, Meta: m2}, {Level: 1, Meta: m3},
	})
	// No pointer yet: first file.
	if v := d.pickVictim(d.vs.Current(), 1); v.Num != m1.Num {
		t.Fatalf("first victim %v", v)
	}
	// Pointer past m1: next file is m2; pointer past the end wraps.
	d.vs.LogAndApply(&version.Edit{CompactPointers: []version.CompactPointer{
		{Level: 1, Key: m1.Largest.Clone()},
	}})
	if v := d.pickVictim(d.vs.Current(), 1); v.Num != m2.Num {
		t.Fatalf("victim after pointer %v, want m2", v)
	}
	d.vs.LogAndApply(&version.Edit{CompactPointers: []version.CompactPointer{
		{Level: 1, Key: m3.Largest.Clone()},
	}})
	if v := d.pickVictim(d.vs.Current(), 1); v.Num != m1.Num {
		t.Fatalf("victim after wrap %v, want m1", v)
	}
}

func TestTrivialMoveDetection(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	// A lone oversize L1 file with no L2 overlap: trivial move.
	big := mkMeta(d.vs.NewFileNum(), "a", "b", 100*d.cfg.maxBytesForLevel(1))
	installFiles(t, d, []version.AddedFile{{Level: 1, Meta: big}})
	c := d.pickCompaction(debtBound)
	if c == nil || !c.trivial {
		t.Fatalf("expected trivial move, got %+v", c)
	}
	if err := d.run(job{c: c}); err != nil {
		t.Fatal(err)
	}
	v := d.vs.Current()
	if v.NumFiles(1) != 0 || v.NumFiles(2) != 1 {
		t.Fatalf("file did not move: L1=%d L2=%d", v.NumFiles(1), v.NumFiles(2))
	}
	if st := d.Stats(); st.TrivialMoves != 1 {
		t.Fatalf("trivial moves %d", st.TrivialMoves)
	}
}

func TestSMRDBFanInCap(t *testing.T) {
	cfg := tinyConfig(ModeSMRDB)
	cfg.MaxCompactionFiles = 3
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Many overlapping L1 files and a full-range L0 victim chain, as
	// long as it takes L0 to fall due.
	var adds []version.AddedFile
	for i := 0; i < 10; i++ {
		adds = append(adds, version.AddedFile{Level: 1, Meta: mkMeta(d.vs.NewFileNum(), "a", "z", 1000)})
	}
	for i := 0; i < l0CompactTrigger*l0StopBound; i++ {
		adds = append(adds, version.AddedFile{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "a", "z", 1000)})
	}
	installFiles(t, d, adds)
	c := d.pickCompaction(debtBound)
	if c == nil {
		t.Fatal("no compaction")
	}
	if len(c.inputs1) != 3 {
		t.Fatalf("fan-in %d, want cap 3", len(c.inputs1))
	}
}

// flushL0 writes one version of 50 keys and flushes it to an L0 table,
// through the writer call that runs whatever falls due.
func flushL0(t *testing.T, d *DB, version int) {
	t.Helper()
	for k := 0; k < 50; k++ {
		if err := d.Put([]byte(fmt.Sprintf("k%03d", k)), []byte(fmt.Sprintf("v%d", version))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
}

// readL0 reads every key with a Get and the whole store with a Scan.
func readL0(t *testing.T, d *DB) {
	t.Helper()
	for k := 0; k < 50; k++ {
		if _, err := d.Get([]byte(fmt.Sprintf("k%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if kvs, err := d.Scan(nil, 100); err != nil || len(kvs) != 50 {
		t.Fatalf("Scan = %d entries, %v", len(kvs), err)
	}
}

// l0Rent is what reads of L0's current tables have cost the device.
func l0Rent(d *DB) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := d.vs.Current()
	return d.buildCompaction(v, 0, v.Files[0][:1]).rent
}

// lastL0Drain returns the rent_ns and price_ns of the last L0 compaction's
// journal span.
func lastL0Drain(t *testing.T, d *DB) (rent, price int64) {
	t.Helper()
	evs := d.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if e := evs[i]; e.Type == "compaction" && e.Fields["from"] == 0 {
			if _, ok := e.Fields["price_ns"]; !ok {
				t.Fatalf("L0 compaction span without a price: %v", e.Fields)
			}
			return e.Fields["rent_ns"], e.Fields["price_ns"]
		}
	}
	t.Fatal("no L0 compaction in the journal")
	return 0, 0
}

// TestDebtTolerantTrigger: a level falls due at debtBound, not at its
// target — L0 only once reads of its tables have paid the device time
// its drain costs, else at l0StopBound — and a due level drains below
// 1.0 in the writer call that found it due; a reopened store does not
// remember a drain or L0's rent, and compactAll settles every level
// below 1.0.
func TestDebtTolerantTrigger(t *testing.T) {
	stop := l0CompactTrigger * l0StopBound
	t.Run("a write-only L0 holds 11 files and drains at the 12th", func(t *testing.T) {
		d, _ := Open(tinyConfig(ModeSEALDB))
		defer d.Close()
		for i := 1; i <= stop; i++ {
			flushL0(t, d, i)
			want := i
			if i == stop {
				want = 0
			}
			if n := d.vs.Current().NumFiles(0); n != want {
				t.Fatalf("after %d flushes L0 holds %d files, want %d", i, n, want)
			}
		}
		if rent, price := lastL0Drain(t, d); rent != 0 || price <= 0 {
			t.Fatalf("the drain was charged rent %d ns at price %d ns, want none at a price", rent, price)
		}
	})

	// Reads that pay the drain bring L0 due at its 6th file.
	t.Run("L0 due at 6 files", func(t *testing.T) {
		d, _ := Open(tinyConfig(ModeSEALDB))
		defer d.Close()
		for i := 1; i <= 6; i++ {
			flushL0(t, d, i)
			if i < 6 {
				readL0(t, d)
				if c := d.pickCompaction(debtBound); i == 5 && c != nil {
					t.Fatalf("5 L0 files picked a compaction: %+v", c)
				}
				continue
			}
			if n := d.vs.Current().NumFiles(0); n != 0 {
				t.Fatalf("after 6 read flushes L0 holds %d files, want 0", n)
			}
		}
		if rent, price := lastL0Drain(t, d); rent < price || price <= 0 {
			t.Fatalf("the drain was charged rent %d ns at price %d ns, want the price paid", rent, price)
		}
	})

	t.Run("reads that hit the cache charge nothing", func(t *testing.T) {
		d, _ := Open(tinyConfig(ModeSEALDB))
		defer d.Close()
		for i := 1; i <= 5; i++ {
			flushL0(t, d, i)
		}
		readL0(t, d)
		rent, hits := l0Rent(d), d.cache.Stats().Hits
		if rent <= 0 {
			t.Fatal("reads of uncached L0 tables charged no rent")
		}
		readL0(t, d)
		if got := l0Rent(d); got != rent || d.cache.Stats().Hits == hits {
			t.Fatalf("cached reads moved the rent from %v to %v (cache hits %d -> %d)", rent, got, hits, d.cache.Stats().Hits)
		}
	})

	t.Run("a reopened store's L0 rent starts at zero", func(t *testing.T) {
		cfg := tinyConfig(ModeSEALDB)
		d, _ := Open(cfg)
		for i := 1; i <= 5; i++ {
			flushL0(t, d, i)
		}
		readL0(t, d)
		if l0Rent(d) <= 0 {
			t.Fatal("reads of uncached L0 tables charged no rent")
		}
		d.Close()
		d, err := OpenDevice(cfg, d.Device())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if rent := l0Rent(d); rent != 0 {
			t.Fatalf("reopened L0 starts at rent %v", rent)
		}
		for i := 6; i <= stop; i++ {
			flushL0(t, d, i)
			if n := d.vs.Current().NumFiles(0); i < stop && n != i {
				t.Fatalf("reopened after 5 read flushes, %d flushes leave L0 at %d files", i, n)
			}
		}
		if rent, _ := lastL0Drain(t, d); rent != 0 {
			t.Fatalf("reopened L0 drained at rent %d ns, want none", rent)
		}
	})

	t.Run("a due level drains in one writer call", func(t *testing.T) {
		d, _ := Open(tinyConfig(ModeSEALDB))
		defer d.Close()
		rng := rand.New(rand.NewSource(5))
		tolerated, drained := false, false
		for i := 0; i < 30000 && !(tolerated && drained); i++ {
			jobs := len(d.compactions)
			if err := d.Put([]byte(fmt.Sprintf("key%07d", rng.Intn(20000))), []byte(fmt.Sprintf("value-%040d", i))); err != nil {
				t.Fatal(err)
			}
			v := d.vs.Current()
			for l := 0; l < d.cfg.NumLevels()-1; l++ {
				bound := debtBound
				if l == 0 {
					bound = l0StopBound // nothing reads it
				}
				if s := d.cfg.score(v, l); s >= bound || d.draining[l] {
					t.Fatalf("put %d left L%d at %.2fx (draining %v)", i, l, s, d.draining[l])
				}
			}
			s1 := d.cfg.score(v, 1)
			tolerated = tolerated || s1 >= 1
			for _, ci := range d.compactions[jobs:] {
				if ci.FromLevel == 1 {
					// L1 entered the call under debtBound, so the L0
					// compaction of this call pushed it over.
					if s1 >= 1 {
						t.Fatalf("put %d drained L1 to %.2fx, not below 1.0", i, s1)
					}
					drained = true
				}
			}
		}
		if !tolerated || !drained {
			t.Fatalf("L1 never ran overweight (%v) or never drained (%v)", tolerated, drained)
		}
	})

	t.Run("a reopened level at 1.2x waits", func(t *testing.T) {
		cfg := tinyConfig(ModeSEALDB)
		d, _ := Open(cfg)
		rng := rand.New(rand.NewSource(6))
		for i := 0; ; i++ {
			if i == 30000 {
				t.Fatal("L1 never rested between 1.15x and 1.3x")
			}
			if err := d.Put([]byte(fmt.Sprintf("key%07d", rng.Intn(20000))), []byte(fmt.Sprintf("value-%040d", i))); err != nil {
				t.Fatal(err)
			}
			// A short scan now and then pays L0's rent, so L0 drains at
			// 6 files, in steps small enough for L1 to rest under 1.5x.
			if i%100 == 0 {
				if _, err := d.Scan([]byte(fmt.Sprintf("key%07d", rng.Intn(20000))), 1); err != nil {
					t.Fatal(err)
				}
			}
			// Recovery flushes the replayed log to one more L0 file, and
			// the reopened L0 falls due at 12 whatever it held.
			v := d.vs.Current()
			if s := d.cfg.score(v, 1); s >= 1.15 && s < 1.3 && v.NumFiles(0) < stop-1 {
				break
			}
		}
		d.Close()
		d, err := OpenDevice(cfg, d.Device())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if s := d.cfg.score(d.vs.Current(), 1); s < 1.15 || s >= 1.3 {
			t.Fatalf("reopened L1 at %.2fx", s)
		}
		if c := d.pickCompaction(debtBound); c != nil {
			t.Fatalf("reopened store picked a compaction from L%d", c.level)
		}
	})

	t.Run("CompactAll settles below 1.0", func(t *testing.T) {
		d, _ := Open(tinyConfig(ModeSEALDB))
		defer d.Close()
		loadRandom(t, d, 8000, 8)
		if err := compactAll(d); err != nil {
			t.Fatal(err)
		}
		v := d.vs.Current()
		for l := 0; l < d.cfg.NumLevels()-1; l++ {
			if s := d.cfg.score(v, l); s >= 1 {
				t.Fatalf("compactAll left L%d at %.2fx", l, s)
			}
		}
	})
}

// TestIsBaseLevelForKeyAllocatesOnce: on an overlapped output level the
// tombstone check knows the compaction's inputs by number, a set built
// once per compaction, so a tombstone costs no allocation.
func TestIsBaseLevelForKeyAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := tinyConfig(ModeSMRDB)
	cfg.MaxCompactionFiles = 2
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Three disjoint L1 files under a full-range L0 file: the fan-in cap
	// leaves one of them out, and a key only it holds is not at its base.
	l1 := []*version.FileMeta{
		mkMeta(d.vs.NewFileNum(), "a", "f", 1000),
		mkMeta(d.vs.NewFileNum(), "g", "m", 1000),
		mkMeta(d.vs.NewFileNum(), "n", "z", 1000),
	}
	seed := mkMeta(d.vs.NewFileNum(), "a", "z", 1000)
	adds := []version.AddedFile{{Level: 0, Meta: seed}}
	for _, f := range l1 {
		adds = append(adds, version.AddedFile{Level: 1, Meta: f})
	}
	installFiles(t, d, adds)
	c := d.buildCompaction(d.vs.Current(), 0, []*version.FileMeta{seed})
	if len(c.inputs1) != 2 {
		t.Fatalf("fan-in %d, want the cap of 2", len(c.inputs1))
	}
	keys := [][]byte{[]byte("c"), []byte("j"), []byte("q")}
	notBase := 0
	for i, k := range keys {
		in := false
		for _, f := range c.inputs1 {
			in = in || f.Num == l1[i].Num
		}
		if base := d.isBaseLevelForKey(c, k); base != in {
			t.Fatalf("key %q: base %v, but its file is an input: %v", k, base, in)
		}
		if !in {
			notBase++
		}
	}
	if notBase != 1 {
		t.Fatalf("%d keys held outside the inputs, want 1", notBase)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			d.isBaseLevelForKey(c, k)
		}
	}); n != 0 {
		t.Fatalf("isBaseLevelForKey allocated %.1f objects per three tombstones", n)
	}
}

// tableFilter reads table f back from the device and returns its filter's
// width in bits per key and the probe count stored in its last byte.
func tableFilter(t *testing.T, d *DB, f *version.FileMeta) (bitsPerKey, probes int) {
	t.Helper()
	data := make([]byte, f.Size)
	if _, err := d.backend.ReadFileAt(f.Num, data, 0); err != nil {
		t.Fatal(err)
	}
	footer := data[len(data)-40:]
	off, n := binary.LittleEndian.Uint64(footer[16:]), binary.LittleEndian.Uint64(footer[24:])
	filter := data[off : off+n]
	tbl, err := sstable.Open(bytes.NewReader(data), f.Size, f.Num, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, entries := tbl.NewIterator(), 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		entries++
	}
	return (len(filter) - 1) * 8 / entries, int(filter[len(filter)-1])
}

// TestFilterWidthFollowsTheDeepestLevel checks three builds: a flush into
// an empty tree gets LevelDB's 10 bits per key; a flush over three
// populated levels gets ln 10 / ln²2 = 4.8 more per level, 24 bits; and a
// compaction output in the deepest level gets 10 again, with a level above
// it (L0, its input) that got 10 + 6 × 4.8 = 39.
func TestFilterWidthFollowsTheDeepestLevel(t *testing.T) {
	put := func(d *DB, round int) *version.FileMeta {
		for i := 0; i < 100; i++ {
			if err := d.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.FlushMemtable(); err != nil {
			t.Fatal(err)
		}
		l0 := d.vs.Current().Files[0]
		return l0[len(l0)-1]
	}
	check := func(d *DB, what string, f *version.FileMeta, want int) {
		t.Helper()
		if bits, probes := tableFilter(t, d, f); bits != want || probes != want*69/100 {
			t.Errorf("%s: %d bits per key and %d probes, want %d and %d", what, bits, probes, want, want*69/100)
		}
	}

	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	check(d, "flush into an empty tree", put(d, 0), 10)
	// Down to L6 by trivial moves; the next flush lands six levels above
	// it, and the range compaction merges the two tables in L6.
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	check(d, "flush over L6", put(d, 1), 39)
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	v := d.vs.Current()
	if v.TotalFiles() != 1 || v.NumFiles(6) != 1 {
		t.Fatalf("range compaction left %d files, %d in L6; want the one merged table in L6", v.TotalFiles(), v.NumFiles(6))
	}
	check(d, "compaction output in the deepest level", v.Files[6][0], 10)

	// Three populated levels under L0 (placeholders: nothing reads them).
	d3, _ := Open(tinyConfig(ModeSEALDB))
	defer d3.Close()
	installFiles(t, d3, []version.AddedFile{
		{Level: 1, Meta: mkMeta(d3.vs.NewFileNum(), "a", "b", 1000)},
		{Level: 2, Meta: mkMeta(d3.vs.NewFileNum(), "a", "b", 1000)},
		{Level: 3, Meta: mkMeta(d3.vs.NewFileNum(), "a", "b", 1000)},
	})
	check(d3, "flush over L1-L3", put(d3, 0), 24)
}
