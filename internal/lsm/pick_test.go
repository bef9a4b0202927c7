package lsm

import (
	"fmt"
	"testing"

	"sealdb/internal/kv"
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
	if c := d.pickCompaction(); c != nil {
		t.Fatalf("empty store picked a compaction: %+v", c)
	}
	// Below every trigger: three L0 files (trigger is 4).
	installFiles(t, d, []version.AddedFile{
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "a", "c", 1000)},
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "b", "d", 1000)},
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "c", "e", 1000)},
	})
	if c := d.pickCompaction(); c != nil {
		t.Fatalf("under-trigger store picked a compaction: %+v", c)
	}
}

func TestPickCompactionL0Fixpoint(t *testing.T) {
	d, _ := Open(tinyConfig(ModeSEALDB))
	defer d.Close()
	// Four overlapping-chain L0 files: a-c, c-e, e-g, g-i. Picking
	// any victim must transitively pull in the whole chain.
	installFiles(t, d, []version.AddedFile{
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "a", "c", 1000)},
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "c", "e", 1000)},
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "e", "g", 1000)},
		{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "g", "i", 1000)},
	})
	c := d.pickCompaction()
	if c == nil {
		t.Fatal("no compaction at L0 trigger")
	}
	if c.level != 0 || len(c.inputs0) != 4 {
		t.Fatalf("L0 fixpoint: level %d inputs %d, want level 0 with 4", c.level, len(c.inputs0))
	}
}

func TestPickCompactionChoosesWorstLevel(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	d, _ := Open(cfg)
	defer d.Close()
	// L1 at 2x its target, L2 barely over: L1 must win.
	var adds []version.AddedFile
	perFile := cfg.SSTableSize
	filesL1 := int(2 * cfg.BaseLevelBytes / perFile)
	for i := 0; i < filesL1; i++ {
		lo := fmt.Sprintf("k%03d", i*2)
		hi := fmt.Sprintf("k%03d", i*2+1)
		adds = append(adds, version.AddedFile{Level: 1, Meta: mkMeta(d.vs.NewFileNum(), lo, hi, perFile)})
	}
	adds = append(adds, version.AddedFile{
		Level: 2, Meta: mkMeta(d.vs.NewFileNum(), "zz", "zzz", 10*cfg.BaseLevelBytes+1),
	})
	installFiles(t, d, adds)
	c := d.pickCompaction()
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
	big := mkMeta(d.vs.NewFileNum(), "a", "b", 100*d.cfg.BaseLevelBytes)
	installFiles(t, d, []version.AddedFile{{Level: 1, Meta: big}})
	c := d.pickCompaction()
	if c == nil || !c.trivial {
		t.Fatalf("expected trivial move, got %+v", c)
	}
	if err := d.runCompaction(c); err != nil {
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
	// Many overlapping L1 files and a full-range L0 victim chain.
	var adds []version.AddedFile
	for i := 0; i < 10; i++ {
		adds = append(adds, version.AddedFile{Level: 1, Meta: mkMeta(d.vs.NewFileNum(), "a", "z", 1000)})
	}
	for i := 0; i < cfg.L0CompactTrigger; i++ {
		adds = append(adds, version.AddedFile{Level: 0, Meta: mkMeta(d.vs.NewFileNum(), "a", "z", 1000)})
	}
	installFiles(t, d, adds)
	c := d.pickCompaction()
	if c == nil {
		t.Fatal("no compaction")
	}
	if len(c.inputs1) != 3 {
		t.Fatalf("fan-in %d, want cap 3", len(c.inputs1))
	}
}
