package bench

import (
	"bytes"
	"io"
	"os"
	"testing"

	"sealdb/internal/lsm"
)

// mustRun runs the named figures, failing the test on error.
func mustRun(t *testing.T, o Options, ids ...string) *Results {
	t.Helper()
	res, err := Run(o, ids...)
	if err != nil {
		t.Fatal(err)
	}
	res.Print(io.Discard)
	res.WriteCSV(io.Discard)
	return res
}

// TestQuickScaleOutputMatchesGolden pins every byte `sealdb-bench -all
// -latency -sst 32768 -mb 10 -ops 800` prints: the golden was
// recorded from the harness that re-ran each figure's loads, so the
// views over shared loads must reproduce it exactly. A change that
// moves a figure on purpose regenerates the golden (EXPERIMENTS.md).
func TestQuickScaleOutputMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("19 loads at smoke scale: run without -short (CI's figures job cmp's the same bytes)")
	}
	want, err := os.ReadFile("testdata/quick_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	// The command prints a "# sealdb-bench: ..." line and a blank one
	// before the figures; CI compares those too, with cmp.
	want = want[bytes.Index(want, []byte("\n\n"))+2:]
	res, err := Run(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	res.Print(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("figure output drifted from testdata/quick_all.golden; got:\n%s", got.Bytes())
	}
}

// TestLoadCounts pins how many stores the harness loads: each (mode,
// geometry) a figure reads is loaded once however many figures read it.
func TestLoadCounts(t *testing.T) {
	for _, tc := range []struct {
		ids             []string
		random, ordered int
	}{
		// 4 shared + 4 other Fig 3 bands + 3 YCSB + 3 latency.
		{nil, 14, 4},
		{[]string{"12"}, 3, 0},
		{[]string{"2", "3"}, 5, 0},
		{[]string{"11", "13"}, 1, 0},
		{[]string{"14"}, 3, 3},
	} {
		o := QuickOptions()
		o.LoadMB = 4 // the smallest load at which every store still merges
		o.Ops = 20
		var opened []*lsm.DB
		open := 0
		o.Observe = func(db *lsm.DB) {
			// One store at a time: the previous one must be closed.
			if n := len(opened); n > 0 {
				if _, err := opened[n-1].Get([]byte("k")); err != lsm.ErrClosed {
					open++
				}
			}
			opened = append(opened, db)
		}
		mustRun(t, o, tc.ids...)
		// A key-ordered load never merges: its flushed tables do not
		// overlap, so every compaction is a trivial move.
		random, ordered := 0, 0
		for _, db := range opened {
			if len(mergeCompactions(db)) > 0 {
				random++
			} else {
				ordered++
			}
		}
		if random != tc.random || ordered != tc.ordered || open != 0 {
			t.Errorf("figures %v: %d random + %d sequential loads (want %d + %d), %d stores left open",
				tc.ids, random, ordered, tc.random, tc.ordered, open)
		}
	}
}

// testOptions shrinks the experiments so the whole suite runs in
// seconds; the scale-sensitive SMRDB shapes are asserted separately
// in TestHeadlineShapesAtFullScale.
func testOptions() Options { return QuickOptions() }

func TestTable2Shapes(t *testing.T) {
	rows := mustRun(t, testOptions(), "table2").Table2
	byName := map[string]DeviceRow{}
	for _, r := range rows {
		byName[r.Metric] = r
	}
	seqR := byName["Sequential read (MB/s)"]
	if seqR.HDD < 100 || seqR.SMR < 100 {
		t.Errorf("sequential read too slow: %+v", seqR)
	}
	randW := byName["Random write 4KiB (IOPS)"]
	if randW.SMR >= randW.HDD/5 {
		t.Errorf("SMR random writes should collapse vs HDD: %+v", randW)
	}
	randR := byName["Random read 4KiB (IOPS)"]
	if randR.HDD < 40 || randR.HDD > 100 {
		t.Errorf("random read IOPS %v outside Table II ballpark", randR.HDD)
	}
}

func TestFig2And11LayoutShapes(t *testing.T) {
	res := mustRun(t, testOptions(), "2", "11")
	ldb, seal := res.Stores[lsm.ModeLevelDB].Layout, res.Stores[lsm.ModeSEALDB].Layout
	if ldb.Compactions == 0 || seal.Compactions == 0 {
		t.Fatalf("no compactions traced: %d vs %d", ldb.Compactions, seal.Compactions)
	}
	// Figure 2 vs 11: LevelDB scatters each compaction across many
	// extents; SEALDB writes each compaction as few sequential runs.
	if seal.MeanExtentsPerCompaction > 2.5 {
		t.Errorf("SEALDB compactions not contiguous: %.2f extents each", seal.MeanExtentsPerCompaction)
	}
	if ldb.MeanExtentsPerCompaction < 2*seal.MeanExtentsPerCompaction {
		t.Errorf("LevelDB should scatter much more: %.2f vs %.2f extents",
			ldb.MeanExtentsPerCompaction, seal.MeanExtentsPerCompaction)
	}
	// Space efficiency claim of Figure 11: SEALDB's footprint is
	// smaller than LevelDB's.
	if seal.FootprintMB >= ldb.FootprintMB {
		t.Errorf("SEALDB footprint %.1f MB not below LevelDB %.1f MB",
			seal.FootprintMB, ldb.FootprintMB)
	}
}

func TestFig3BandSweepShapes(t *testing.T) {
	o := testOptions()
	o.LoadMB = 8
	rows := mustRun(t, o, "3").Fig3
	if len(rows) != 5 {
		t.Fatalf("expected 5 band sizes, got %d", len(rows))
	}
	// MWA must exceed WA everywhere (AWA > 1), and grow with band
	// size overall (Figure 3(b)'s trend).
	for _, r := range rows {
		if r.MWA <= r.WA {
			t.Errorf("band %.1f: MWA %.2f <= WA %.2f", r.BandSSTables, r.MWA, r.WA)
		}
		if r.SSTablesPerCompaction <= 1 {
			t.Errorf("band %.1f: SSTables/compaction %.2f implausible", r.BandSSTables, r.SSTablesPerCompaction)
		}
	}
	if rows[len(rows)-1].MWA <= rows[0].MWA {
		t.Errorf("MWA did not grow with band size: first %.2f, last %.2f",
			rows[0].MWA, rows[len(rows)-1].MWA)
	}
}

func TestFig8MicroShapes(t *testing.T) {
	res := mustRun(t, testOptions(), "8")
	// The SMRDB crossover needs full scale; see the headline test.
	ldb, seal := res.Stores[lsm.ModeLevelDB].Micro, res.Stores[lsm.ModeSEALDB].Micro
	// Headline: SEALDB beats LevelDB on random load.
	if seal.RandWrite <= ldb.RandWrite {
		t.Errorf("random write: sealdb %.0f <= leveldb %.0f", seal.RandWrite, ldb.RandWrite)
	}
	// Sequential writes: no merge compactions; SEALDB and SMRDB at
	// least match LevelDB.
	if seal.SeqWrite < ldb.SeqWrite*0.9 {
		t.Errorf("seq write: sealdb %.0f below leveldb %.0f", seal.SeqWrite, ldb.SeqWrite)
	}
	// Reads: SEALDB within noise of LevelDB even at toy scale.
	if seal.RandRead < ldb.RandRead*0.8 {
		t.Errorf("rand read: sealdb %.0f far below leveldb %.0f", seal.RandRead, ldb.RandRead)
	}
	if seal.SeqRead < ldb.SeqRead*0.8 {
		t.Errorf("seq read: sealdb %.0f far below leveldb %.0f", seal.SeqRead, ldb.SeqRead)
	}
}

// TestHeadlineShapesAtFullScale runs Figure 8 at the canonical
// benchmark scale and asserts the paper's headline results: SEALDB
// beats LevelDB by a factor in the 3.42x ballpark and beats SMRDB
// (1.67x in the paper) on random load, and wins sequential reads.
// Takes a few minutes; skipped with -short.
func TestHeadlineShapesAtFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale headline shapes: run without -short")
	}
	o := DefaultOptions()
	o.Ops = 2000
	res := mustRun(t, o, "8")
	ldb, smrdb, seal := res.Stores[lsm.ModeLevelDB].Micro, res.Stores[lsm.ModeSMRDB].Micro, res.Stores[lsm.ModeSEALDB].Micro
	if factor := seal.RandWrite / ldb.RandWrite; factor < 2 {
		t.Errorf("random write: sealdb only %.2fx leveldb (paper: 3.42x)", factor)
	}
	if factor := seal.RandWrite / smrdb.RandWrite; factor < 1.2 {
		t.Errorf("random write: sealdb only %.2fx smrdb (paper: 1.67x)", factor)
	}
	if factor := smrdb.RandWrite / ldb.RandWrite; factor < 1.5 {
		t.Errorf("random write: smrdb only %.2fx leveldb (paper: ~2x)", factor)
	}
	if factor := seal.SeqRead / ldb.SeqRead; factor < 1.2 {
		t.Errorf("seq read: sealdb only %.2fx leveldb (paper: 3.96x)", factor)
	}
}

func TestFig9YCSBShapes(t *testing.T) {
	o := testOptions()
	o.LoadMB = 6
	cells := mustRun(t, o, "9").Fig9
	ldb, seal := cells[0], cells[2]
	if ldb.Store != "leveldb" || seal.Store != "sealdb" {
		t.Fatalf("unexpected store order: %s, %s", ldb.Store, seal.Store)
	}
	for i, wl := range []string{"load", "A", "B", "C", "D", "E", "F"} {
		l, s := ldb.Phases[i], seal.Phases[i]
		if s.Workload != wl || s.OpsPerSec <= 0 {
			t.Errorf("phase %d: workload %s (want %s) ran at %.0f ops/s", i, s.Workload, wl, s.OpsPerSec)
		}
		// The load and update-heavy workload A: SEALDB wins.
		if i < 2 && s.OpsPerSec <= l.OpsPerSec {
			t.Errorf("%s: sealdb %.0f <= leveldb %.0f", wl, s.OpsPerSec, l.OpsPerSec)
		}
	}
}

func TestFig10CompactionShapes(t *testing.T) {
	res := mustRun(t, testOptions(), "10")
	ldb, smrdb, seal := res.Stores[lsm.ModeLevelDB].Compaction, res.Stores[lsm.ModeSMRDB].Compaction, res.Stores[lsm.ModeSEALDB].Compaction
	// SEALDB spends less total compaction time than LevelDB (paper:
	// 4.3x lower).
	if seal.TotalTime >= ldb.TotalTime {
		t.Errorf("total compaction time: sealdb %v >= leveldb %v", seal.TotalTime, ldb.TotalTime)
	}
	// SMRDB: fewer but much larger compactions.
	if smrdb.Compactions >= seal.Compactions {
		t.Errorf("smrdb ran %d compactions, sealdb %d: expected fewer", smrdb.Compactions, seal.Compactions)
	}
	if smrdb.MeanBytes <= 2*seal.MeanBytes {
		t.Errorf("smrdb mean compaction %.0f not much larger than sealdb %.0f", smrdb.MeanBytes, seal.MeanBytes)
	}
}

func TestFig12AmplificationShapes(t *testing.T) {
	res := mustRun(t, testOptions(), "12")
	ldb, smrdb, seal := res.Stores[lsm.ModeLevelDB].Amp, res.Stores[lsm.ModeSMRDB].Amp, res.Stores[lsm.ModeSEALDB].Amp
	if seal.AWA != 1.0 {
		t.Errorf("SEALDB AWA = %v, want 1.0", seal.AWA)
	}
	if smrdb.AWA != 1.0 {
		t.Errorf("SMRDB AWA = %v, want 1.0 (dedicated bands)", smrdb.AWA)
	}
	if ldb.AWA <= 1.2 {
		t.Errorf("LevelDB AWA = %v, want well above 1", ldb.AWA)
	}
	if seal.MWA >= ldb.MWA {
		t.Errorf("MWA: sealdb %.2f >= leveldb %.2f", seal.MWA, ldb.MWA)
	}
}

func TestFig13FragmentShapes(t *testing.T) {
	run := mustRun(t, testOptions(), "13").Stores[lsm.ModeSEALDB]
	res, points := run.Fragments, run.Bands
	if res.Bands == 0 {
		t.Fatal("no dynamic bands")
	}
	if len(points) != res.Bands {
		t.Errorf("band points %d != bands %d", len(points), res.Bands)
	}
	if res.FragmentOfUsed < 0 || res.FragmentOfUsed > 0.5 {
		t.Errorf("fragments are %.1f%% of occupied space; paper reports ~9%%",
			100*res.FragmentOfUsed)
	}
}

func TestFig14AblationShapes(t *testing.T) {
	res := mustRun(t, testOptions(), "14")
	ldb, sets, seal := res.Stores[lsm.ModeLevelDB].Micro, res.Stores[lsm.ModeLevelDBSets].Micro, res.Stores[lsm.ModeSEALDB].Micro
	// Sets alone already help random writes; dynamic bands complete
	// the improvement (Figure 14's staircase).
	if sets.RandWrite <= ldb.RandWrite {
		t.Errorf("rand write: leveldb+sets %.0f <= leveldb %.0f", sets.RandWrite, ldb.RandWrite)
	}
	if seal.RandWrite <= sets.RandWrite {
		t.Errorf("rand write: sealdb %.0f <= leveldb+sets %.0f", seal.RandWrite, sets.RandWrite)
	}
}
