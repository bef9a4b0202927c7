package traceanalyze

import (
	"bytes"
	"strings"
	"testing"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/obs"
	"sealdb/internal/ycsb"
)

type store struct{ db *lsm.DB }

func (s store) Put(k, v []byte) error        { return s.db.Put(k, v) }
func (s store) Get(k []byte) ([]byte, error) { return s.db.Get(k) }
func (s store) ScanN(start []byte, n int) (int, error) {
	kvs, err := s.db.Scan(start, n)
	return len(kvs), err
}

// tracedRun opens a store with tracing on, runs a small YCSB load +
// workload A inside a Begin window, and returns the collected dump.
func tracedRun(t *testing.T, mode lsm.Mode) *Dump {
	t.Helper()
	d, err := tracedRunThen(t, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// tracedRunThen is tracedRun with a hook that runs on the store just
// before Collect, returning Collect's error.
func tracedRunThen(t *testing.T, mode lsm.Mode, before func(*lsm.DB)) (*Dump, error) {
	t.Helper()
	cfg := lsm.DefaultConfig(mode)
	cfg.Geometry = lsm.ScaledGeometry(32*kv.KiB, 1*kv.GiB)
	cfg.JournalCapacity = 1 << 16
	cfg.Trace = lsm.TraceConfig{Enabled: true, SampleEvery: 8}
	db, err := lsm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	base := Begin(db)
	r := ycsb.NewRunner(store{db}, 512, 1)
	if err := r.LoadRandom(3000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ycsb.WorkloadA, 600); err != nil {
		t.Fatal(err)
	}
	if before != nil {
		before(db)
	}
	return Collect(db, base)
}

// TestVerifySEALDB is the acceptance check: the live
// amplification counters must match a recomputation from the
// raw dump within 1%.
func TestVerifySEALDB(t *testing.T) {
	d := tracedRun(t, lsm.ModeSEALDB)
	rep := Analyze(d)
	if err := rep.Verify(0.01); err != nil {
		t.Fatal(err)
	}
	if rep.TraceWrites == 0 || rep.TraceReads == 0 {
		t.Fatalf("empty trace: %d writes, %d reads", rep.TraceWrites, rep.TraceReads)
	}
	if rep.WA <= 1 {
		t.Fatalf("WA %.3f, want > 1 after compactions", rep.WA)
	}
	if rep.SampledSpanTrees == 0 {
		t.Fatal("no sampled span trees in the journal")
	}
	if len(rep.Bands) < 2 {
		t.Fatalf("band heatmap has %d rows, want several", len(rep.Bands))
	}
	if len(rep.Sets) == 0 {
		t.Fatal("no per-set write traffic found in compaction events")
	}
}

// TestVerifyLevelDB checks the fixed-band mode, where the media cache
// makes AWA > 1 and classifies part of the trace as cache traffic.
func TestVerifyLevelDB(t *testing.T) {
	d := tracedRun(t, lsm.ModeLevelDB)
	rep := Analyze(d)
	if err := rep.Verify(0.01); err != nil {
		t.Fatal(err)
	}
	if rep.CacheWriteBytes == 0 {
		t.Fatal("no media-cache writes classified on the fixed-band drive")
	}
	if rep.AWA <= 1 {
		t.Fatalf("AWA %.3f on fixed-band drive, want > 1", rep.AWA)
	}
	found := false
	for _, b := range rep.Bands {
		if b.Band == -1 {
			found = true
		}
	}
	if !found {
		t.Fatal("heatmap has no media-cache row (band -1)")
	}
}

// TestVerifyVlog is the same 1% live-vs-recomputed contract in the
// value-separated mode: vlog appends and GC rewrites must be
// attributed in the recomputation, or StoreBytes would diverge from
// the journal immediately.
func TestVerifyVlog(t *testing.T) {
	cfg := lsm.DefaultConfig(lsm.ModeSEALDB)
	cfg.Geometry = lsm.ScaledGeometry(32*kv.KiB, 1*kv.GiB)
	cfg.JournalCapacity = 1 << 16
	cfg.Trace = lsm.TraceConfig{Enabled: true, SampleEvery: 8}
	cfg.ValueThreshold = 128
	db, err := lsm.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	base := Begin(db)
	r := ycsb.NewRunner(store{db}, 512, 1)
	if err := r.LoadRandom(3000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ycsb.WorkloadA, 7000); err != nil {
		t.Fatal(err)
	}
	// 7,000 YCSB-A operations put the sealed log over its dead budget, and
	// the passes the commits run put relocation traffic in the window too.
	if db.Stats().VlogGCRuns == 0 {
		t.Fatal("no vlog GC pass ran in the window")
	}
	d, err := Collect(db, base)
	if err != nil {
		t.Fatal(err)
	}

	rep := Analyze(d)
	if err := rep.Verify(0.01); err != nil {
		t.Fatal(err)
	}
	if rep.VlogAppendBytes == 0 {
		t.Fatal("no vlog appends attributed from the journal")
	}
	if got, want := rep.VlogGCBytes, db.Stats().VlogGCBytes; got != want {
		t.Fatalf("recomputed GC rewrite bytes %d, live counter %d", got, want)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "vlog: appends") {
		t.Fatalf("report text missing the vlog line:\n%s", buf.String())
	}
}

// TestSpanTreesInDump asserts the dump's journal carries complete
// span trees: op roots with device totals and stage children, and no
// per-access children.
func TestSpanTreesInDump(t *testing.T) {
	d := tracedRun(t, lsm.ModeSEALDB)
	var foundIO, foundStage bool
	for _, root := range obs.SpanTrees(d.Events) {
		if !strings.HasPrefix(root.Type, "op_") {
			continue
		}
		if root.Fields["read_bytes"]+root.Fields["write_bytes"] > 0 {
			foundIO = true
		}
		for _, c := range root.Children {
			if !strings.HasPrefix(c.Type, "stage_") {
				t.Fatalf("op span %q has a %q child", root.Type, c.Type)
			}
			foundStage = true
		}
	}
	if !foundIO || !foundStage {
		t.Fatalf("no op span tree with device bytes (%v) or a stage child (%v)", foundIO, foundStage)
	}
}

// TestDumpRoundTrip writes a dump to disk, reads it back, and checks
// the offline analysis matches the in-memory one.
func TestDumpRoundTrip(t *testing.T) {
	d := tracedRun(t, lsm.ModeSEALDB)
	dir := t.TempDir()
	if err := d.Write(dir); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDump(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := Analyze(d), Analyze(d2)
	if r1.TraceWriteBytes != r2.TraceWriteBytes || r1.RecomputedStore != r2.RecomputedStore ||
		r1.SampledSpanTrees != r2.SampledSpanTrees || len(r1.Bands) != len(r2.Bands) {
		t.Fatalf("offline analysis diverged: %+v vs %+v", r1, r2)
	}
	if err := r2.Verify(0.01); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r2.WriteText(&buf)
	for _, want := range []string{"WA  live", "AWA live", "hottest bands", "sampled span trees"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report text missing %q:\n%s", want, buf.String())
		}
	}
}

// TestCollectRunsFsck checks that a dump closes with VerifyIntegrity:
// an extent the allocator holds but no file or set owns fails Collect.
func TestCollectRunsFsck(t *testing.T) {
	d, err := tracedRunThen(t, lsm.ModeSEALDB, func(db *lsm.DB) {
		if _, _, err := db.Device().DBand.Alloc(64 * kv.KiB); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "extent accounting") {
		t.Fatalf("Collect after leaking a 64 KiB extent: %v, want an extent accounting error", err)
	}
	if d != nil {
		t.Fatal("Collect returned a dump for a store that failed fsck")
	}
}

// TestVerifyCatchesMissingCompaction checks that the WA check is what
// ties the span-derived per-level and per-set numbers to the store's
// traffic: a dump that lost one compaction span fails Verify.
func TestVerifyCatchesMissingCompaction(t *testing.T) {
	d := tracedRun(t, lsm.ModeSEALDB)
	if err := Analyze(d).Verify(0.01); err != nil {
		t.Fatalf("untouched dump: %v", err)
	}
	// Drop the largest compaction, so the gap is well over 1 %.
	victim := -1
	for i, e := range d.Events {
		if e.Type == "compaction" && e.Fields["trivial"] == 0 &&
			(victim < 0 || e.Fields["output_bytes"] > d.Events[victim].Fields["output_bytes"]) {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("the dump carries no compaction span")
	}
	d.Events = append(d.Events[:victim], d.Events[victim+1:]...)
	if err := Analyze(d).Verify(0.01); err == nil || !strings.Contains(err.Error(), "WA mismatch") {
		t.Fatalf("Verify without one compaction span: %v, want a WA mismatch", err)
	}
}
