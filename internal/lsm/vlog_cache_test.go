package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/kv"
	"sealdb/internal/smr"
	"sealdb/internal/vlog"
)

// The value log's point reads go through the block cache, one entry per
// user key, answering only for the pointer it was filled from (DESIGN.md
// §Key–value separation, Reads). These tests cover what that newly makes
// possible: entries outliving their segment, the shared budget overrun,
// damage hidden from fsck, a value cached that the log never held, and the
// allocations the write-through may not cost.

// pointerOf returns the value-log pointer the tree serves for key.
func pointerOf(t *testing.T, d *DB, key string) vlog.Pointer {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	stored, kind, _, found, err := d.lookup(d.state.Load(), []byte(key), d.seq, nil)
	if err != nil || !found || kind != kv.KindSet || len(stored) != vlogPointerLen || stored[0] != vlogTagPtr {
		t.Fatalf("key %q is not served by a pointer: found=%v kind=%v stored=%x err=%v", key, found, kind, stored, err)
	}
	p, err := vlog.DecodePointer(stored[1:])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// cached reports whether key's value entry answers for record p.
func cached(d *DB, key []byte, p vlog.Pointer) bool {
	_, ok := d.cache.GetValue(nil, key, p.Seg, uint64(p.Off))
	return ok
}

// TestVlogCacheEntriesLeaveWithTheirSegment: a key has one value entry, so
// overwriting it never grows value residency; and a collected segment takes
// the entries still filled from it along — at once, or, when an iterator
// still pins the segment, when the parked drop is released — and the
// cache's value residency falls by exactly what those entries were charged.
func TestVlogCacheEntriesLeaveWithTheirSegment(t *testing.T) {
	// residency is the value entries' share of the cache.
	type residency struct {
		bytes   int64
		entries int
	}
	var d *DB
	resident := func() residency {
		st := d.cache.Stats()
		if st.UsedBytes < st.ValueBytes+st.RowBytes || st.UsedBytes > d.cfg.BlockCacheSize {
			t.Fatalf("cache accounting out of bounds: %+v", st)
		}
		return residency{st.ValueBytes, st.ValueEntries}
	}

	// Every overwrite of one key replaces its entry: across segment
	// rotations, flushes, compactions and GC passes, one 400-byte value
	// stays resident, the newest.
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot := []byte("hot")
	var one residency
	for i := 0; i < 200; i++ {
		if err := d.Put(hot, bigValue(fmt.Sprintf("hot-%d", i), 400)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			one = resident()
		}
		if r := resident(); r != one || r.entries != 1 {
			t.Fatalf("overwrite %d: value residency %+v, want %+v", i, r, one)
		}
		if i%40 == 39 { // drop the overwritten pointers, so GC has victims
			if err := d.FlushMemtable(); err != nil {
				t.Fatal(err)
			}
			if err := d.CompactRange(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !cached(d, hot, pointerOf(t, d, "hot")) {
		t.Fatal("the newest value of an overwritten key is not cached")
	}
	if d.metrics.vlogGCRuns.Value() == 0 {
		t.Fatal("the overwrites collected no segment")
	}
	d.Close()

	d, err = Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadVlogGarbage(t, d) // every value 400 bytes, so every entry is charged alike
	// victimEntries returns the next victim that holds a record some key's
	// entry was filled from, with those records. A victim every record of
	// which was overwritten holds none any more: its pass, run on the
	// way, moves no value.
	victimEntries := func() (uint64, []vlog.Record) {
		for {
			d.mu.Lock()
			vic, ok := d.vs.VlogVictim(vlogGCDeadBudget)
			if !ok {
				d.mu.Unlock()
				t.Fatal("no victim holds a cached record")
			}
			buf, err := d.vlogReadSealed(vic.Num, make([]byte, vic.Bytes))
			d.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			var in []vlog.Record
			s := vlog.NewScanner(vic.Num, buf[vlog.HeaderSize:], vlog.HeaderSize)
			for s.Next() {
				for _, r := range s.Records() {
					if cached(d, r.Key, r.Ptr) {
						in = append(in, r)
					}
				}
			}
			if len(in) > 0 {
				return vic.Num, in
			}
			before := resident()
			if got, _, err := vlogGC(d); err != nil || got != vic.Num {
				t.Fatalf("vlogGC = %d, %v; want victim %d", got, err, vic.Num)
			}
			if after := resident(); after != before {
				t.Fatalf("a pass over victim %d, which holds no entry, moved value residency %+v -> %+v", vic.Num, before, after)
			}
		}
	}
	// gone checks the victim's entries left and took exactly their
	// charge along; the pass itself adds blocks but never a value.
	gone := func(before, after residency, in []vlog.Record) {
		t.Helper()
		for _, r := range in {
			if cached(d, r.Key, r.Ptr) {
				t.Fatalf("record %+v of a dropped segment is still cached", r.Ptr)
			}
		}
		per := before.bytes / int64(before.entries)
		if after.entries != before.entries-len(in) || after.bytes != before.bytes-int64(len(in))*per {
			t.Fatalf("value residency %+v -> %+v, want %d entries of %d bytes gone", before, after, len(in), per)
		}
	}

	vic, in := victimEntries()
	before := resident()
	if got, _, err := vlogGC(d); err != nil || got != vic {
		t.Fatalf("vlogGC = %d, %v; want victim %d", got, err, vic)
	}
	gone(before, resident(), in)

	// The same behind a pin: the drop is parked, the entries stay (no
	// reader can reach them but the pinning iterator's own chases), and
	// closing the iterator releases both.
	snap := d.NewSnapshot()
	it := d.NewSnapshotIterator(snap)
	snap.Release()
	vic, in = victimEntries()
	before = resident()
	if got, _, err := vlogGC(d); err != nil || got != vic {
		t.Fatalf("vlogGC behind an iterator = %d, %v; want victim %d", got, err, vic)
	}
	if parked := resident(); parked != before {
		t.Fatalf("parked drop already moved the cache: %+v -> %+v", before, parked)
	}
	it.Close()
	gone(before, resident(), in)
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestVlogCacheStaysWithinBudget runs a mixed load with values from 100
// bytes to 1 MiB through a small cache: blocks and values together never
// exceed BlockCacheSize, and a value over the admission bound is never
// cached, neither written through nor filled by a read.
func TestVlogCacheStaysWithinBudget(t *testing.T) {
	cfg := vlogConfig()
	cfg.BlockCacheSize = 256 * kv.KiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sizes := []int{100, 300, 1 << 10, 10 << 10, 64 << 10, 64<<10 + 1, 1 << 20}
	ref := map[string][]byte{}
	rng := rand.New(rand.NewSource(11))
	sawValues := false
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key%03d", rng.Intn(80))
		switch want, ok := ref[k]; {
		case !ok || rng.Intn(2) == 0:
			v := bigValue(fmt.Sprintf("%s-%d", k, i), sizes[rng.Intn(len(sizes))])
			if err := d.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		case rng.Intn(4) == 0:
			if _, err := d.Scan([]byte(k), 5); err != nil {
				t.Fatal(err)
			}
		default:
			if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%q) = %d bytes, %v; want %d", i, k, len(got), err, len(want))
			}
		}
		st := d.cache.Stats()
		if st.UsedBytes > cfg.BlockCacheSize || st.ValueBytes > st.UsedBytes {
			t.Fatalf("op %d: cache holds %d bytes (%d of values), budget %d", i, st.UsedBytes, st.ValueBytes, cfg.BlockCacheSize)
		}
		sawValues = sawValues || st.ValueEntries > 0
		if v := ref[k]; len(v) > 64<<10 && cached(d, []byte(k), pointerOf(t, d, k)) {
			t.Fatalf("op %d: %d-byte value of %q was admitted", i, len(v), k)
		}
	}
	if !sawValues || d.metrics.vlogCacheHits.Value() == 0 {
		t.Fatal("the run never cached or hit a value")
	}
}

// TestVlogCacheDoesNotHideMediaDamage flips a bit in the on-media bytes
// of a record whose value is cached. The running store keeps serving the
// acknowledged value, as it would from a cached block; fsck reads the
// media, not the cache, and reports the damage; and once the cache is
// gone (reopen) so does the Get.
func TestVlogCacheDoesNotHideMediaDamage(t *testing.T) {
	cfg := vlogConfig()
	var fd *faultfs.Drive
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 3)
		return fd
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := bigValue("victim", 700)
	if err := d.Put([]byte("victim"), want); err != nil {
		t.Fatal(err)
	}
	// Seal the record's segment and move the replay head past it, so a
	// reopen trusts it instead of rescanning it for a torn tail.
	for i := 0; i < 40; i++ {
		if err := d.Put([]byte(fmt.Sprintf("fill%02d", i)), bigValue("fill", 700)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	p := pointerOf(t, d, "victim")
	if sealed := p.Seg != d.vlog.w.Seg(); !sealed || !cached(d, []byte("victim"), p) {
		t.Fatalf("set-up: segment %d sealed=%v, record cached=%v", p.Seg, sealed, cached(d, []byte("victim"), p))
	}
	ext, err := d.backend.FileExtent(p.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.FlipBit(ext.Off+int64(p.Off)+int64(p.Len)-1, 3); err != nil {
		t.Fatal(err)
	}

	if got, err := d.Get([]byte("victim")); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cached Get after the flip = %d bytes, %v", len(got), err)
	}
	if err := d.VerifyIntegrity(); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("VerifyIntegrity over a damaged, cached record = %v, want vlog.ErrCorrupt", err)
	}
	dev := d.Device()
	d.Close()
	d, err = OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got, err := d.Get([]byte("victim")); !errors.Is(err, vlog.ErrCorrupt) {
		t.Fatalf("Get after reopen = %d bytes, %v; want vlog.ErrCorrupt", len(got), err)
	}
	if cached(d, []byte("victim"), p) {
		t.Fatal("a record that failed its CRC was cached")
	}
}

// TestVlogFailedCommitCachesNothing: write-through happens after the
// group write succeeded, so a commit the device refused leaves no entry
// a later read could be served from.
func TestVlogFailedCommitCachesNothing(t *testing.T) {
	cfg := vlogConfig()
	var fd *faultfs.Drive
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 5)
		return fd
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put([]byte("acked"), bigValue("acked", 500)); err != nil {
		t.Fatal(err)
	}
	before := d.cache.Stats()
	if before.ValueEntries != 1 {
		t.Fatalf("the acknowledged put was not written through: %+v", before)
	}
	d.mu.Lock()
	seg, off := d.vlog.w.Seg(), d.vlog.w.Offset()
	d.mu.Unlock()
	fd.Inject(faultfs.Rule{Op: faultfs.OpWrite, Count: 1})
	if err := d.Put([]byte("refused"), bigValue("refused", 500)); err == nil || d.Degraded() == nil {
		t.Fatalf("Put under a permanent write error = %v, degraded = %v", err, d.Degraded())
	}
	if _, ok := d.cache.GetValue(nil, []byte("refused"), seg, uint64(off)); ok {
		t.Fatal("the refused group's record is in the cache")
	}
	if after := d.cache.Stats(); after.ValueEntries != before.ValueEntries || after.UsedBytes != before.UsedBytes {
		t.Fatalf("a failed commit moved the cache: %+v -> %+v", before, after)
	}
	if _, err := d.Get([]byte("refused")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the refused key = %v", err)
	}
}

// TestVlogWriteThroughSteadyStateAllocsNothing: once the cache is full
// of like-sized values, caching one more, of a key not cached yet,
// recycles the entry it evicts — entry and buffer — instead of
// allocating.
func TestVlogWriteThroughSteadyStateAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	cfg := vlogConfig()
	cfg.BlockCacheSize = 64 * kv.KiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	v := bigValue("steady", 1<<10)
	keys := make([][]byte, 1024) // distinct, allocated before the count
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%05d", i))
	}
	next, i := uint64(vlog.HeaderSize), 0
	put := func() {
		d.cache.PutValue(keys[i], 9, next, v)
		next += uint64(len(v))
		i++
	}
	for d.cache.Stats().UsedBytes+2*int64(len(v)) < cfg.BlockCacheSize {
		put()
	}
	put()
	full := d.cache.Stats()
	if n := testing.AllocsPerRun(200, put); n != 0 {
		t.Errorf("write-through into a full cache allocates %.1f times per value, want 0", n)
	}
	if st := d.cache.Stats(); st.ValueEntries != full.ValueEntries || st.UsedBytes != full.UsedBytes {
		t.Fatalf("steady state drifted: %+v -> %+v", full, st)
	}
}

// TestVlogScanCopiesEachValueOnce: the iterator resolves a separated
// value into its reused buffer, so a Scan pays one allocation per value
// it returns (the copy it hands out), as with values inline.
func TestVlogScanCopiesEachValueOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 128
	for i := 0; i < n; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key%03d", i)), bigValue("scan", 600)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if kvs, err := d.Scan([]byte("key000"), n); err != nil || len(kvs) != n {
			t.Fatalf("Scan = %d entries, %v", len(kvs), err)
		}
	})
	// One per entry is the copy of key and value Scan returns; building
	// the iterator is a few dozen more. A second copy per value would
	// make it two per entry.
	if allocs > 1.5*n {
		t.Errorf("Scan of %d separated values allocates %.0f times, want about %d", n, allocs, n)
	}
}

// TestVlogLargePutsDoNotRotateTheWAL: room is made for what a commit adds
// to the tree — a pointer — not for the megabyte headed to the value
// log, so large Puts neither rotate the WAL nor flush one-entry
// memtables.
func TestVlogLargePutsDoNotRotateTheWAL(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 12; i++ {
		if err := d.Put([]byte(fmt.Sprintf("big%02d", i)), bigValue("big", 1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.MetricsSnapshot()
	if rot, fl := s.Counters["sealdb_wal_rotations_total"], s.Counters["sealdb_flush_total"]; rot != 0 || fl != 0 {
		t.Fatalf("12 separated 1 MiB Puts caused %d WAL rotations and %d flushes, want none", rot, fl)
	}
	if got, err := d.Get([]byte("big07")); err != nil || !bytes.Equal(got, bigValue("big", 1<<20)) {
		t.Fatalf("Get(big07) = %d bytes, %v", len(got), err)
	}
}

// TestPutReusesPooledBatch: Put builds its one-entry batch in a pooled
// buffer, so it allocates no more than applying a batch the caller
// recycles by hand — on two stores doing identical work otherwise.
func TestPutReusesPooledBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	allocs := func(write func(d *DB, k, v []byte) error) float64 {
		d, err := Open(tinyConfig(ModeSEALDB))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		i, v := 0, bigValue("pooled", 1<<10)
		return testing.AllocsPerRun(300, func() {
			i++
			if err := write(d, []byte(fmt.Sprintf("key%05d", i)), v); err != nil {
				t.Fatal(err)
			}
		})
	}
	b := NewBatch()
	byHand := allocs(func(d *DB, k, v []byte) error {
		b.Reset()
		b.Put(k, v)
		return d.Apply(b)
	})
	if viaPut := allocs((*DB).Put); viaPut > byHand {
		t.Errorf("Put allocates %.0f times per call, Apply of a recycled batch %.0f", viaPut, byHand)
	}
}
