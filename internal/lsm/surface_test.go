// Storage-surface observatory tests: the incremental band accounting
// must agree with a fresh extent-table scan at any point in a live
// workload, survive close/reopen (rebuild-on-recovery), emit periodic
// snapshot events on the device clock, fold vlog segment occupancy
// into /debug/bands, and cost nothing on the write hot path while
// sampling is disabled.
package lsm

import (
	"fmt"
	"testing"
	"time"

	"sealdb/internal/invariant"
)

// churnSurface drives n seeded puts (values ~200 B) through the DB,
// overwriting every third key to create dead data, so flushes and
// compactions exercise every surface path: frontier appends, free-list
// inserts, set claims, dead charges, frees.
func churnSurface(t *testing.T, d *DB, n int) {
	t.Helper()
	val := make([]byte, 200)
	for i := 0; i < n; i++ {
		k := i
		if i%3 == 0 {
			k = i / 2 // overwrite an earlier key
		}
		key := fmt.Sprintf("key-%06d", k)
		for j := range val {
			val[j] = byte(i + j)
		}
		if err := d.Put([]byte(key), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
}

// TestSurfaceAccountingMatchesScanMidRun checks the tentpole's core
// contract on a live store: after real flush/compaction traffic the
// incrementally maintained per-band counters equal a fresh scan over
// the extent table, and the profile totals are internally consistent.
func TestSurfaceAccountingMatchesScanMidRun(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for round := 0; round < 4; round++ {
		churnSurface(t, d, 800)
		if err := d.VerifySurface(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifySurface(); err != nil {
		t.Fatalf("after CompactRange: %v", err)
	}

	sp := d.SpaceProfile()
	if sp.PhysicalBytes <= 0 || sp.TableBytes <= 0 {
		t.Fatalf("degenerate space profile: %+v", sp)
	}
	if sp.SpaceAmplification < 1 {
		t.Fatalf("SA %.3f < 1: physical bytes cannot undercut live bytes", sp.SpaceAmplification)
	}
	bp := d.BandProfile()
	if len(bp.Bands) == 0 {
		t.Fatal("no bands tracked after a compacting workload")
	}
	var alloc, dead int64
	for i, r := range bp.Bands {
		if r.Live != r.Alloc-r.Dead {
			t.Fatalf("band %d: live %d != alloc %d - dead %d", r.Band, r.Live, r.Alloc, r.Dead)
		}
		if r.Dead < 0 || r.Dead > r.Alloc {
			t.Fatalf("band %d: dead %d outside [0,%d]", r.Band, r.Dead, r.Alloc)
		}
		if i > 0 && bp.Bands[i-1].Heat < r.Heat {
			t.Fatalf("bands not sorted by heat: row %d (%.0f) after %.0f", i, r.Heat, bp.Bands[i-1].Heat)
		}
		alloc += r.Alloc
		dead += r.Dead
	}
	if alloc != sp.PhysicalBytes {
		t.Fatalf("band alloc sum %d != physical %d", alloc, sp.PhysicalBytes)
	}
	if dead != sp.SurfaceDeadBytes {
		t.Fatalf("band dead sum %d != surface dead %d", dead, sp.SurfaceDeadBytes)
	}
}

// TestSurfaceRebuildEqualsFreshScan is the rebuild-on-recovery
// contract: after close and reopen on the same device, the rebuilt
// accounting equals a freshly computed scan, and stays consistent
// through further traffic.
func TestSurfaceRebuildEqualsFreshScan(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	dev := NewDevice(cfg)
	d, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	churnSurface(t, d, 2500)
	if err := d.VerifySurface(); err != nil {
		t.Fatalf("before close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(d2.SurfaceExtents()) == 0 {
		t.Fatal("rebuild tracked no extents on a populated device")
	}
	if err := d2.VerifySurface(); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
	churnSurface(t, d2, 800)
	if err := d2.VerifySurface(); err != nil {
		t.Fatalf("after post-reopen writes: %v", err)
	}
}

// TestSurfaceSnapshotEvents arms periodic sampling on a tiny
// device-time interval and checks the journal carries both snapshot
// event kinds, with the band rows summing to the space row.
func TestSurfaceSnapshotEvents(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.SurfaceSnapshotInterval = time.Millisecond // device time
	cfg.JournalCapacity = 1 << 14
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	churnSurface(t, d, 1500)
	d.SurfaceSnapshot()

	var spaces, bands int
	var lastPhys, bandSum int64
	for _, e := range d.Events() {
		switch e.Type {
		case "space_snapshot":
			spaces++
			lastPhys = e.Fields["physical"]
			bandSum = 0
		case "band_snapshot":
			bands++
			bandSum += e.Fields["alloc"]
		}
	}
	if spaces < 2 {
		t.Fatalf("want >= 2 space_snapshot events (periodic + on demand), got %d", spaces)
	}
	if bands == 0 {
		t.Fatal("no band_snapshot events")
	}
	if bandSum != lastPhys {
		t.Fatalf("final snapshot: band alloc sum %d != physical %d", bandSum, lastPhys)
	}
}

// TestSurfaceVlogOccupancy checks the satellite fix: the per-segment
// occupancy maybeVlogGC's victim selection reads is exported through
// the /debug/bands payload, threshold included.
func TestSurfaceVlogOccupancy(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.ValueThreshold = 64
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	churnSurface(t, d, 1200)

	bp := d.BandProfile()
	if len(bp.Vlog) == 0 {
		t.Fatal("no vlog segment rows in the band profile")
	}
	if bp.VlogGCDead <= 0 {
		t.Fatalf("vlog GC threshold %v not exported", bp.VlogGCDead)
	}
	for _, seg := range bp.Vlog {
		if seg.Live != seg.Bytes-seg.Overhead-seg.Dead {
			t.Fatalf("segment %d: live %d != bytes %d - overhead %d - dead %d", seg.Num, seg.Live, seg.Bytes, seg.Overhead, seg.Dead)
		}
	}
	if err := d.VerifySurface(); err != nil {
		t.Fatal(err)
	}
	sp := d.SpaceProfile()
	if sp.VlogLiveBytes <= 0 {
		t.Fatalf("vlog live bytes missing from space profile: %+v", sp)
	}
}

// TestSurfaceSnapshotDisabledAllocs is the hot-path guard: with
// periodic sampling disabled (the default), the per-batch snapshot
// check is two field reads and must not allocate.
func TestSurfaceSnapshotDisabledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	if invariant.Enabled {
		t.Skip("lock-order watchdog allocates on profiled acquisitions")
	}
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.surfaceSnapEvery != 0 {
		t.Fatal("sampling unexpectedly enabled")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := testing.AllocsPerRun(1000, func() {
		d.maybeSurfaceSnapshot()
	}); n > 0 {
		t.Errorf("disabled-sampling snapshot check allocates %.1f times per call, want 0", n)
	}
}
