// Storage-surface observatory tests: the per-band view must stay
// consistent with the allocator at any point in a live workload,
// count space parked behind a live iterator as dead, come out the same
// after close/reopen with nothing to rebuild, and fold vlog segment
// occupancy into /debug/bands.
package lsm

import (
	"fmt"
	"reflect"
	"testing"
)

// churnSurface drives n seeded puts (values ~200 B) through the DB,
// overwriting every third key to create dead data, so flushes and
// compactions exercise every extent owner the view reads: frontier
// appends, free-list inserts, set groups with dead members, frees.
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

// TestSurfaceAccountingMatchesScanMidRun checks the view on a live
// store: after real flush/compaction traffic the owned extents still
// reconcile with the allocator (VerifyIntegrity), the profile totals
// are internally consistent, and the bands come deadest first: by live
// ratio ascending, then by band.
func TestSurfaceAccountingMatchesScanMidRun(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for round := 0; round < 4; round++ {
		churnSurface(t, d, 800)
		if err := d.VerifyIntegrity(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyIntegrity(); err != nil {
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
		if r.Alloc <= 0 {
			t.Fatalf("band %d listed with no allocation", r.Band)
		}
		if i > 0 {
			prev := bp.Bands[i-1]
			if prev.LiveRatio > r.LiveRatio || prev.LiveRatio == r.LiveRatio && prev.Band >= r.Band {
				t.Fatalf("bands not sorted by live ratio, then band: row %d (band %d, %.4f) after band %d (%.4f)",
					i, r.Band, r.LiveRatio, prev.Band, prev.LiveRatio)
			}
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

// TestSurfaceViewSurvivesReopen closes and reopens a populated device:
// the view holds no state of its own, so with nothing to rebuild every
// band comes out as it was, and stays consistent through further traffic. The one thing a reopen
// moves is the WAL (the new one is allocated before the old is freed),
// so per-band allocation is compared after taking ungrouped files out.
func TestSurfaceViewSurvivesReopen(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	dev := NewDevice(cfg)
	d, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	churnSurface(t, d, 8000)
	// With the memtable empty the reopen flushes nothing: it only swaps
	// the WAL for one of the same size.
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	type bandView struct {
		Dead, SetAlloc int64
		Sets           []uint64
	}
	view := func(d *DB) (map[int64]bandView, []ownedExtent) {
		bands := map[int64]bandView{}
		for _, r := range d.BandProfile().Bands {
			if r.Alloc > 0 {
				bands[r.Band] = bandView{Dead: r.Dead, Sets: r.Sets}
			}
		}
		d.mu.Lock()
		owned := d.ownedExtents()
		d.mu.Unlock()
		var sets []ownedExtent
		for _, e := range owned {
			if e.kind != ownedSet {
				continue
			}
			sets = append(sets, e)
			eachBand(cfg.BandSize, e.off, e.len, func(b, overlap int64) {
				v := bands[b]
				v.SetAlloc += overlap
				bands[b] = v
			})
		}
		return bands, sets
	}
	wantBands, wantSets := view(d)
	wantSpace := d.SpaceProfile()
	if len(wantSets) == 0 || wantSpace.SurfaceDeadBytes == 0 {
		t.Fatalf("degenerate start: %d sets, %d dead bytes", len(wantSets), wantSpace.SurfaceDeadBytes)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	gotBands, gotSets := view(d2)
	if !reflect.DeepEqual(gotSets, wantSets) {
		t.Fatalf("set extents changed across reopen:\n got %+v\nwant %+v", gotSets, wantSets)
	}
	for b, want := range wantBands {
		if got := gotBands[b]; want.SetAlloc+want.Dead > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("band %d changed across reopen: got %+v, want %+v", b, got, want)
		}
	}
	gotSpace := d2.SpaceProfile()
	gotSpace.Frag = wantSpace.Frag // the moved WAL moves the holes
	if gotSpace != wantSpace {
		t.Fatalf("space profile changed across reopen:\n got %+v\nwant %+v", gotSpace, wantSpace)
	}
	if err := d2.VerifyIntegrity(); err != nil {
		t.Fatalf("after reopen: %v", err)
	}
	churnSurface(t, d2, 800)
	if err := d2.VerifyIntegrity(); err != nil {
		t.Fatalf("after post-reopen writes: %v", err)
	}
}

// TestSurfaceViewUnderDeferredReclaim holds an iterator across a manual
// compaction (and, with values separated, a value-log collection): the
// inputs the iterator may still read stay allocated, so the view must
// count them — physical bytes still equal the allocator's, the parked
// bytes are dead, fsck passes — until closing the iterator frees them.
func TestSurfaceViewUnderDeferredReclaim(t *testing.T) {
	for _, vlogOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("vlog=%v", vlogOn), func(t *testing.T) {
			cfg := tinyConfig(ModeSEALDB)
			if vlogOn {
				cfg.ValueThreshold = 64
				cfg.VlogSegSize = 8 << 10
			}
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			churnSurface(t, d, 2500)
			if err := d.FlushMemtable(); err != nil {
				t.Fatal(err)
			}

			// The iterator holds its read state; releasing the snapshot it
			// was built from lets the collector run while it is held.
			snap := d.NewSnapshot()
			it := d.NewSnapshotIterator(snap)
			snap.Release()
			it.SeekToFirst()
			if !it.Valid() {
				t.Fatalf("iterator empty: %v", it.Error())
			}

			// Overwrite everything the iterator can see: every table and
			// value-log segment of its version dies behind it.
			gcRuns := d.Stats().VlogGCRuns
			churnSurface(t, d, 2500)
			if err := d.CompactRange(nil, nil); err != nil {
				t.Fatal(err)
			}
			if vlogOn {
				if _, _, err := vlogGC(d); err != nil {
					t.Fatal(err)
				}
				if d.Stats().VlogGCRuns == gcRuns {
					t.Fatal("no value-log segment was collected behind the iterator")
				}
			}

			// What the iterator holds back: ungrouped files (L0 tables,
			// the collected segment) and the groups of emptied sets. A
			// parked set member is inside a group counted either way.
			d.mu.Lock()
			grouped := map[uint64]bool{}
			extent := map[uint64]int64{}
			for _, fr := range d.backend.Files() {
				grouped[fr.Num], extent[fr.Num] = fr.Grouped, fr.Extent.Len
			}
			var parked int64
			for _, s := range d.retiring {
				for _, num := range s.retired.Files {
					if !grouped[num] {
						parked += extent[num]
					}
				}
				for _, set := range s.retired.Sets {
					parked += set.Len
				}
			}
			d.mu.Unlock()
			if parked == 0 {
				t.Fatal("nothing parked behind the iterator")
			}
			held := d.SpaceProfile()
			if alloc := d.Device().DBand.AllocatedBytes(); held.PhysicalBytes != alloc {
				t.Fatalf("physical %d != allocator's %d with reclaims parked", held.PhysicalBytes, alloc)
			}
			if held.SurfaceDeadBytes < parked {
				t.Fatalf("surface dead %d does not cover the %d parked bytes", held.SurfaceDeadBytes, parked)
			}
			if err := d.VerifyIntegrity(); err != nil {
				t.Fatalf("with reclaims parked: %v", err)
			}

			it.Close()
			freed := d.SpaceProfile()
			if got := held.SurfaceDeadBytes - freed.SurfaceDeadBytes; got != parked {
				t.Fatalf("closing the iterator dropped dead bytes by %d, want the %d parked", got, parked)
			}
			if got := held.PhysicalBytes - freed.PhysicalBytes; got != parked {
				t.Fatalf("closing the iterator freed %d physical bytes, want the %d parked", got, parked)
			}
			if err := d.VerifyIntegrity(); err != nil {
				t.Fatalf("after the iterator closed: %v", err)
			}
		})
	}
}

// TestSurfaceVlogOccupancy checks the satellite fix: the per-segment
// occupancy the GC pass's victim selection (gcJob) reads is exported through
// the /debug/bands payload, the log-wide dead budget included.
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
	if bp.VlogGCDead != vlogGCDeadBudget {
		t.Fatalf("vlog GC dead budget %v exported as %v", vlogGCDeadBudget, bp.VlogGCDead)
	}
	for _, seg := range bp.Vlog {
		if seg.Live != seg.Bytes-seg.Overhead-seg.Dead {
			t.Fatalf("segment %d: live %d != bytes %d - overhead %d - dead %d", seg.Num, seg.Live, seg.Bytes, seg.Overhead, seg.Dead)
		}
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	sp := d.SpaceProfile()
	if sp.VlogLiveBytes <= 0 {
		t.Fatalf("vlog live bytes missing from space profile: %+v", sp)
	}
}
