// Crash-replay drivers: run the crashtest harness against the engine
// with a geometry small enough that the seeded workload crosses
// several flushes and compactions, then cut power at every device
// write boundary and check the recovery contract after each reopen.
// This file is an external test package so it can import the harness
// (which itself imports lsm).
package lsm_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/faultfs/crashtest"
	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/smr"
)

// crashConfig builds a harness config on a tiny geometry: 8 KiB
// SSTables and memtables make a ~300-op workload produce multiple
// flushes, and the script's explicit compactions plus the L0 trigger
// produce real merges, so cuts land inside every phase the engine
// has: WAL appends, table writes, manifest edits, set migrations.
func crashConfig(mode lsm.Mode, stride int64) crashtest.Config {
	return crashtest.Config{
		DB: lsm.Config{
			Mode: mode,
			// 256 MiB keeps an extfs block group (capacity/64) larger
			// than the manifest extent; the platter is sparse, so the
			// capacity costs nothing.
			Geometry: lsm.ScaledGeometry(8*kv.KiB, 256*kv.MiB),
			Seed:     1,
		},
		Seed:   42,
		Ops:    crashtest.Workload(42, 300, 120),
		Stride: stride,
	}
}

// TestCrashReplay is the acceptance sweep: SEALDB mode, power cut at
// every write boundary (strided under -short to keep the default
// suite fast; CI runs the full sweep).
func TestCrashReplay(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	res := crashtest.Run(t, crashConfig(lsm.ModeSEALDB, stride))
	t.Logf("crash replay (sealdb): %s", res)
	if res.Cuts == 0 {
		t.Fatal("harness injected no cuts")
	}
}

// longCrashConfig is the sweep over a store that has outgrown its first
// few sets: 1,500 ops over 400 keys reach multi-member group writes,
// set drops and free-list reuse, which the 300-op script never does.
func longCrashConfig() crashtest.Config {
	cfg := crashConfig(lsm.ModeSEALDB, 1)
	if testing.Short() {
		cfg.Stride = 61
	}
	cfg.Ops = crashtest.Workload(42, 1500, 400)
	return cfg
}

// TestCrashReplayLong cuts power at every write boundary of the long
// script. Its cuts land inside group writes of several members: a cut
// after the first member must leave the extent either owned or free on
// both the allocator's and the drive's books, or the store recovers
// unwritable.
func TestCrashReplayLong(t *testing.T) {
	res := crashtest.Run(t, longCrashConfig())
	t.Logf("crash replay (sealdb, long): %s", res)
}

// TestCrashReplayRelocation is a long script with a band-GC pass after
// ops 875 and 1,300, so cuts land at every write inside a set
// relocation: the copy's group write, the edit that swaps it in, and
// what follows. Either set must recover whole. The script is seed 43's,
// 1,650 ops long: seed 42's 1,500 ops leave no fragment in front of a
// set at any op, and nor do seed 43's 1,500 since a level 0 that nothing
// reads drains at 12 files.
func TestCrashReplayRelocation(t *testing.T) {
	cfg := longCrashConfig()
	var ops []crashtest.Op
	for i, op := range crashtest.Workload(43, 1650, 400) {
		if ops = append(ops, op); i == 875 || i == 1300 {
			ops = append(ops, crashtest.Op{Kind: crashtest.OpDefrag})
		}
	}
	cfg.Ops = ops
	res := crashtest.Run(t, cfg)
	t.Logf("crash replay (sealdb, relocation): %s", res)
	if res.SetsMoved == 0 {
		t.Fatal("the clean pass relocated no set")
	}
}

// mixedBatch builds the batch a value-log group has to carry whole: a
// separated value, an inline one (under the tests' 64 B threshold) and
// a tombstone, over keys of the crash workload's keyspace.
func mixedBatch(i int) crashtest.Op {
	key := func(j int) []byte { return []byte(fmt.Sprintf("key%06d", (7*i+j)%120)) }
	return crashtest.Op{
		Kind: crashtest.OpBatch,
		Keys: [][]byte{key(0), key(1), key(2)},
		Vals: [][]byte{
			bytes.Repeat([]byte{'A' + byte(i%26)}, 100+i%80),
			[]byte(fmt.Sprintf("inline-%d", i)),
			nil,
		},
	}
}

// TestCrashReplayVlog sweeps the value-separated mode: the workload's
// 60–180 B values separate at a 64 B threshold, and every eighth op is
// a batch mixing a separated value, an inline value and a tombstone,
// so cuts land in value-log group writes, WAL appends (the batches
// that separate nothing), segment rotations and everything flushes do.
// Acked writes must recover — from whichever of the two logs took them
// — with no dangling reference, and the in-flight batch all or
// nothing; VerifyIntegrity checks pointer/segment reconciliation after
// every reopen.
func TestCrashReplayVlog(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 13
	}
	cfg := crashConfig(lsm.ModeSEALDB, stride)
	cfg.DB.ValueThreshold = 64
	var ops []crashtest.Op
	for i, op := range cfg.Ops {
		if ops = append(ops, op); i%8 == 7 {
			ops = append(ops, mixedBatch(i))
		}
	}
	cfg.Ops = ops
	res := crashtest.Run(t, cfg)
	t.Logf("crash replay (sealdb+vlog): %s", res)
	if res.Cuts == 0 || res.VlogGCRuns == 0 {
		t.Fatal("harness injected no cuts, or the script ran no value-log GC pass for them to land in")
	}
}

// TestVlogGroupTornAtEveryPrefix tears the one device write of a
// mixed batch's commit after every possible number of bytes. The group
// is laid out values first, frame last, so until the last byte lands
// the frame is incomplete and recovery must drop the batch whole —
// separated value, inline value and tombstone alike; with every byte
// down the batch was durable (if never acknowledged) and must apply
// whole. Writes acknowledged before it survive either way.
func TestVlogGroupTornAtEveryPrefix(t *testing.T) {
	cfg := crashConfig(lsm.ModeSEALDB, 1).DB
	cfg.ValueThreshold = 64
	big := bytes.Repeat([]byte("v"), 150)
	batch := func() *lsm.Batch {
		b := lsm.NewBatch()
		b.Put([]byte("separated"), bytes.Repeat([]byte("S"), 200))
		b.Put([]byte("inline"), []byte("small"))
		b.Delete([]byte("doomed"))
		return b
	}
	for keep, groupLen := 0, 1; keep <= groupLen; keep++ {
		var fd *faultfs.Drive
		cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
			fd = faultfs.New(inner, 1)
			return fd
		}
		dev := lsm.NewDevice(cfg)
		db, err := lsm.OpenDevice(cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"doomed", "bystander"} {
			if err := db.Put([]byte(k), big); err != nil {
				t.Fatal(err)
			}
		}
		if keep == 0 {
			// Learn the group's length from a dry run of the same commit.
			before := dev.Disk.Stats()
			if err := db.Apply(batch()); err != nil {
				t.Fatal(err)
			}
			after := dev.Disk.Stats()
			if after.WriteOps != before.WriteOps+1 {
				t.Fatalf("the commit took %d device writes, want 1", after.WriteOps-before.WriteOps)
			}
			groupLen = int(after.BytesWritten - before.BytesWritten)
			continue
		}
		fd.TearAtWrite(1, keep)
		cacheUsed := db.MetricsSnapshot().Gauges["sealdb_cache_used_bytes"]
		if err := db.Apply(batch()); !errors.Is(err, faultfs.ErrPowerCut) {
			t.Fatalf("keep %d: commit under a power cut returned %v", keep, err)
		}
		// Values are written through to the cache only once their group
		// write succeeded: this one's must not be there to be served.
		if now := db.MetricsSnapshot().Gauges["sealdb_cache_used_bytes"]; now != cacheUsed || cacheUsed == 0 {
			t.Fatalf("keep %d: torn commit moved the cache from %v to %v bytes", keep, cacheUsed, now)
		}
		fd.PowerOn()
		db, err = lsm.OpenDevice(cfg, dev)
		if err != nil {
			t.Fatalf("keep %d: reopen: %v", keep, err)
		}
		if err := db.VerifyIntegrity(); err != nil {
			t.Fatalf("keep %d: %v", keep, err)
		}
		applied := keep == groupLen
		for k, want := range map[string][]byte{
			"separated": bytes.Repeat([]byte("S"), 200), "inline": []byte("small"), "doomed": nil, "bystander": big,
		} {
			if !applied && k == "doomed" {
				want = big
			} else if !applied && k != "bystander" {
				want = nil
			}
			got, err := db.Get([]byte(k))
			if want == nil && !errors.Is(err, lsm.ErrNotFound) || want != nil && (err != nil || !bytes.Equal(got, want)) {
				t.Fatalf("keep %d of %d: Get(%q) = %d bytes, %v; batch applied must be %v", keep, groupLen, k, len(got), err, applied)
			}
		}
		// Two acknowledged puts, one group each, and the batch's if whole.
		if rec := db.Recovery(); rec.VlogGroups != 2 && !applied || rec.VlogGroups != 3 && applied || rec.WALRecords != 0 {
			t.Fatalf("keep %d of %d: recovery replayed %d groups and %d WAL records", keep, groupLen, rec.VlogGroups, rec.WALRecords)
		}
		// The log keeps working where the torn group was cut away.
		if err := db.Apply(batch()); err != nil {
			t.Fatalf("keep %d: commit after recovery: %v", keep, err)
		}
		db.Close()
		if db, err = lsm.OpenDevice(cfg, dev); err != nil {
			t.Fatalf("keep %d: second reopen: %v", keep, err)
		}
		if v, err := db.Get([]byte("separated")); err != nil || len(v) != 200 {
			t.Fatalf("keep %d: value committed after recovery: %d bytes, %v", keep, len(v), err)
		}
		db.Close()
	}
}

// TestCrashReplayFixedBand covers the fixed-band drive and ext4-like
// allocator recovery path (ModeLevelDB). Strided: the sweep's value
// here is hitting the other allocator's reopen code, not exhaustive
// boundary coverage, which TestCrashReplay already provides.
func TestCrashReplayFixedBand(t *testing.T) {
	stride := int64(7)
	if testing.Short() {
		stride = 41
	}
	res := crashtest.Run(t, crashConfig(lsm.ModeLevelDB, stride))
	t.Logf("crash replay (leveldb): %s", res)
}
