package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/smr"
)

// newFaultDB builds a store with a faultfs injector spliced into the
// drive stack via the WrapDrive hook, under the retry middleware.
func newFaultDB(t *testing.T, mode Mode) (*DB, *faultfs.Drive) {
	t.Helper()
	cfg := tinyConfig(mode)
	var fd *faultfs.Drive
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 7)
		return fd
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, fd
}

// TestPermanentWriteFailureDegradesStore: a permanent device failure
// mid-operation surfaces to the caller, moves the store into
// read-only degraded mode (every later write fails with ErrDegraded
// without touching the device), and leaves acknowledged data
// readable.
func TestPermanentWriteFailureDegradesStore(t *testing.T) {
	d, fd := newFaultDB(t, ModeSEALDB)
	defer d.Close()
	ref := map[string]string{}
	for i := 0; i < 500; i++ {
		k, v := fmt.Sprintf("pre%05d", i), fmt.Sprintf("v%d", i)
		if err := d.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}

	// The next device write fails permanently.
	fd.Inject(faultfs.Rule{Op: faultfs.OpWrite, Count: 1})
	var sawErr bool
	for i := 0; i < 5000 && !sawErr; i++ {
		if err := d.Put([]byte(fmt.Sprintf("post%05d", i)), []byte("x")); err != nil {
			var fe *faultfs.Error
			if !errors.As(err, &fe) || fe.Temporary {
				t.Fatalf("first failure should be the injected permanent error, got %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("injected failure never surfaced")
	}

	// The store is now degraded: writes and maintenance fail with
	// ErrDegraded, distinct from the device error.
	if err := d.Degraded(); err == nil {
		t.Fatal("Degraded() = nil after a permanent write failure")
	}
	if err := d.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put on degraded store = %v, want ErrDegraded", err)
	}
	if err := d.FlushMemtable(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("FlushMemtable on degraded store = %v, want ErrDegraded", err)
	}
	if err := compactAll(d); !errors.Is(err, ErrDegraded) {
		t.Fatalf("compactAll on degraded store = %v, want ErrDegraded", err)
	}

	// Everything acknowledged before the failure is still there.
	for k, v := range ref {
		got, err := d.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%q) on degraded store = (%q, %v)", k, got, err)
		}
	}

	// The fault profile exposes the whole story.
	fp := d.FaultProfile()
	if !fp.Degraded || fp.DegradedCause == "" {
		t.Fatalf("FaultProfile degraded = %v cause %q", fp.Degraded, fp.DegradedCause)
	}
	if fp.Injected["injected_write_errors"] != 1 {
		t.Fatalf("injected_write_errors = %d, want 1", fp.Injected["injected_write_errors"])
	}
}

// TestTransientWriteFailureHealsViaRetry: transient device errors
// within the retry budget are absorbed — the write succeeds, nothing
// degrades, and the retry counters record the recovery.
func TestTransientWriteFailureHealsViaRetry(t *testing.T) {
	d, fd := newFaultDB(t, ModeSEALDB)
	defer d.Close()
	if err := d.Put([]byte("before"), []byte("x")); err != nil {
		t.Fatal(err)
	}

	// The next two write attempts fail transiently; the default
	// budget of 3 retries rides them out.
	fd.Inject(faultfs.Rule{Op: faultfs.OpWrite, Count: 2, Temporary: true})
	if err := d.Put([]byte("hiccup"), []byte("survives")); err != nil {
		t.Fatalf("Put through transient errors = %v, want success", err)
	}
	if err := d.Degraded(); err != nil {
		t.Fatalf("store degraded by transient errors: %v", err)
	}
	if got, err := d.Get([]byte("hiccup")); err != nil || string(got) != "survives" {
		t.Fatalf("Get after retried write = (%q, %v)", got, err)
	}

	fp := d.FaultProfile()
	if fp.Retry == nil || fp.Retry.Recovered < 1 {
		t.Fatalf("retry stats did not record the recovery: %+v", fp.Retry)
	}
	if fp.Injected["injected_write_errors"] != 2 {
		t.Fatalf("injected_write_errors = %d, want 2", fp.Injected["injected_write_errors"])
	}
}

// TestTornWALRecovered: corruption at the tail of the live WAL (a
// torn final append, injected as bit flips past the logical end)
// must not prevent recovery of the intact prefix, and the skipped
// bytes must be reported.
func TestTornWALRecovered(t *testing.T) {
	d, fd := newFaultDB(t, ModeSEALDB)
	// A few durable (flushed) writes plus some WAL-only writes.
	ref := loadRandom(t, d, 1500, 31)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("walonly%03d", i)
		d.Put([]byte(k), []byte("keep"))
		ref[k] = "keep"
	}
	// Locate the live WAL and flip bits right where the next record
	// header would land — a torn append that never completed.
	ext, err := d.backend.FileExtent(d.walNum)
	if err != nil {
		t.Fatal(err)
	}
	logical := d.walFile.Size()
	dev := d.Device()
	cfg := d.cfg
	d.Close()

	if logical+24 >= ext.Len {
		t.Fatalf("WAL unexpectedly full: logical %d of %d", logical, ext.Len)
	}
	for i := int64(0); i < 24; i++ {
		if err := fd.FlipBit(ext.Off+logical+i, uint(i%8)); err != nil {
			t.Fatal(err)
		}
	}

	d2, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatalf("recovery with torn WAL tail failed: %v", err)
	}
	defer d2.Close()
	verifyAll(t, d2, ref)
	rec := d2.Recovery()
	if !rec.WALTornTail || rec.WALSkippedBytes == 0 {
		t.Fatalf("recovery did not report the torn tail: %+v", rec)
	}
	if rec.WALRecords == 0 {
		t.Fatalf("no WAL records replayed before the tear: %+v", rec)
	}
}

// TestRecoveryIdempotent: opening and closing repeatedly without
// writes must not lose or duplicate anything.
func TestRecoveryIdempotent(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	d, _ := Open(cfg)
	ref := loadRandom(t, d, 2000, 37)
	dev := d.Device()
	d.Close()
	for i := 0; i < 5; i++ {
		d2, err := OpenDevice(cfg, dev)
		if err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		verifyAll(t, d2, ref)
		if err := d2.VerifyIntegrity(); err != nil {
			t.Fatalf("reopen %d: %v", i, err)
		}
		d2.Close()
	}
}

// TestOpenRejectsBadGeometry covers configuration validation.
func TestOpenRejectsBadGeometry(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.SSTableSize = 0 },
		func(c *Config) { c.BandSize = -1 },
		func(c *Config) { c.MemtableSize = 0 },
		func(c *Config) { c.DiskCapacity = 0 },
		func(c *Config) { c.DeviceTimeScale = -2 },
	}
	for i, mutate := range bad {
		cfg := tinyConfig(ModeSEALDB)
		mutate(&cfg)
		if _, err := Open(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestRelocationWriteFailureDegradesStore: a set relocation writes the
// new set before it touches the old one, so a permanent failure of the
// group write — on its first member or a later one — fails the pass and
// stops the store accepting writes, and that is all: the current version
// still maps every file, every key still answers, and the next open
// finds a whole store that takes writes again.
func TestRelocationWriteFailureDegradesStore(t *testing.T) {
	for member := int64(1); member <= 2; member++ {
		d, fd := newFaultDB(t, ModeSEALDB)
		ref := loadRandom(t, d, 12000, 17) // churn: dead sets and fragments

		// A relocation reads, then writes: its group write's members are
		// the next device writes.
		fd.Inject(faultfs.Rule{Op: faultfs.OpWrite, After: fd.WriteCount() + member - 1, Count: 1})
		_, err := d.DefragmentBands()
		var fe *faultfs.Error
		if !errors.As(err, &fe) || fe.Temporary {
			t.Fatalf("member %d: DefragmentBands = %v, want the injected permanent write error", member, err)
		}
		if err := d.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrDegraded) {
			t.Fatalf("member %d: Put after a failed relocation = %v, want ErrDegraded", member, err)
		}
		d.mu.Lock()
		v := d.vs.Current()
		for l := 0; l < d.cfg.NumLevels(); l++ {
			for _, f := range v.Files[l] {
				if _, err := d.backend.FileExtent(f.Num); err != nil {
					t.Errorf("member %d: the failed relocation left L%d %s unmapped: %v", member, l, f, err)
				}
			}
		}
		d.mu.Unlock()
		verifyAll(t, d, ref)

		d.Close()
		d2, err := OpenDevice(d.Config(), d.Device())
		if err != nil {
			t.Fatalf("member %d: reopen: %v", member, err)
		}
		if err := d2.VerifyIntegrity(); err != nil {
			t.Fatalf("member %d: after reopen: %v", member, err)
		}
		loadRandomInto(t, d2, 500, 18, ref)
		verifyAll(t, d2, ref)
		if res, err := d2.DefragmentBands(); err != nil || res.SetsMoved == 0 {
			t.Fatalf("member %d: relocation after reopen moved %d sets, %v", member, res.SetsMoved, err)
		}
		if err := d2.VerifyIntegrity(); err != nil {
			t.Fatalf("member %d: after the repeated relocation: %v", member, err)
		}
		d2.Close()
	}
}

// TestRelocationUnderLiveIterator: an iterator opened before a band-GC
// pass reads the old copies of the sets the pass moves, so they must
// outlive the pass: the iterator returns what a scan taken before it
// did, the old files and extents sit parked in the read-state queue until
// it closes, and only then does the space go back.
func TestRelocationUnderLiveIterator(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadRandom(t, d, 12000, 17)
	want, err := d.Scan(nil, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	parked := func() (files int, extents int64) {
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, s := range d.retiring {
			files += len(s.retired.Files)
		}
		for _, e := range d.ownedExtents() {
			if e.kind == ownedParked {
				extents += e.len
			}
		}
		return files, extents
	}

	it := d.NewIterator()
	it.SeekToFirst()
	res, err := d.DefragmentBands()
	if err != nil || res.SetsMoved == 0 {
		t.Fatalf("DefragmentBands moved %d sets, %v", res.SetsMoved, err)
	}
	files, extents := parked()
	if files == 0 || extents < res.BytesMoved {
		t.Fatalf("moved %d sets (%d bytes) under a live iterator but only %d files, %d extent bytes are parked", res.SetsMoved, res.BytesMoved, files, extents)
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatalf("with the old sets parked: %v", err)
	}
	allocated := d.Device().DBand.AllocatedBytes()
	i := 0
	for ; it.Valid(); it.Next() {
		if i >= len(want) || !bytes.Equal(it.Key(), want[i].Key) || !bytes.Equal(it.Value(), want[i].Value) {
			t.Fatalf("entry %d after the pass: key %q, want the scan's", i, it.Key())
		}
		i++
	}
	if err := it.Error(); err != nil || i != len(want) {
		t.Fatalf("iterator returned %d of %d entries, %v", i, len(want), err)
	}
	it.Close()
	if files, left := parked(); files != 0 || left != 0 {
		t.Fatalf("%d files, %d extent bytes still parked after Close", files, left)
	}
	if now := d.Device().DBand.AllocatedBytes(); now != allocated-extents {
		t.Fatalf("allocator holds %d bytes after Close, %d with %d parked", now, allocated, extents)
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
