package lsm

import (
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
