package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sealdb/internal/obs"
)

// lsmAcquisitions reads the acquisition count of every lsm_* site off
// the process-wide contention profile (profiling must be on).
func lsmAcquisitions() map[string]int64 {
	n := map[string]int64{}
	for _, s := range obs.ContentionProfile() {
		if strings.HasPrefix(s.Name, "lsm_") {
			n[s.Name] = s.Acquisitions
		}
	}
	return n
}

// acquiredSince returns the lsm_* sites acquired since before, with how
// often; fmt prints it sorted.
func acquiredSince(before map[string]int64) map[string]int64 {
	got := map[string]int64{}
	for name, n := range lsmAcquisitions() {
		if n != before[name] {
			got[name] = n - before[name]
		}
	}
	return got
}

// TestReadsTakeNoEngineLock: on a quiescent store, Get (hit and miss,
// through the memtable, the tables and the value log), Scan,
// ScanReverse and every iterator move enter no lsm_* lock; with an
// explicit snapshot only its creation and its release enter lsm_db_mu.
func TestReadsTakeNoEngineLock(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 2000; i++ {
		v := []byte(fmt.Sprintf("small-%d", i))
		if i%2 == 0 {
			v = bigValue(fmt.Sprint(i), 300) // separated
		}
		if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // and some in the memtable
		if err := d.Put([]byte(fmt.Sprintf("key%05d", i*97)), []byte("fresh")); err != nil {
			t.Fatal(err)
		}
	}

	obs.SetLockProfiling(true)
	defer obs.SetLockProfiling(false)
	before := lsmAcquisitions()
	for i := 0; i < 2000; i += 7 {
		if _, err := d.Get([]byte(fmt.Sprintf("key%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Get([]byte("absent")); err != ErrNotFound {
		t.Fatalf("Get(absent) = %v", err)
	}
	if kvs, err := d.Scan([]byte("key00100"), 50); err != nil || len(kvs) != 50 {
		t.Fatalf("Scan = %d, %v", len(kvs), err)
	}
	if kvs, err := d.ScanReverse([]byte("key01900"), 50); err != nil || len(kvs) != 50 {
		t.Fatalf("ScanReverse = %d, %v", len(kvs), err)
	}
	it := d.NewIterator()
	it.Seek([]byte("key00500"))
	for i := 0; i < 20; i++ {
		it.Next()
	}
	for i := 0; i < 30; i++ {
		it.Prev()
	}
	it.SeekToFirst()
	it.SeekToLast()
	if !it.Valid() || it.Error() != nil {
		t.Fatalf("iterator ended invalid: %v", it.Error())
	}
	it.Close()
	if got := acquiredSince(before); len(got) != 0 {
		t.Errorf("reads took %v, want no lsm_* lock", got)
	}

	before = lsmAcquisitions()
	snap := d.NewSnapshot()
	for i := 0; i < 2000; i += 13 {
		if _, err := d.GetAt([]byte(fmt.Sprintf("key%05d", i)), snap); err != nil {
			t.Fatal(err)
		}
	}
	sit := d.NewSnapshotIterator(snap)
	for sit.SeekToFirst(); sit.Valid(); sit.Next() {
	}
	sit.Close()
	snap.Release()
	if got := fmt.Sprint(acquiredSince(before)); got != "map[lsm_db_mu:2]" {
		t.Errorf("snapshot reads took %s, want map[lsm_db_mu:2] (create and release)", got)
	}
}

// churnUnder overwrites every key of ref and compacts, so every table
// a reader opened before retires behind it.
func churnUnder(t *testing.T, d *DB, ref map[string]string) {
	t.Helper()
	for k := range ref {
		if err := d.Put([]byte(k), []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIteratorAfterCloseFailsClosed: an iterator moved after DB.Close is
// left invalid with ErrClosed and reads nothing from the device, even
// with the files it was reading retired under it (it used to step on
// through the tables it had open and then fail on a reclaimed file).
func TestIteratorAfterCloseFailsClosed(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	ref := loadRandom(t, d, 3000, 5)
	it := d.NewIterator()
	it.SeekToFirst()
	first := string(it.Key())
	churnUnder(t, d, ref)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	reads := d.Device().Disk.Stats().ReadOps
	moves := map[string]func(){
		"Next": it.Next, "Prev": it.Prev, "SeekToFirst": it.SeekToFirst,
		"SeekToLast": it.SeekToLast, "Seek": func() { it.Seek([]byte(first)) },
	}
	for name, move := range moves {
		move()
		if it.Valid() || !errors.Is(it.Error(), ErrClosed) {
			t.Fatalf("%s after Close: valid %v, error %v; want ErrClosed", name, it.Valid(), it.Error())
		}
	}
	if n := d.Device().Disk.Stats().ReadOps - reads; n != 0 {
		t.Errorf("moving a closed iterator read the device %d times", n)
	}
	it.Close()
	if _, err := d.Get([]byte(first)); err != ErrClosed {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if it := d.NewIterator(); it.Error() != ErrClosed {
		t.Errorf("NewIterator after Close: error %v, want ErrClosed", it.Error())
	}
}

// TestCloseLeavesHeldStatesIntact: Close reclaims nothing a reader
// holds, so a read in flight at Close finishes on intact files, and the
// next open sweeps what the closed store left behind.
func TestCloseLeavesHeldStatesIntact(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	ref := loadRandom(t, d, 3000, 5)
	inFlight, seq := d.acquire() // a Get between acquire and lookup
	churnUnder(t, d, ref)
	if len(d.retiring) == 0 {
		t.Fatal("set-up: nothing retired behind the held state")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for k, want := range ref {
		got, _, _, found, err := d.lookup(inFlight, []byte(k), seq, nil)
		if err != nil || !found || !bytes.Equal(got, []byte(want)) {
			t.Fatalf("in-flight read of %q after Close = %q, found %v, %v; want %q", k, got, found, err, want)
		}
	}
	d.release(inFlight)

	d2, err := OpenDevice(d.Config(), d.Device())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Recovery().OrphanFiles == 0 {
		t.Error("the next open swept nothing the closed store left behind")
	}
	if err := d2.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestVlogGCRunsUnderOpenIterator: an iterator registers no snapshot, so
// value-log GC collects while it is open; the state it holds keeps the
// collected segments, and it resolves every pointer of its view.
func TestVlogGCRunsUnderOpenIterator(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadVlogGarbage(t, d)
	want, err := d.Scan(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	it := d.NewIterator()
	it.SeekToFirst()
	for i := 0; i < 60; i++ { // every value dies behind the iterator
		if err := d.Put([]byte(fmt.Sprintf("key%05d", i)), bigValue(fmt.Sprintf("new-%d", i), 400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	runs := d.Stats().VlogGCRuns
	for {
		vic, _, err := vlogGC(d)
		if err != nil {
			t.Fatal(err)
		}
		if vic == 0 {
			break
		}
	}
	if d.Stats().VlogGCRuns == runs {
		t.Fatal("value-log GC did not run under the open iterator")
	}
	i := 0
	for ; it.Valid(); it.Next() {
		if i >= len(want) || !bytes.Equal(it.Key(), want[i].Key) || !bytes.Equal(it.Value(), want[i].Value) {
			t.Fatalf("entry %d: %q, want the view from before the collection", i, it.Key())
		}
		i++
	}
	if err := it.Error(); err != nil || i != len(want) {
		t.Fatalf("iterator resolved %d of %d entries: %v", i, len(want), err)
	}
	it.Close()
	if len(d.retiring) != 0 {
		t.Errorf("%d states still queued after the iterator closed", len(d.retiring))
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}
