package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sealdb/internal/kv"
)

// vlogConfig is the tiny SEALDB geometry with key–value separation
// on: values of 256 bytes and up move to the log, and the small
// segment class forces rotations within a few hundred writes.
func vlogConfig() Config {
	cfg := tinyConfig(ModeSEALDB)
	cfg.ValueThreshold = 256
	cfg.VlogSegSize = 8 * kv.KiB
	return cfg
}

// bigValue builds a deterministic separable value.
func bigValue(tag string, n int) []byte {
	v := make([]byte, n)
	seed := []byte(tag)
	for i := range v {
		v[i] = seed[i%len(seed)] ^ byte(i)
	}
	return v
}

func TestVlogBasicReadWrite(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ref := map[string][]byte{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key%05d", rng.Intn(200))
		var v []byte
		if rng.Intn(2) == 0 {
			v = bigValue(k, 256+rng.Intn(1024)) // separated
		} else {
			v = bigValue(k, 1+rng.Intn(200)) // inline
		}
		if err := d.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	check := func(d *DB) {
		t.Helper()
		for k, want := range ref {
			got, err := d.Get([]byte(k))
			if err != nil {
				t.Fatalf("Get(%q): %v", k, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Get(%q) = %d bytes, want %d", k, len(got), len(want))
			}
		}
	}
	check(d)
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	check(d)
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
	st := d.Stats()
	if st.VlogAppendBytes == 0 {
		t.Fatal("no bytes attributed to the value log")
	}
	a := d.Amplification()
	if a.StoreBytes < st.VlogAppendBytes {
		t.Fatalf("StoreBytes %d omits vlog appends %d", a.StoreBytes, st.VlogAppendBytes)
	}

	// Iterators chase pointers too, forward and backward.
	it := d.NewIterator()
	defer it.Close()
	seen := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if want, ok := ref[string(it.Key())]; !ok || !bytes.Equal(it.Value(), want) {
			t.Fatalf("iterator at %q: wrong value", it.Key())
		}
		seen++
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if seen != len(ref) {
		t.Fatalf("iterator saw %d keys, want %d", seen, len(ref))
	}
	for it.SeekToLast(); it.Valid(); it.Prev() {
		if want := ref[string(it.Key())]; !bytes.Equal(it.Value(), want) {
			t.Fatalf("reverse iterator at %q: wrong value", it.Key())
		}
	}
}

func TestVlogDisabledIsByteIdentical(t *testing.T) {
	// With the threshold at zero no tagging may happen: the stored
	// representation must match a plain put bit for bit so existing
	// modes are untouched by the feature.
	cfg := tinyConfig(ModeSEALDB)
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	stored, _, _, ok, err := d.lookup([]byte("k"), d.seq, nil)
	d.mu.Unlock()
	if err != nil || !ok {
		t.Fatalf("lookup: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(stored, []byte("v")) {
		t.Fatalf("stored = %q, want untagged %q", stored, "v")
	}
}

func TestVlogRecovery(t *testing.T) {
	cfg := vlogConfig()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string][]byte{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key%05d", i%120)
		v := bigValue(k, 300+i)
		if err := d.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	// A few separated writes that live only in the WAL + vlog.
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("wal-only-%d", i)
		v := bigValue(k, 512)
		if err := d.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	dev := d.Device()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDevice(cfg, dev)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Recovery().VlogSegments == 0 {
		t.Fatal("recovery reports no vlog segments")
	}
	for k, want := range ref {
		got, err := d2.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q) after reopen: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after reopen: wrong value", k)
		}
	}
	if err := d2.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after reopen: %v", err)
	}
	// The store keeps separating after recovery.
	before := d2.Stats().VlogAppendBytes
	if err := d2.Put([]byte("post"), bigValue("post", 1024)); err != nil {
		t.Fatal(err)
	}
	if d2.Stats().VlogAppendBytes <= before {
		t.Fatal("no vlog append after recovery")
	}
}

// loadVlogGarbage fills the store with separated values and then
// overwrites two thirds of them, compacting in between so the drops
// charge dead bytes to their segments. A third of each early segment
// stays live, so qualifying victims still hold records to relocate.
// Returns the surviving reference.
func loadVlogGarbage(t *testing.T, d *DB) map[string][]byte {
	t.Helper()
	ref := map[string][]byte{}
	for round := 0; round < 4; round++ {
		for i := 0; i < 60; i++ {
			if round > 0 && i%3 == 0 {
				continue // these keys keep their round-0 records live
			}
			k := fmt.Sprintf("key%05d", i)
			v := bigValue(fmt.Sprintf("%s-%d", k, round), 400)
			if err := d.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
		if err := d.FlushMemtable(); err != nil {
			t.Fatal(err)
		}
	}
	// Force full compaction so the shadowed versions drop and their
	// log records go dead.
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestVlogGCCollectsDeadSegments(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadVlogGarbage(t, d)

	live, dead, segs := d.vlog.tab.Totals()
	if dead == 0 {
		t.Fatalf("no dead bytes charged (live=%d segs=%d)", live, segs)
	}

	// Drain every qualifying victim.
	collected := 0
	for {
		res, err := d.VlogGC()
		if err != nil {
			t.Fatal(err)
		}
		if res.Victim == 0 {
			break
		}
		collected++
		if res.ReclaimedBytes == 0 {
			t.Fatalf("victim %d reclaimed nothing", res.Victim)
		}
	}
	if collected == 0 {
		t.Fatal("GC never found a victim despite dead segments")
	}
	if d.Stats().VlogGCRuns != int64(collected) {
		t.Fatalf("stats report %d GC runs, want %d", d.Stats().VlogGCRuns, collected)
	}
	for k, want := range ref {
		got, err := d.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q) after GC: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after GC: wrong value", k)
		}
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity after GC: %v", err)
	}
}

func TestVlogGCRefusesUnderSnapshot(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadVlogGarbage(t, d)

	snap := d.NewSnapshot()
	res, err := d.VlogGC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim != 0 {
		t.Fatalf("GC ran under a snapshot (victim %d)", res.Victim)
	}
	snap.Release()
	res, err = d.VlogGC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim == 0 {
		t.Fatal("GC still refused after the snapshot was released")
	}
}

func TestVlogGCSkipsMovedPointers(t *testing.T) {
	// The conditional re-put: a pointer that moves between the GC scan
	// and the relocation is skipped, not clobbered with a stale value.
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadVlogGarbage(t, d)

	movedVal := bigValue("raced", 700)
	fired := false
	d.mu.Lock()
	d.vlog.gcHook = func(keys [][]byte) {
		if fired || len(keys) == 0 {
			return
		}
		fired = true
		// Overwrite one candidate mid-pass through the internal re-put
		// path (the public Apply would deadlock on d.mu and recurse
		// into GC). Its old record is now stale: the collector's
		// re-check must skip it.
		moved := append([]byte(nil), keys[0]...)
		b := NewBatch()
		b.Put(moved, movedVal)
		if _, err := d.reputLocked(b); err != nil {
			t.Errorf("hook re-put: %v", err)
		}
		ref[string(moved)] = movedVal
	}
	d.mu.Unlock()

	sawSkip := false
	for {
		res, err := d.VlogGC()
		if err != nil {
			t.Fatal(err)
		}
		if res.Victim == 0 {
			break
		}
		if res.SkippedMoved > 0 {
			sawSkip = true
		}
	}
	if !fired {
		t.Fatal("gc hook never ran (no GC pass happened)")
	}
	if !sawSkip {
		t.Fatal("no pass skipped the moved pointer")
	}
	for k, want := range ref {
		got, err := d.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) = stale value after raced GC", k)
		}
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatalf("VerifyIntegrity: %v", err)
	}
}

func TestVlogLiveRatioAccounting(t *testing.T) {
	// Dead-byte accounting: overwriting every separated value and
	// compacting must mark the old records dead, and the totals must
	// never exceed the appended bytes.
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("key%05d", i)
			if err := d.Put([]byte(k), bigValue(fmt.Sprintf("%s-%d", k, round), 500)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.FlushMemtable(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}

	live, dead, _ := d.vlog.tab.Totals()
	appended := d.Stats().VlogAppendBytes
	if live+dead > appended {
		t.Fatalf("accounted bytes %d+%d exceed appended %d", live, dead, appended)
	}
	// Every first-round record (40 overwrites × ~500B) should be dead.
	if dead < 40*500 {
		t.Fatalf("dead=%d, want at least %d after full overwrite round", dead, 40*500)
	}
	for _, s := range d.vlog.tab.Segments() {
		if s.Dead > s.Bytes {
			t.Fatalf("segment %d: dead %d > bytes %d", s.Num, s.Dead, s.Bytes)
		}
	}
}

func TestVlogMaybeGCOpportunistic(t *testing.T) {
	// Without explicit VlogGC calls, ordinary writes trigger collection
	// once a segment crosses the dead-ratio threshold.
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadVlogGarbage(t, d)
	// Keep writing until the opportunistic pass fires.
	for i := 0; i < 200 && d.Stats().VlogGCRuns == 0; i++ {
		k := fmt.Sprintf("extra%05d", i)
		v := bigValue(k, 400)
		if err := d.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	if d.Stats().VlogGCRuns == 0 {
		t.Fatal("opportunistic GC never ran")
	}
	for k, want := range ref {
		got, err := d.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%q): wrong value", k)
		}
	}
}

func TestVlogOversizedValue(t *testing.T) {
	// A value bigger than the segment class gets a segment of its own.
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	huge := bigValue("huge", int(64*kv.KiB)) // 8× the segment class
	if err := d.Put([]byte("huge"), huge); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get([]byte("huge"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, huge) {
		t.Fatalf("oversized value corrupted: %d bytes, want %d", len(got), len(huge))
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestVlogConfigValidation(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.ValueThreshold = vlogPointerLen // too small: separation would grow entries
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open accepted a threshold at the pointer size")
	}
	cfg = tinyConfig(ModeSEALDB)
	cfg.ValueThreshold = 256
	cfg.VlogSegSize = 128 // smaller than a threshold record
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open accepted a segment class below the threshold")
	}
}
