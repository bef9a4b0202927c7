package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sealdb/internal/invariant"
	"sealdb/internal/kv"
	"sealdb/internal/obs"
	"sealdb/internal/platter"
	"sealdb/internal/smr"
	"sealdb/internal/version"
	"sealdb/internal/vlog"
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

// vlogGC runs the value-log collection pass due now as a commit does —
// maintain, gcJob, run — and returns the victim the job named (0 when no
// pass was due) and the pass's vlog_gc span: its record.
func vlogGC(d *DB) (victim uint64, span obs.Event, err error) {
	err = d.maintain(func() error {
		j, ok := d.gcJob()
		if !ok {
			return nil
		}
		victim = j.victim.Num
		return d.run(j)
	})
	if err != nil || victim == 0 {
		return victim, span, err
	}
	evs := d.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if e := evs[i]; e.Type == "vlog_gc" && e.Fields["segment"] == int64(victim) {
			return victim, e, nil
		}
	}
	return victim, span, fmt.Errorf("no vlog_gc span for the pass over segment %d", victim)
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

// TestVlogUnusedWritesTheSameDevice: a value log that never separates a
// value costs nothing. An inline value is stored as a store without the
// log stores it, and the value log's replay head enters the manifest only
// once a segment exists, so a load of values all under the threshold
// writes the device stream of a store with the log off.
func TestVlogUnusedWritesTheSameDevice(t *testing.T) {
	var stats [2]platter.Stats
	for i, threshold := range []int{0, 1024} {
		cfg := tinyConfig(ModeSEALDB)
		cfg.ValueThreshold = threshold
		d, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loadRandom(t, d, 20000, 7)
		if err := d.CompactRange(nil, nil); err != nil {
			t.Fatal(err)
		}
		stats[i] = d.Device().Disk.Stats()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if stats[0] != stats[1] {
		t.Fatalf("device stats differ:\n threshold 0:    %+v\n threshold 1024: %+v", stats[0], stats[1])
	}
}

// TestVlogReopenUnderAnotherThreshold: a stored value's meaning comes
// from its entry kind, not from the threshold a store is opened under.
// Written with the log off, a store reopens with it on and reads every
// value back, the small one that starts with the byte an old tag used
// included. Written with the log on, it refuses to reopen with it off,
// which could not replay the log, and reopens with it on afterwards.
func TestVlogReopenUnderAnotherThreshold(t *testing.T) {
	want := map[string][]byte{
		"small":     []byte("\x01small-value"),
		"flushed":   bigValue("flushed", 1000),
		"unflushed": bigValue("unflushed", 1000),
	}
	config := func(threshold int) Config {
		cfg := tinyConfig(ModeSEALDB)
		cfg.ValueThreshold = threshold
		return cfg
	}
	write := func(threshold int) *Device {
		d, err := Open(config(threshold))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"small", "flushed"} {
			if err := d.Put([]byte(k), want[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.FlushMemtable(); err != nil {
			t.Fatal(err)
		}
		if err := d.Put([]byte("unflushed"), want["unflushed"]); err != nil {
			t.Fatal(err)
		}
		dev := d.Device()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return dev
	}
	check := func(threshold int, dev *Device) {
		t.Helper()
		d, err := OpenDevice(config(threshold), dev)
		if err != nil {
			t.Fatalf("reopen at %d: %v", threshold, err)
		}
		defer d.Close()
		for k, v := range want {
			if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("reopened at %d: Get(%q) = %d bytes %q, %v; want %d bytes", threshold, k, len(got), got[:min(len(got), 20)], err, len(v))
			}
		}
		if err := d.VerifyIntegrity(); err != nil {
			t.Fatalf("reopened at %d: VerifyIntegrity: %v", threshold, err)
		}
	}

	check(512, write(0))

	dev := write(512)
	if d, err := OpenDevice(config(0), dev); err == nil {
		d.Close()
		t.Fatal("a store with value-log segments reopened with the log off")
	} else if !strings.Contains(err.Error(), "ValueThreshold") {
		t.Fatalf("refused reopen: %v, want an error naming ValueThreshold", err)
	}
	check(512, dev)
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
	// A few separated writes that live only in the value log.
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

	live, dead, segs := d.vlogTotals()
	if dead == 0 {
		t.Fatalf("no dead bytes charged (live=%d segs=%d)", live, segs)
	}

	// Drain every qualifying victim.
	collected := 0
	for {
		vic, sp, err := vlogGC(d)
		if err != nil {
			t.Fatal(err)
		}
		if vic == 0 {
			break
		}
		collected++
		if sp.Fields["reclaimed_bytes"] == 0 {
			t.Fatalf("victim %d reclaimed nothing", vic)
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
	vic, _, err := vlogGC(d)
	if err != nil {
		t.Fatal(err)
	}
	if vic != 0 {
		t.Fatalf("GC ran under a snapshot (victim %d)", vic)
	}
	snap.Release()
	vic, _, err = vlogGC(d)
	if err != nil {
		t.Fatal(err)
	}
	if vic == 0 {
		t.Fatal("GC still refused after the snapshot was released")
	}
}

// victimVerdict reads the next GC victim and splits its records by the
// lookup-only verdict: served, those the tree still points at, and the
// number it does not. marked counts the records whose bit the victim's
// dropped-record bitmap has set.
func victimVerdict(t *testing.T, d *DB) (vic uint64, served map[string]vlog.Pointer, dead, marked int) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	vs, ok := d.vs.VlogVictim(vlogGCDeadBudget)
	if !ok {
		return 0, nil, 0, 0
	}
	buf, err := d.vlogReadSealed(vs.Num, make([]byte, vs.Bytes))
	if err != nil {
		t.Fatal(err)
	}
	served = map[string]vlog.Pointer{}
	dropped := d.vs.VlogDropped(vs.Num)
	s := vlog.NewScanner(vs.Num, buf[vlog.HeaderSize:], vlog.HeaderSize)
	for s.Next() {
		for _, r := range s.Records() {
			ok, err := d.vlogServing(r.Key, r.Ptr)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				served[string(r.Key)] = r.Ptr
			} else {
				dead++
			}
			if dropped.Has(d.vlogBit(r.Ptr)) {
				if ok {
					t.Fatalf("record %+v is served, and marked dropped", r.Ptr)
				}
				marked++
			}
		}
	}
	return vs.Num, served, dead, marked
}

// TestVlogGCSkipsRecordsACompactionDropped: once a full compaction has
// dropped every shadowed pointer, each record a pass finds dead is one the
// compaction marked, so the pass looks up exactly the live ones and
// relocates exactly the records the lookup-only verdict would.
func TestVlogGCSkipsRecordsACompactionDropped(t *testing.T) {
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadVlogGarbage(t, d)
	passes, mixed := 0, false
	for {
		vic, served, dead, marked := victimVerdict(t, d)
		if vic == 0 {
			break
		}
		if marked != dead {
			t.Fatalf("victim %d: %d of its %d dead records are marked dropped", vic, marked, dead)
		}
		got, sp, err := vlogGC(d)
		if err != nil || got != vic {
			t.Fatalf("vlogGC = %d, %v; want victim %d", got, err, vic)
		}
		if sp.Fields["skipped_dropped"] != int64(dead) || sp.Fields["relocated_records"] != int64(len(served)) {
			t.Fatalf("victim %d: pass %v, want %d skipped unlooked and %d relocated", vic, sp.Fields, dead, len(served))
		}
		for k, old := range served {
			if p := pointerOf(t, d, k); p.Seg == vic || p == old {
				t.Fatalf("victim %d: live key %q still served from %+v", vic, k, p)
			}
		}
		passes++
		mixed = mixed || dead > 0 && len(served) > 0
	}
	if passes == 0 || !mixed {
		t.Fatalf("%d passes, one over live and dead records %v", passes, mixed)
	}
	for k, want := range ref {
		if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after GC = %d bytes, %v", k, len(got), err)
		}
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestVlogGCPassRotatesMidScan: a pass re-puts as it scans, in log order,
// committing its batch before a record the active segment has no room
// for. A victim whose live records outgrow the room left in the active
// segment therefore rotates the log inside the pass: its records land in
// two segments, still in the victim's order, and every key reads its last
// value.
func TestVlogGCPassRotatesMidScan(t *testing.T) {
	cfg := vlogConfig()
	cfg.JournalCapacity = 1 << 16
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := loadVlogGarbage(t, d)
	liveBytes := func(served map[string]vlog.Pointer) (n int64) {
		for _, p := range served {
			n += int64(p.Len)
		}
		return n
	}
	fits := func(n int64) bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.vlog.w.Fits(n)
	}
	// Collect the victims that hold few live records, then fill the
	// active segment until the next victim's live records no longer fit
	// what it has left; the snapshot holds back the passes the fillers'
	// commits would run.
	_, served, _, _ := victimVerdict(t, d)
	for len(served) < 4 {
		if vic, _, err := vlogGC(d); err != nil || vic == 0 {
			t.Fatalf("vlogGC = %d, %v; want a pass", vic, err)
		}
		_, served, _, _ = victimVerdict(t, d)
	}
	snap := d.NewSnapshot()
	for i := 0; fits(liveBytes(served)); i++ {
		k := fmt.Sprintf("fill%04d", i)
		ref[k] = bigValue(k, 300)
		if err := d.Put([]byte(k), ref[k]); err != nil {
			t.Fatal(err)
		}
	}
	snap.Release()
	vic, served, _, _ := victimVerdict(t, d)
	if vic == 0 || len(served) < 2 || fits(liveBytes(served)) {
		t.Fatalf("victim %d: %d live records of %d bytes fit the active segment", vic, len(served), liveBytes(served))
	}

	got, span, err := vlogGC(d)
	if err != nil || got != vic {
		t.Fatalf("vlogGC = %d, %v; want victim %d", got, err, vic)
	}
	// Nothing journals after the pass: every later id is inside its span.
	rotated := false
	for _, e := range d.Events() {
		rotated = rotated || e.Type == "vlog_rotate" && e.ID > span.ID
	}
	if !rotated {
		t.Fatal("the pass re-put no group across a rotation")
	}
	// In the victim's order, each relocated record sits past the one
	// before it, and they span two segments.
	olds := make([]vlog.Pointer, 0, len(served))
	byOld := map[vlog.Pointer]string{}
	for k, p := range served {
		olds = append(olds, p)
		byOld[p] = k
	}
	slices.SortFunc(olds, func(a, b vlog.Pointer) int { return int(a.Off) - int(b.Off) })
	var prev vlog.Pointer
	segs := map[uint64]bool{}
	for _, old := range olds {
		p := pointerOf(t, d, byOld[old])
		if p.Seg < prev.Seg || p.Seg == prev.Seg && p.Off <= prev.Off {
			t.Fatalf("record %+v relocated to %+v, not past %+v", old, p, prev)
		}
		prev = p
		segs[p.Seg] = true
	}
	if len(segs) < 2 {
		t.Fatalf("%d live records relocated into %d segment", len(olds), len(segs))
	}
	for k, want := range ref {
		if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after GC = %d bytes, %v", k, len(got), err)
		}
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestVlogGCAfterReopenLooksUpEverything: the dropped-record bitmap is
// not persisted, and a segment recovered from the manifest never gets one
// — records written before the open may be shorter than the threshold
// the bits assume — so after a reopen every pass looks up every record,
// and collects correctly, also after compactions drop pointers into the
// recovered segments.
func TestVlogGCAfterReopenLooksUpEverything(t *testing.T) {
	cfg := vlogConfig()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := loadVlogGarbage(t, d)
	dev := d.Device()
	d.Close()
	d, err = OpenDevice(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.mu.Lock()
	recovered := d.vs.VlogSegs()
	d.mu.Unlock()
	for i := 0; i < 60; i += 2 { // shadow more of the recovered records
		k := fmt.Sprintf("key%05d", i)
		ref[k] = bigValue(k+"-reopened", 400)
		if err := d.Put([]byte(k), ref[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	passes, recoveredDead := 0, 0
	for {
		vic, served, dead, marked := victimVerdict(t, d)
		if vic == 0 {
			break
		}
		if vic <= recovered[len(recovered)-1].Num {
			if marked != 0 {
				t.Fatalf("recovered segment %d has %d records marked dropped", vic, marked)
			}
			recoveredDead += dead
		}
		got, sp, err := vlogGC(d)
		if err != nil || got != vic || sp.Fields["relocated_records"] != int64(len(served)) || sp.Fields["skipped_dropped"] != int64(marked) {
			t.Fatalf("vlogGC = %d %v, %v; want victim %d, %d relocated, %d of %d dead skipped", got, sp.Fields, err, vic, len(served), marked, dead)
		}
		passes++
	}
	if passes == 0 || recoveredDead == 0 {
		t.Fatalf("%d passes after the reopen, %d dead records in recovered victims", passes, recoveredDead)
	}
	for k, want := range ref {
		if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after GC = %d bytes, %v", k, len(got), err)
		}
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestVlogGCChecksWhatItSkips plants a wrong mark, a live record's bit,
// in the victim's dropped-record bitmap. Under sealdb_invariants the pass
// looks up every record it skips, and so must catch it.
func TestVlogGCChecksWhatItSkips(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("the pass checks what it skips only under sealdb_invariants")
	}
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	loadVlogGarbage(t, d)
	var vic uint64
	var live vlog.Pointer
	for live.Seg == 0 {
		v, served, _, _ := victimVerdict(t, d)
		if v == 0 {
			t.Fatal("no victim holds a live record")
		}
		for _, p := range served {
			vic, live = v, p
		}
		if live.Seg == 0 {
			if _, _, err := vlogGC(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.mu.Lock()
	err = d.install(&version.Edit{VlogDead: []version.VlogDeadRecord{{Num: vic, Dropped: []uint64{d.vlogBit(live)}}}})
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// The pass panicked holding the engine lock: the store is left
		// unclosed.
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "which the tree serves") {
			t.Fatalf("the pass skipped live record %+v with %v", live, r)
		}
	}()
	vlogGC(d)
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

	live, dead, segs := d.vlogTotals()
	appended := d.Stats().VlogAppendBytes + int64(segs)*vlog.HeaderSize
	if live+dead > appended {
		t.Fatalf("accounted bytes %d+%d exceed appended groups and headers %d", live, dead, appended)
	}
	// Every first-round record (40 overwrites × ~500B) should be dead.
	if dead < 40*500 {
		t.Fatalf("dead=%d, want at least %d after full overwrite round", dead, 40*500)
	}
	for _, s := range d.vlogSegs() {
		if s.Dead > s.Bytes {
			t.Fatalf("segment %d: dead %d > bytes %d", s.Num, s.Dead, s.Bytes)
		}
	}
}

func TestVlogMaybeGCOpportunistic(t *testing.T) {
	// Without explicit passes, ordinary writes trigger collection
	// once the sealed log is over its dead budget.
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

// sealedLog sums the sealed segment records: the log the collector's
// dead budget is a share of.
func sealedLog(d *DB) (sum version.VlogSeg) {
	for _, vs := range d.vs.VlogSegs() {
		if vs.Sealed {
			sum.Bytes, sum.Overhead, sum.Dead = sum.Bytes+vs.Bytes, sum.Overhead+vs.Overhead, sum.Dead+vs.Dead
		}
	}
	return sum
}

// TestVlogChurnStaysWithinDeadBudget: under sustained overwrite churn
// a compaction can charge many segments' worth of dead records at once,
// and the commits after it collect one segment each until the log is
// back within budget. So a commit that ran no pass leaves the sealed
// log's dead record bytes at most the budget plus one segment.
func TestVlogChurnStaysWithinDeadBudget(t *testing.T) {
	cfg := vlogConfig()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := map[string][]byte{}
	peak := 0.0
	for i := 0; i < 8000; i++ {
		k := fmt.Sprintf("key%05d", i*7919%300)
		ref[k] = bigValue(fmt.Sprintf("%s-%d", k, i), 400)
		runs := d.Stats().VlogGCRuns
		if err := d.Put([]byte(k), ref[k]); err != nil {
			t.Fatal(err)
		}
		sealed := sealedLog(d)
		peak = max(peak, sealed.DeadRatio())
		slack := float64(sealed.Dead) - vlogGCDeadBudget*float64(sealed.Bytes-sealed.Overhead)
		if d.Stats().VlogGCRuns == runs && slack > float64(cfg.VlogSegSize) {
			t.Fatalf("op %d: sealed log %.0f bytes over its dead budget (share %.3f) and the commit ran no pass", i, slack, sealed.DeadRatio())
		}
	}
	runs := d.Stats().VlogGCRuns
	t.Logf("%d GC passes, peak dead share %.3f", runs, peak)
	if runs == 0 || peak <= vlogGCDeadBudget {
		t.Fatalf("%d GC passes, peak dead share %.3f: the churn never tested the budget", runs, peak)
	}
	for k, want := range ref {
		if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after the churn = %d bytes, %v", k, len(got), err)
		}
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestVlogSealedSegmentHandsItsGuardBack: once a rotation seals a
// segment, its extent on a raw drive is its bytes — the unused
// reservation and the guard went back to the allocator — while tables
// flushed and compacted after it land around it without damaging it: every
// sealed segment scans clean on reopen, fsck finds no leak or overlap,
// and AWA stays 1. SMRDB's bands have no guard, and freeing part of one
// would reset the whole band, so there a sealed segment keeps its
// reservation.
func TestVlogSealedSegmentHandsItsGuardBack(t *testing.T) {
	for _, mode := range []Mode{ModeSEALDB, ModeSMRDB} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := vlogConfig()
			cfg.Mode = mode
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := loadVlogGarbage(t, d)
			sealed := 0
			for _, seg := range d.vlogSegs() {
				ext, err := d.backend.FileExtent(seg.Num)
				if err != nil || !seg.Sealed {
					continue
				}
				sealed++
				want := seg.Bytes
				if mode != ModeSEALDB {
					want = cfg.vlogSegSize()
				}
				if ext.Len != want {
					t.Fatalf("sealed segment %d of %d bytes holds a %d-byte extent, want %d", seg.Num, seg.Bytes, ext.Len, want)
				}
			}
			if sealed < 2 {
				t.Fatalf("%d sealed segments", sealed)
			}
			if awa := smr.AWA(d.dev.Drive); mode == ModeSEALDB && awa != 1.0 {
				t.Fatalf("AWA = %v, want exactly 1.0", awa)
			}
			d.Close()
			if d, err = OpenDevice(cfg, d.Device()); err != nil {
				t.Fatal(err) // a damaged sealed segment fails the open
			}
			defer d.Close()
			for k, want := range ref {
				if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Get(%q) after reopen = %d bytes, %v", k, len(got), err)
				}
			}
			if err := d.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
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

// TestVlogCommitIsOneWriteToOneLog pins the commit contract: a batch
// that separates a value — alone or with inline entries and tombstones
// riding along — costs exactly one device write, to the value log,
// and leaves the WAL untouched; a batch that separates nothing is one
// WAL record, also one device write (header and payload leave the WAL
// writer as one fragment), and leaves the value log untouched.
func TestVlogCommitIsOneWriteToOneLog(t *testing.T) {
	cfg := vlogConfig()
	cfg.MemtableSize = 1 * kv.MiB // no flush in the way
	cfg.VlogSegSize = 64 * kv.KiB // no rotation either, after the first
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put([]byte("warm"), bigValue("warm", 300)); err != nil {
		t.Fatal(err)
	}
	commit := func(b *Batch) (writes, walBytes, vlogBytes int64) {
		t.Helper()
		ops, wal, seg := d.disk.Stats().WriteOps, d.walFile.Size(), d.vlog.w.Offset()
		if err := d.Apply(b); err != nil {
			t.Fatal(err)
		}
		return d.disk.Stats().WriteOps - ops, d.walFile.Size() - wal, d.vlog.w.Offset() - seg
	}
	one := NewBatch()
	one.Put([]byte("k1"), bigValue("k1", 1024))
	if writes, wal, seg := commit(one); writes != 1 || wal != 0 || seg <= 1024 {
		t.Fatalf("separated put: %d writes, WAL +%d, vlog +%d; want 1, 0, a group", writes, wal, seg)
	}
	mixed := NewBatch()
	mixed.Put([]byte("k2"), bigValue("k2", 1024))
	mixed.Put([]byte("k3"), []byte("inline"))
	mixed.Delete([]byte("k1"))
	mixed.Put([]byte("k4"), bigValue("k4", 300))
	if writes, wal, seg := commit(mixed); writes != 1 || wal != 0 || seg <= 1324 {
		t.Fatalf("mixed batch: %d writes, WAL +%d, vlog +%d; want 1, 0, a group", writes, wal, seg)
	}
	inline := NewBatch()
	inline.Put([]byte("k5"), []byte("inline"))
	inline.Delete([]byte("k3"))
	if writes, wal, seg := commit(inline); writes != 1 || wal == 0 || seg != 0 {
		t.Fatalf("inline batch: %d writes, WAL +%d, vlog +%d; want 1, a record, 0", writes, wal, seg)
	}
	for k, want := range map[string][]byte{"k2": bigValue("k2", 1024), "k4": bigValue("k4", 300), "k5": []byte("inline")} {
		if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q): %d bytes, %v", k, len(got), err)
		}
	}
	for _, k := range []string{"k1", "k3"} {
		if _, err := d.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q) = %v, want ErrNotFound", k, err)
		}
	}
}

// TestVlogFrameOverhead bounds what making the group the log record
// costs in log bytes: at 1 KiB values, everything in a segment that is
// not a value record (commit frames, the header) stays within 5 % of
// the record bytes.
func TestVlogFrameOverhead(t *testing.T) {
	cfg := vlogConfig()
	cfg.VlogSegSize = 256 * kv.KiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("user%012d", i)
		if err := d.Put([]byte(k), bigValue(k, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	seg := d.vlogSegs()[0]
	records := seg.Bytes - seg.Overhead
	if records < 200*1024 || seg.Overhead*20 > records {
		t.Fatalf("segment of 1 KiB values: %d record bytes, %d overhead (%.1f%%), want <= 5%%",
			records, seg.Overhead, 100*float64(seg.Overhead)/float64(records))
	}
}

// TestVlogReplayAcrossSealedSegments crashes with one memtable's
// batches spread over many value-log segments — most of them sealed —
// and a WAL holding the batches that separated nothing in between.
// Recovery must walk from the replay head through every later segment,
// merge the two logs by sequence number, and bring back every
// acknowledged write, newest version winning.
func TestVlogReplayAcrossSealedSegments(t *testing.T) {
	cfg := vlogConfig()
	cfg.MemtableSize = 1 * kv.MiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string][]byte{}
	put := func(k string, v []byte) {
		t.Helper()
		if err := d.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	// Flushed history first, so the head sits mid-log, not at its start.
	for i := 0; i < 20; i++ {
		put(fmt.Sprintf("old%03d", i), bigValue("old", 700))
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	head := d.vs.VlogHead()
	if head.Seg == 0 || head != (version.VlogPos{Seg: d.vlog.w.Seg(), Off: d.vlog.w.Offset()}) {
		t.Fatalf("flush recorded replay head %+v, writer is at segment %d offset %d", head, d.vlog.w.Seg(), d.vlog.w.Offset())
	}
	flushes := d.Stats().FlushCount
	groups, walRecords := 0, 0
	for i := 0; i < 60; i++ {
		switch k := fmt.Sprintf("key%03d", i%40); i % 5 {
		case 3:
			put(k, []byte(fmt.Sprintf("inline-%d", i))) // a WAL record
			walRecords++
		case 4:
			if err := d.Delete([]byte(k)); err != nil { // another
				t.Fatal(err)
			}
			delete(ref, k)
			walRecords++
		default:
			put(k, bigValue(fmt.Sprintf("%s-%d", k, i), 900+i))
			groups++
		}
	}
	sealedInWindow := 0
	for _, s := range d.vs.VlogSegs() {
		if s.Sealed && s.Num >= head.Seg {
			sealedInWindow++
		}
	}
	if d.Stats().FlushCount != flushes || sealedInWindow < 3 {
		t.Fatalf("want one memtable over >= 3 sealed segments: %d flushes since the head, %d sealed segments", d.Stats().FlushCount-flushes, sealedInWindow)
	}

	// Crash: the instance is dropped without Close.
	d2, err := OpenDevice(cfg, d.Device())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	rec := d2.Recovery()
	if rec.VlogGroups != groups || rec.WALRecords != walRecords || rec.VlogReplayGap || rec.WALTornTail {
		t.Fatalf("replayed %d groups and %d WAL records (gap %v, torn WAL %v), want %d and %d", rec.VlogGroups, rec.WALRecords, rec.VlogReplayGap, rec.WALTornTail, groups, walRecords)
	}
	for k, want := range ref {
		if got, err := d2.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after the crash: %d bytes, %v", k, len(got), err)
		}
	}
	for i := 4; i < 60; i += 5 {
		k := fmt.Sprintf("key%03d", i%40)
		if _, deleted := ref[k]; deleted {
			continue // re-put later
		}
		if _, err := d2.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%q) after the crash = %v, want ErrNotFound", k, err)
		}
	}
	if err := d2.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The recovery flush moved the head past everything it replayed.
	if h := d2.vs.VlogHead(); h.Seg != d2.vlog.w.Seg() || h.Off != d2.vlog.w.Offset() {
		t.Fatalf("head after recovery %+v, writer at segment %d offset %d", h, d2.vlog.w.Seg(), d2.vlog.w.Offset())
	}
}

// TestVlogGCNeverCollectsReplayWindow: a segment at or after the
// replay head is still the write-ahead log of batches in the memtable,
// so however far over its dead budget the log is the collector must
// leave it — dropping it would lose acknowledged writes at the next
// crash. One flush later the head has passed them, and the first pass
// takes the deadest.
func TestVlogGCNeverCollectsReplayWindow(t *testing.T) {
	cfg := vlogConfig()
	cfg.MemtableSize = 1 * kv.MiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref := map[string][]byte{}
	put := func(n int) {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("key%03d", i)
			ref[k] = bigValue(fmt.Sprintf("%s-%d", k, n), n)
			if err := d.Put([]byte(k), ref[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(900)
	head := d.vs.VlogHead().Seg
	var window []version.VlogSeg
	for _, s := range d.vs.VlogSegs() {
		if s.Sealed && s.Num >= head {
			window = append(window, s)
		}
	}
	if len(window) < 2 {
		t.Fatalf("%d sealed segments in the replay window, want 2 or more", len(window))
	}
	// Overwrite every key: the window's records are dead, but only a
	// flush and compaction would charge them. Charge them now, the second
	// segment deadest, to put the log far over its budget.
	put(300)
	e := &version.Edit{}
	for i, s := range window {
		tenths := int64(6)
		if i == 1 {
			tenths = 9
		}
		e.VlogDead = append(e.VlogDead, version.VlogDeadRecord{Num: s.Num, Dead: (s.Bytes - s.Overhead) * tenths / 10})
	}
	if _, err := d.vs.LogAndApply(e); err != nil {
		t.Fatal(err)
	}
	if share := sealedLog(d).DeadRatio(); share <= vlogGCDeadBudget {
		t.Fatalf("sealed log forced to dead share %.2f only", share)
	}
	if vic, _, err := vlogGC(d); err != nil || vic != 0 {
		t.Fatalf("GC inside the replay window: victim %d, %v", vic, err)
	}
	if err := d.Put([]byte("more"), bigValue("more", 900)); err != nil { // the opportunistic pass too
		t.Fatal(err)
	}
	if runs := d.Stats().VlogGCRuns; runs != 0 {
		t.Fatalf("%d GC runs inside the replay window", runs)
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	vic, _, err := vlogGC(d)
	if err != nil || vic != window[1].Num {
		t.Fatalf("GC after the flush: victim %d, %v; want the deadest segment %d", vic, err, window[1].Num)
	}
	for k, want := range ref {
		if got, err := d.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after GC: %d bytes, %v", k, len(got), err)
		}
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestVlogUnknownFormatFailsOpenUntouched: recovery truncates a torn
// tail, so it must be sure what it is looking at first. A segment in
// the headerless version-1 format (bare records, pointers in the WAL),
// or one claiming a version this build does not know, fails OpenDevice
// with vlog.ErrFormat — and not one byte of its extent changes.
func TestVlogUnknownFormatFailsOpenUntouched(t *testing.T) {
	v1Record := func(seg uint64, key, value []byte) []byte {
		body := binary.AppendUvarint(nil, uint64(len(key)))
		body = binary.AppendUvarint(body, uint64(len(value)))
		body = append(append(body, key...), value...)
		c := crc32.Checksum(append(binary.LittleEndian.AppendUint64(nil, seg), body...), crc32.MakeTable(crc32.Castagnoli))
		return append(binary.LittleEndian.AppendUint32(nil, ((c>>15)|(c<<17))+0xa282ead8), body...)
	}
	cases := map[string]func(seg uint64) []byte{
		"version-1 segment": func(seg uint64) []byte {
			return append(v1Record(seg, []byte("k1"), bigValue("k1", 300)), v1Record(seg, []byte("k2"), bigValue("k2", 400))...)
		},
		"future version": func(uint64) []byte {
			h := vlog.AppendHeader(nil)
			h[4]++
			return append(h, "whatever version 3 keeps here"...)
		},
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := vlogConfig()
			d, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put([]byte("k"), bigValue("k", 300)); err != nil {
				t.Fatal(err)
			}
			seg, dev := d.vlog.w.Seg(), d.Device()
			ext, err := d.backend.FileExtent(seg)
			if err != nil {
				t.Fatal(err)
			}
			d.Close()
			// Hand-build the foreign segment in place of the active one.
			if _, err := dev.Disk.WriteAt(content(seg), ext.Off); err != nil {
				t.Fatal(err)
			}
			before := make([]byte, ext.Len)
			dev.Disk.ReadAt(before, ext.Off)
			size, _ := dev.Backend.FileSize(seg)

			_, err = OpenDevice(cfg, dev)
			if !errors.Is(err, vlog.ErrFormat) {
				t.Fatalf("OpenDevice over a %s: %v, want vlog.ErrFormat", name, err)
			}
			after := make([]byte, ext.Len)
			dev.Disk.ReadAt(after, ext.Off)
			if now, _ := dev.Backend.FileSize(seg); !bytes.Equal(before, after) || now != size {
				t.Fatalf("the refused segment changed: size %d -> %d, bytes equal %v", size, now, bytes.Equal(before, after))
			}
		})
	}
}

func TestVlogConfigValidation(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.ValueThreshold = vlog.PointerSize // too small: separation would grow entries
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
