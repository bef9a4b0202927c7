package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"sealdb/internal/faultfs"
	"sealdb/internal/obs"
	"sealdb/internal/smr"
)

// checkJobRecords holds one instance's journal against its per-job
// record: flush and compaction spans, in the order they began, are the
// CompactionInfos in the order they were appended, one each, with ids
// 1, 2, …; a compaction span carries its record's id and a flush span its
// output bytes. A record's Latency is its span's device-clock duration,
// except that a trivial move records no I/O at all. There is one vlog_gc
// span per counted GC pass. Returns the flush, compaction, trivial-move
// and GC-pass counts.
func checkJobRecords(t *testing.T, d *DB) (flushes, compactions, trivial, gcs int) {
	t.Helper()
	if n := d.JournalDropped(); n != 0 {
		t.Fatalf("journal dropped %d events; raise JournalCapacity", n)
	}
	var spans []obs.Event
	for _, e := range d.Events() {
		switch e.Type {
		case "vlog_gc":
			gcs++
		case "flush", "compaction":
			spans = append(spans, e)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	if runs := d.MetricsSnapshot().Counters["sealdb_vlog_gc_runs_total"]; int64(gcs) != runs {
		t.Errorf("%d vlog_gc spans, sealdb_vlog_gc_runs_total %d", gcs, runs)
	}
	infos := d.Stats().Compactions
	if len(spans) != len(infos) {
		t.Fatalf("%d flush/compaction spans, %d CompactionInfos", len(spans), len(infos))
	}
	for i, sp := range spans {
		ci := infos[i]
		if ci.ID != i+1 || ci.Flush != (sp.Type == "flush") {
			t.Fatalf("%s span %d pairs with record %+v, want id %d", sp.Type, sp.ID, ci, i+1)
		}
		if ci.Flush {
			flushes++
			if sp.Fields["bytes"] != ci.OutputBytes {
				t.Errorf("flush %d: span bytes %d, record %d", ci.ID, sp.Fields["bytes"], ci.OutputBytes)
			}
		} else {
			compactions++
			if sp.Fields["id"] != int64(ci.ID) {
				t.Errorf("compaction span id %d, record id %d", sp.Fields["id"], ci.ID)
			}
		}
		if ci.TrivialMove {
			trivial++
			if ci.Latency != 0 || sp.Fields["trivial"] != 1 {
				t.Errorf("trivial move %d carries I/O: %+v, span %v", ci.ID, ci, sp.Fields)
			}
		} else if int64(ci.Latency) != sp.Duration() {
			t.Errorf("job %d: Latency %d, span lasted %d device ns", ci.ID, ci.Latency, sp.Duration())
		}
	}
	return flushes, compactions, trivial, gcs
}

// TestJobExecutorContract drives a SEALDB store with a value log through
// every way a job runs — flushes and compactions on the writer,
// FlushMemtable, compactAll, CompactRange, vlogGC, a GC pass after a
// commit, and the recovery flush of a reopen — and holds the journal to
// the per-job record (checkJobRecords).
func TestJobExecutorContract(t *testing.T) {
	cfg := vlogConfig()
	cfg.JournalCapacity = 1 << 16
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := loadRandom(t, d, 3000, 5) // inline values: the writer flushes and compacts
	garbage := loadVlogGarbage(t, d) // FlushMemtable and CompactRange
	if vic, _, err := vlogGC(d); err != nil || vic == 0 {
		t.Fatalf("vlogGC = %d, %v; want a pass", vic, err)
	}
	explicit := d.Stats().VlogGCRuns
	for i := 0; d.Stats().VlogGCRuns == explicit; i++ {
		if i == 500 {
			t.Fatal("no GC pass ran after a commit")
		}
		k := fmt.Sprintf("key%05d", i%60)
		garbage[k] = bigValue(k+"-post", 400)
		if err := d.Put([]byte(k), garbage[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := compactAll(d); err != nil {
		t.Fatal(err)
	}
	// A key range past every other overlaps nothing below level 0:
	// CompactRange moves its table down without merging.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("zz%03d", i)
		ref[k] = k
		if err := d.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FlushMemtable(); err != nil {
		t.Fatal(err)
	}
	if err := d.CompactRange([]byte("zz"), nil); err != nil {
		t.Fatal(err)
	}
	flushes, compactions, trivial, gcs := checkJobRecords(t, d)
	t.Logf("first instance: %d flushes, %d compactions (%d trivial), %d GC passes", flushes, compactions, trivial, gcs)
	if flushes == 0 || compactions == trivial || trivial == 0 || gcs < 2 {
		t.Fatal("the load did not run every kind of job")
	}

	// Writes left in the logs: the reopen replays them and flushes.
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("tail%03d", i)
		ref[k] = k
		if err := d.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	d2, err := OpenDevice(cfg, d.Device())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if flushes, _, _, _ := checkJobRecords(t, d2); flushes != 1 {
		t.Fatalf("reopen ran %d flushes, want the recovery flush", flushes)
	}
	verifyAll(t, d2, ref)
	for k, want := range garbage {
		if got, err := d2.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after reopen: %v", k, err)
		}
	}
}

// TestPostCommitGCFailureIsNotTheBatchs: a GC pass after a commit runs
// once the batch is durable and visible, so its failure — here the
// victim's segment cannot be read — is not the batch's. Apply succeeds,
// the store degrades, the next write reports it, and a reopen finds the
// batch.
func TestPostCommitGCFailureIsNotTheBatchs(t *testing.T) {
	cfg := vlogConfig()
	var fd *faultfs.Drive
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 7)
		return fd
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := loadVlogGarbage(t, d)

	d.mu.Lock()
	j, ok := d.gcJob()
	ext, err := d.backend.FileExtent(j.victim.Num)
	d.mu.Unlock()
	if !ok || err != nil {
		t.Fatalf("no GC victim to fail (ok %v, extent %v)", ok, err)
	}
	fd.Inject(faultfs.Rule{Op: faultfs.OpRead, Off: ext.Off, Len: ext.Len, Count: 1})

	b := NewBatch()
	b.Put([]byte("batch"), bigValue("batch", 400))
	if err := d.Apply(b); err != nil {
		t.Fatalf("Apply whose post-commit GC pass failed = %v, want nil", err)
	}
	if d.Degraded() == nil {
		t.Fatal("a failed GC pass left the store writable")
	}
	if err := d.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put after the failed pass = %v, want ErrDegraded", err)
	}
	ref["batch"] = bigValue("batch", 400)

	d.Close()
	d2, err := OpenDevice(cfg, d.Device())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for k, want := range ref {
		if got, err := d2.Get([]byte(k)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) after reopen: %v", k, err)
		}
	}
}
