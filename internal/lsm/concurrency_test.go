package lsm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sealdb/internal/kv"
)

// TestConcurrentReadersAndWriter exercises the engine's locking under
// parallel readers, a writer, iterator users and snapshot takers.
// Run with -race to check the synchronization.
func TestConcurrentReadersAndWriter(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Seed some data.
	for i := 0; i < 1000; i++ {
		d.Put([]byte(fmt.Sprintf("c%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// One writer pushing enough to trigger flushes and compactions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			k := fmt.Sprintf("c%05d", i%2000)
			if err := d.Put([]byte(k), []byte(fmt.Sprintf("w%d", i))); err != nil {
				errs <- err
				return
			}
			if i%10 == 3 {
				if err := d.Delete([]byte(fmt.Sprintf("c%05d", (i*7)%2000))); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	// Point readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("c%05d", (i*31+seed)%2000)
				if _, err := d.Get([]byte(k)); err != nil && err != ErrNotFound {
					errs <- err
					return
				}
			}
		}(r)
	}

	// Scanners with snapshots.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := d.Scan([]byte("c"), 50); err != nil {
					errs <- err
					return
				}
				snap := d.NewSnapshot()
				if _, err := d.GetAt([]byte("c00001"), snap); err != nil && err != ErrNotFound {
					errs <- err
					snap.Release()
					return
				}
				snap.Release()
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAppliesShareLogRecords: concurrent Apply callers queue
// and commit in groups, so 8 writers' 4,000 batches reach the logs as
// fewer records than batches, inline (WAL records) and separated
// (value-log groups) alike — and after a reopen every batch is whole.
func TestConcurrentAppliesShareLogRecords(t *testing.T) {
	const writers, applies = 8, 500
	key := func(w, i, e int) []byte { return fmt.Appendf(nil, "w%d-b%04d-e%d", w, i, e) }
	val := func(w, i int) []byte { return fmt.Appendf(nil, "%0100d", w*applies+i) }
	for _, arm := range []struct {
		name      string
		threshold int
	}{{"inline", 0}, {"vlog", 64}} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := tinyConfig(ModeSEALDB)
			cfg.MemtableSize = 8 * kv.MiB // nothing flushes: every batch replays from a log
			cfg.ValueThreshold = arm.threshold
			cfg.VlogSegSize = 16 * kv.MiB
			dev := NewDevice(cfg)
			d, err := OpenDevice(cfg, dev)
			if err != nil {
				t.Fatal(err)
			}
			// Hold d.mu until every writer has queued its first batch, so
			// at least one group forms whatever the scheduler does; the
			// rest group as the writers happen to overlap.
			d.mu.Lock()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < applies; i++ {
						b := NewBatch()
						for e := 0; e <= (w+i)%3; e++ {
							b.Put(key(w, i, e), val(w, i))
						}
						if err := d.Apply(b); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			awaitQueued(d, writers)
			d.mu.Unlock()
			wg.Wait()
			if st := d.Stats(); st.FlushCount != 0 {
				t.Fatalf("%d flushes: the logs no longer hold every batch", st.FlushCount)
			}
			d.Close()
			if d, err = OpenDevice(cfg, dev); err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for w := 0; w < writers; w++ {
				for i := 0; i < applies; i++ {
					for e := 0; e <= (w+i)%3; e++ {
						if v, err := d.Get(key(w, i, e)); err != nil || !bytes.Equal(v, val(w, i)) {
							t.Fatalf("batch %d/%d entry %d after reopen: (%q, %v)", w, i, e, v, err)
						}
					}
				}
			}
			rec := d.Recovery()
			t.Logf("%d batches replayed from %d WAL records and %d value-log groups",
				writers*applies, rec.WALRecords, rec.VlogGroups)
			if rec.WALRecords+rec.VlogGroups >= writers*applies {
				t.Fatalf("%d log records for %d batches: no group commit carried two batches",
					rec.WALRecords+rec.VlogGroups, writers*applies)
			}
		})
	}
}

// awaitQueued returns once n batches wait in d's commit queue. A caller
// holding d.mu meanwhile makes them one group commit.
func awaitQueued(d *DB, n int) {
	for queued := 0; queued < n; runtime.Gosched() {
		d.queueMu.Lock()
		queued = len(d.queue)
		d.queueMu.Unlock()
	}
}

func TestApproximateSize(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loadRandom(t, d, 4000, 77)
	d.FlushMemtable()

	whole := d.ApproximateSize(nil, nil)
	if whole <= 0 {
		t.Fatal("whole-range size is zero after load")
	}
	half := d.ApproximateSize([]byte("key0000000"), []byte("key0002000"))
	if half <= 0 || half >= whole {
		t.Errorf("half range %d not within (0, %d)", half, whole)
	}
	empty := d.ApproximateSize([]byte("zzz"), []byte("zzzz"))
	if empty != 0 {
		t.Errorf("empty range reported %d bytes", empty)
	}
	// Consistency: the two halves partition the whole, except that a
	// file partially in range counts fully, so the files holding the
	// split key count in both: every L0 file of a random load, and one
	// per deeper level. L0 runs to 1.5x its trigger before it drains,
	// which makes that overlap a fifth of the whole here.
	rest := d.ApproximateSize([]byte("key0002000"), nil)
	var straddling int64
	v := d.vs.Current()
	for l := 0; l < d.cfg.NumLevels(); l++ {
		for _, f := range v.Overlaps(l, []byte("key0002000"), []byte("key0002000"), d.cfg.sortedLevel(l)) {
			straddling += f.Size
		}
	}
	if half+rest-straddling != whole {
		t.Errorf("halves %d + %d less the %d bytes holding the split key = %d, want the whole %d",
			half, rest, straddling, half+rest-straddling, whole)
	}
}
