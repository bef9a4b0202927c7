package lsm

import (
	"fmt"
	"sync"
	"testing"
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
	for l := 0; l < d.cfg.NumLevels; l++ {
		for _, f := range v.Overlaps(l, []byte("key0002000"), []byte("key0002000"), d.cfg.sortedLevel(l)) {
			straddling += f.Size
		}
	}
	if half+rest-straddling != whole {
		t.Errorf("halves %d + %d less the %d bytes holding the split key = %d, want the whole %d",
			half, rest, straddling, half+rest-straddling, whole)
	}
}
