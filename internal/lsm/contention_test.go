package lsm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sealdb/internal/kv"
	"sealdb/internal/obs"
)

// TestContentionProfileRanksBigMutexFirst runs a concurrent
// YCSB-A-style mix (50/50 read/update, zipf-ish key reuse) against
// one DB with lock profiling on and checks the lsm.DB big mutex
// accumulates more wait than any other site. Gets take no engine lock
// (TestReadsTakeNoEngineLock): the wait is the writers', serialized
// behind each other's inline flushes and compactions — the measurement
// that motivates taking those jobs off the committing goroutine. Deltas
// against the process-global profile keep the test immune to wait
// accrued by other tests in this binary.
func TestContentionProfileRanksBigMutexFirst(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Preload so reads hit existing keys.
	const records = 400
	for i := 0; i < records; i++ {
		k := []byte(fmt.Sprintf("user%07d", i))
		if err := d.Put(k, []byte(fmt.Sprintf("v%07d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// On a single-core box GOMAXPROCS=1 serializes the clients and the
	// mutex is never observably contended; give the scheduler real
	// parallelism so lock waits actually occur.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}

	before := map[string]int64{}
	for _, s := range obs.ContentionProfile() {
		before[s.Name] = s.TotalWaitNS
	}
	obs.SetLockProfiling(true)
	defer obs.SetLockProfiling(false)

	const goroutines, opsPer = 8, 3000
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				k := []byte(fmt.Sprintf("user%07d", rng.Intn(records)))
				if rng.Intn(2) == 0 {
					if _, err := d.Get(k); err != nil && err != ErrNotFound {
						errs <- err
						return
					}
				} else {
					if err := d.Put(k, []byte(fmt.Sprintf("u%07d", i))); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var top string
	var topWait, dbWait int64
	for _, s := range obs.ContentionProfile() {
		delta := s.TotalWaitNS - before[s.Name]
		if s.Name == "lsm_db_mu" {
			dbWait = delta
		}
		if delta > topWait {
			top, topWait = s.Name, delta
		}
		if delta > 0 {
			t.Logf("%-22s wait %9d ns", s.Name, delta)
		}
	}
	if dbWait <= 0 {
		t.Fatal("lsm_db_mu accrued no wait under 8-way YCSB-A load")
	}
	if top != "lsm_db_mu" {
		t.Errorf("top contention site = %s (%dns), want lsm_db_mu (%dns)", top, topWait, dbWait)
	}
}

// TestMetricsSnapshotTakesEngineLockOnce: collecting every metric of a
// loaded SEALDB store with separated values enters the engine mutex
// exactly once, so a scrape costs a serving engine one critical section
// however many gauges there are.
func TestMetricsSnapshotTakesEngineLockOnce(t *testing.T) {
	cfg := tinyConfig(ModeSEALDB)
	cfg.ValueThreshold = 64
	cfg.VlogSegSize = 8 * kv.KiB
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(7))
	val := make([]byte, 200) // separated: above the threshold
	for i := 0; i < 6000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key%05d", rng.Intn(3000))), val); err != nil {
			t.Fatal(err)
		}
	}

	acquisitions := func() int64 {
		for _, s := range obs.ContentionProfile() {
			if s.Name == "lsm_db_mu" {
				return s.Acquisitions
			}
		}
		return 0
	}
	obs.SetLockProfiling(true)
	defer obs.SetLockProfiling(false)
	before := acquisitions()
	snap := d.MetricsSnapshot()
	if got := acquisitions() - before; got != 1 {
		t.Errorf("MetricsSnapshot took lsm_db_mu %d times, want 1", got)
	}
	if snap.Gauges["sealdb_memtable_bytes"] == 0 || snap.Gauges["sealdb_vlog_segments"] == 0 {
		t.Errorf("snapshot of a loaded store is missing engine state: %v", snap.Gauges)
	}
}
