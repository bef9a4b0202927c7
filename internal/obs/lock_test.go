package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sealdb/internal/invariant"
)

// findSite returns the named site's snapshot, or a zero value.
func findSite(t *testing.T, name string) LockSiteSnapshot {
	t.Helper()
	for _, s := range ContentionProfile() {
		if s.Name == name {
			return s
		}
	}
	return LockSiteSnapshot{}
}

// TestLockProfilingOffAllocs is the contention-off acceptance check,
// mirroring the tracer's TestGetHotPathAllocsTracingOff: with
// profiling disabled, an uncontended Lock/Unlock on a profiled
// obs.Mutex allocates nothing and writes no histogram — the wrapper's
// whole cost is one atomic load.
func TestLockProfilingOffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	if invariant.Enabled {
		t.Skip("lock-order watchdog allocates on profiled acquisitions")
	}
	SetLockProfiling(false)
	var mu Mutex
	mu.Profile("test_allocs_off_mu")
	before := findSite(t, "test_allocs_off_mu")
	if n := testing.AllocsPerRun(1000, func() {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // empty section on purpose
	}); n != 0 {
		t.Errorf("profiling-off Lock/Unlock allocates %.1f times per op, want 0", n)
	}
	after := findSite(t, "test_allocs_off_mu")
	if after.Wait.Count != before.Wait.Count || after.Hold.Count != before.Hold.Count {
		t.Errorf("profiling-off Lock/Unlock wrote histograms: wait %d->%d hold %d->%d",
			before.Wait.Count, after.Wait.Count, before.Hold.Count, after.Hold.Count)
	}
	if after.Acquisitions != before.Acquisitions {
		t.Errorf("profiling-off Lock counted acquisitions: %d -> %d",
			before.Acquisitions, after.Acquisitions)
	}
}

// TestLockProfilingRecordsWaitAndHold drives real contention through
// a profiled mutex with profiling on and checks the site accumulates
// acquisitions, contentions, wait time and hold time.
func TestLockProfilingRecordsWaitAndHold(t *testing.T) {
	SetLockProfiling(true)
	defer SetLockProfiling(false)
	var mu Mutex
	mu.Profile("test_contended_mu")

	const goroutines, iters = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				mu.Lock()
				time.Sleep(20 * time.Microsecond) // hold long enough to collide
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	s := findSite(t, "test_contended_mu")
	if s.Acquisitions != goroutines*iters {
		t.Errorf("acquisitions = %d, want %d", s.Acquisitions, goroutines*iters)
	}
	if s.Contentions == 0 {
		t.Error("no contentions recorded under 8-way contention")
	}
	if s.TotalWaitNS <= 0 {
		t.Errorf("total wait = %d, want > 0", s.TotalWaitNS)
	}
	if s.TotalHoldNS <= 0 {
		t.Errorf("total hold = %d, want > 0", s.TotalHoldNS)
	}
	if s.Wait.Count != s.Acquisitions {
		t.Errorf("wait histogram count = %d, want %d", s.Wait.Count, s.Acquisitions)
	}
	if s.Hold.Count != s.Acquisitions {
		t.Errorf("hold histogram count = %d, want %d", s.Hold.Count, s.Acquisitions)
	}
}

// TestLockClockThreading verifies the caller-supplied nanotime source
// is what wait and hold measurements read — the mechanism that keeps
// noclock-covered packages off the wall clock.
func TestLockClockThreading(t *testing.T) {
	var fake atomic.Int64
	fake.Store(1000)
	SetLockClock(func() int64 { return fake.Load() })
	defer SetLockClock(nil)
	SetLockProfiling(true)
	defer SetLockProfiling(false)

	var mu Mutex
	mu.Profile("test_fake_clock_mu")
	before := findSite(t, "test_fake_clock_mu")

	mu.Lock()
	fake.Add(250) // the entire hold, on the injected clock
	mu.Unlock()

	after := findSite(t, "test_fake_clock_mu")
	if got := after.TotalHoldNS - before.TotalHoldNS; got != 250 {
		t.Errorf("hold on injected clock = %dns, want 250", got)
	}
	if got := after.TotalWaitNS - before.TotalWaitNS; got != 0 {
		t.Errorf("uncontended wait on injected clock = %dns, want 0", got)
	}
}

// TestContentionProfileRanking checks sites order by total wait,
// longest first.
func TestContentionProfileRanking(t *testing.T) {
	SetLockClock(func() int64 { return 0 })
	SetLockProfiling(true)
	// Fabricate deterministic wait via direct site records.
	a, b := siteFor("test_rank_small"), siteFor("test_rank_big")
	a.acquire(10, true)
	b.acquire(10_000, true)
	SetLockProfiling(false)
	SetLockClock(nil)

	prof := ContentionProfile()
	posA, posB := -1, -1
	for i, s := range prof {
		switch s.Name {
		case "test_rank_small":
			posA = i
		case "test_rank_big":
			posB = i
		}
	}
	if posA < 0 || posB < 0 {
		t.Fatalf("fabricated sites missing from profile (a=%d b=%d)", posA, posB)
	}
	if posB > posA {
		t.Errorf("site with 10000ns wait ranked %d, below site with 10ns at %d", posB, posA)
	}
}

// TestResetLockProfile checks a reset zeroes counters and histograms
// while keeping sites alive for wrappers that hold pointers to them.
func TestResetLockProfile(t *testing.T) {
	SetLockProfiling(true)
	var mu Mutex
	mu.Profile("test_reset_mu")
	mu.Lock()
	mu.Unlock() //nolint:staticcheck // empty critical section on purpose
	SetLockProfiling(false)
	if s := findSite(t, "test_reset_mu"); s.Acquisitions == 0 {
		t.Fatal("no acquisitions before reset")
	}

	ResetLockProfile()
	s := findSite(t, "test_reset_mu")
	if s.Acquisitions != 0 || s.TotalWaitNS != 0 || s.TotalHoldNS != 0 ||
		s.Wait.Count != 0 || s.Hold.Count != 0 {
		t.Errorf("reset left residue: %+v", s)
	}

	// The site must still record after the reset.
	SetLockProfiling(true)
	mu.Lock()
	mu.Unlock() //nolint:staticcheck // empty critical section on purpose
	SetLockProfiling(false)
	if s := findSite(t, "test_reset_mu"); s.Acquisitions != 1 {
		t.Errorf("post-reset acquisitions = %d, want 1", s.Acquisitions)
	}
}
