package obs

// Lock-contention profiling: a drop-in mutex wrapper that, when the
// package-wide profile switch is on, records per-site wait-time and
// hold-time histograms plus contention counters into a process-global
// site table (the same shape as Go's runtime mutex profile, which is
// also process-global). When the switch is off — the default — Lock
// costs exactly one atomic load over sync.Mutex.Lock and allocates
// nothing, the same discipline as the request tracer's disabled path.
//
// Sites are named, not positional: a wrapper starts unprofiled (its
// site pointer is nil, so even an enabled profiler ignores it) until
// its owner calls Profile("some_site"). Two mutexes profiled under
// one name share a site and aggregate, which is what reopening a DB
// in-process should do.
//
// The clock is injectable (SetLockClock) so packages under the
// noclock determinism contract (dband, storage) can embed a wrapper
// without ever referencing the wall clock themselves: the default
// monotonic nanotime source lives here, in obs, outside the noclock
// scope, and a test or harness may thread any nanotime it likes.

import (
	"sealdb/internal/invariant"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// lockProfiling is the package-wide contention-profiling switch.
var lockProfiling atomic.Bool

// lockClockFn is the injectable nanotime source; nil means the
// default monotonic clock.
var lockClockFn atomic.Pointer[func() int64]

// lockEpoch anchors the default clock so readings stay in the
// monotonic domain (time.Since uses the monotonic reading).
var lockEpoch = time.Now()

// SetLockProfiling turns lock-contention profiling on or off
// process-wide. Off (the default), a profiled Mutex costs one atomic
// load over the plain sync primitive and records nothing.
func SetLockProfiling(on bool) { lockProfiling.Store(on) }

// LockProfilingEnabled reports whether contention profiling is on.
func LockProfilingEnabled() bool { return lockProfiling.Load() }

// SetLockClock installs the nanotime source wait and hold times are
// measured with. Passing nil restores the default monotonic clock.
// The source must be safe for concurrent use and monotone
// non-decreasing; it is only consulted while profiling is enabled.
func SetLockClock(now func() int64) {
	if now == nil {
		lockClockFn.Store(nil)
		return
	}
	lockClockFn.Store(&now)
}

// lockNow reads the profiling clock.
func lockNow() int64 {
	if fn := lockClockFn.Load(); fn != nil {
		return (*fn)()
	}
	return int64(time.Since(lockEpoch))
}

// lockSite aggregates one named lock's profile. All fields are
// internally synchronized; sites live for the process lifetime.
type lockSite struct {
	name         string
	acquisitions atomic.Int64
	contentions  atomic.Int64
	waitNS       atomic.Int64
	holdNS       atomic.Int64
	wait         *Histogram
	hold         *Histogram
}

func (s *lockSite) acquire(waitNS int64, contended bool) {
	s.acquisitions.Add(1)
	if contended {
		s.contentions.Add(1)
	}
	s.waitNS.Add(waitNS)
	s.wait.Observe(waitNS)
}

func (s *lockSite) release(holdNS int64) {
	s.holdNS.Add(holdNS)
	s.hold.Observe(holdNS)
}

// lockSites is the process-global site table.
var lockSites = struct {
	mu sync.RWMutex
	m  map[string]*lockSite
}{m: map[string]*lockSite{}}

// siteFor returns (creating if needed) the named site.
func siteFor(name string) *lockSite {
	lockSites.mu.RLock()
	s := lockSites.m[name]
	lockSites.mu.RUnlock()
	if s != nil {
		return s
	}
	lockSites.mu.Lock()
	defer lockSites.mu.Unlock()
	if s = lockSites.m[name]; s == nil {
		s = &lockSite{name: name, wait: NewHistogram(), hold: NewHistogram()}
		lockSites.m[name] = s
	}
	return s
}

// LockSiteSnapshot is one site's profile at a point in time.
type LockSiteSnapshot struct {
	Name string `json:"name"`
	// Acquisitions counts profiled lock acquisitions; Contentions is
	// the subset that had to wait for another holder.
	Acquisitions int64 `json:"acquisitions"`
	Contentions  int64 `json:"contentions"`
	// TotalWaitNS/TotalHoldNS are the summed wait and hold times; the
	// contention ranking orders by total wait.
	TotalWaitNS int64             `json:"total_wait_ns"`
	TotalHoldNS int64             `json:"total_hold_ns"`
	Wait        HistogramSnapshot `json:"wait_ns"`
	Hold        HistogramSnapshot `json:"hold_ns"`
}

// ContentionProfile snapshots every profiled lock site, ranked by
// total wait time, longest-waiting first. It is the /debug/contention
// payload.
func ContentionProfile() []LockSiteSnapshot {
	lockSites.mu.RLock()
	sites := make([]*lockSite, 0, len(lockSites.m))
	for _, s := range lockSites.m {
		sites = append(sites, s)
	}
	lockSites.mu.RUnlock()
	out := make([]LockSiteSnapshot, 0, len(sites))
	for _, s := range sites {
		out = append(out, LockSiteSnapshot{
			Name:         s.name,
			Acquisitions: s.acquisitions.Load(),
			Contentions:  s.contentions.Load(),
			TotalWaitNS:  s.waitNS.Load(),
			TotalHoldNS:  s.holdNS.Load(),
			Wait:         s.wait.Snapshot(),
			Hold:         s.hold.Snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalWaitNS != out[j].TotalWaitNS {
			return out[i].TotalWaitNS > out[j].TotalWaitNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ResetLockProfile zeroes every site's counters and histograms (the
// sites themselves persist: wrappers hold pointers into the table).
// Benchmark harnesses call it between measurement windows.
func ResetLockProfile() {
	lockSites.mu.RLock()
	defer lockSites.mu.RUnlock()
	for _, s := range lockSites.m {
		s.acquisitions.Store(0)
		s.contentions.Store(0)
		s.waitNS.Store(0)
		s.holdNS.Store(0)
		s.wait.Reset()
		s.hold.Reset()
	}
}

// Mutex is a drop-in sync.Mutex with optional contention profiling.
// The zero value is an unlocked, unprofiled mutex. Call Profile to
// attach it to a named site; until then (and whenever profiling is
// off) Lock/Unlock add one atomic load to the plain sync cost and
// never allocate or touch a histogram.
type Mutex struct {
	mu   sync.Mutex
	site atomic.Pointer[lockSite]
	// acquiredNS is the profiled acquisition timestamp, nonzero only
	// while the lock is held by a profiled acquisition; it is written
	// and read under mu.
	acquiredNS int64
}

// Profile attaches the mutex to the named contention site. Safe to
// call at any time, including while the lock is held or contended.
func (m *Mutex) Profile(name string) { m.site.Store(siteFor(name)) }

// Lock locks the mutex, recording wait time when profiling is on.
// In invariant builds a profiled acquisition is reported to the
// lock-order watchdog before blocking, so a cycle panics instead of
// deadlocking.
func (m *Mutex) Lock() {
	if invariant.Enabled {
		m.watchAcquire()
	}
	if !lockProfiling.Load() {
		m.mu.Lock()
		return
	}
	m.lockProfiled()
}

// lockProfiled is the profiling path, kept out of Lock so the
// disabled fast path stays inlinable.
func (m *Mutex) lockProfiled() {
	s := m.site.Load()
	if s == nil {
		m.mu.Lock()
		return
	}
	start := lockNow()
	if m.mu.TryLock() {
		s.acquire(0, false)
		m.acquiredNS = start
		return
	}
	m.mu.Lock()
	now := lockNow()
	s.acquire(now-start, true)
	m.acquiredNS = now
}

// Unlock unlocks the mutex, recording hold time when the acquisition
// was profiled.
func (m *Mutex) Unlock() {
	if invariant.Enabled {
		m.watchRelease()
	}
	if t := m.acquiredNS; t != 0 {
		m.acquiredNS = 0
		if s := m.site.Load(); s != nil {
			s.release(lockNow() - t)
		}
	}
	m.mu.Unlock()
}

// watchAcquire and watchRelease report profiled acquisitions and
// releases to the invariant lock-order watchdog. Call sites gate on
// invariant.Enabled (a constant), so in default builds the calls —
// and the site loads — compile away entirely, preserving the
// zero-alloc fast paths.
func (m *Mutex) watchAcquire() {
	if s := m.site.Load(); s != nil {
		invariant.LockAcquired(s.name)
	}
}

func (m *Mutex) watchRelease() {
	if s := m.site.Load(); s != nil {
		invariant.LockReleased(s.name)
	}
}
