// Package guarded is the guardedby fixture: a drive-like struct with
// annotated fields accessed correctly and incorrectly.
package guarded

import (
	"sync"

	"sealdb/internal/obs"
)

type drive struct {
	mu sync.Mutex
	wp []int64 // guarded by mu
	// host counts payload bytes.
	// guarded by mu
	host int64

	unguarded int64
}

// Good: lock held on the access path.
func (d *drive) HostBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.host
}

// Good: RLock counts as holding the mutex.
type rw struct {
	rwmu  sync.RWMutex
	state int64 // guarded by rwmu
}

func (r *rw) State() int64 {
	r.rwmu.RLock()
	defer r.rwmu.RUnlock()
	return r.state
}

// Bad: no lock anywhere in the function.
func (d *drive) racyHost() int64 {
	return d.host // want "field host is guarded by mu"
}

// Bad: wrong mutex.
func (d *drive) wrongLock(other *rw) {
	other.rwmu.Lock()
	d.wp = append(d.wp, 1) // want "field wp is guarded by mu"
	other.rwmu.Unlock()
}

// Good: unguarded fields carry no obligation.
func (d *drive) Unguarded() int64 { return d.unguarded }

// applyLocked is exempt through the Locked suffix convention.
func (d *drive) applyLocked() { d.host++ }

// bump applies a delta. Caller holds d.mu.
func (d *drive) bump(delta int64) { d.host += delta }

// Good: reviewed exception via the directive escape hatch.
func (d *drive) snapshotUnsafe() int64 {
	return d.host //sealvet:allow guardedby
}

// instrumented is the post-migration shape: hot locks are
// contention-profiled obs wrappers, and their Lock calls must satisfy
// guards exactly like sync mutexes do.
type instrumented struct {
	mu    obs.Mutex
	queue []int64 // guarded by mu

	idxmu obs.Mutex
	idx   int64 // guarded by idxmu
}

// Good: obs.Mutex Lock satisfies the guard.
func (s *instrumented) Pop() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.queue)
	if n == 0 {
		return 0
	}
	v := s.queue[n-1]
	s.queue = s.queue[:n-1]
	return v
}

// Good: the second wrapper guards its own field.
func (s *instrumented) Index() int64 {
	s.idxmu.Lock()
	defer s.idxmu.Unlock()
	return s.idx
}

// Bad: an instrumented guard is still a guard.
func (s *instrumented) racyQueue() int {
	return len(s.queue) // want "field queue is guarded by mu"
}

// Bad: wrong wrapper lock held.
func (s *instrumented) crossLock() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx // want "field idx is guarded by idxmu"
}

// Good (v2): the early-exit unlock strips the lock only from the
// terminated path; the fallthrough access is still guarded.
func (d *drive) guardedEarlyExit(stop bool) int64 {
	d.mu.Lock()
	if stop {
		d.mu.Unlock()
		return 0
	}
	v := d.host
	d.mu.Unlock()
	return v
}

// Bad (v2): the lock was released before the second read — flow
// sensitivity catches what "locks mu somewhere" would excuse.
func (d *drive) afterUnlock() int64 {
	d.mu.Lock()
	v := d.host
	d.mu.Unlock()
	return v + d.host // want "not held at this access"
}

// Bad (v2): a write under only the read lock.
func (r *rw) bumpShared() {
	r.rwmu.RLock()
	defer r.rwmu.RUnlock()
	r.state++ // want "holds only the read lock"
}

// Good (v2): upgrading to the write lock before mutating.
func (r *rw) bumpExclusive() {
	r.rwmu.Lock()
	r.state++
	r.rwmu.Unlock()
}

// Bad (v2): a plain assignment under only the read lock.
func (r *rw) resetShared() {
	r.rwmu.RLock()
	defer r.rwmu.RUnlock()
	r.state = 0 // want "holds only the read lock"
}
