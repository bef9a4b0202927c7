// Package guarded is the guardedby fixture: a drive-like struct with
// annotated fields accessed correctly and incorrectly.
package guarded

import (
	"sync"
	"sync/atomic"

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
	state int64          // guarded by rwmu
	names map[string]int // guarded by rwmu
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

// Bad (v2): delete and clear write the map they are given.
func (r *rw) forgetShared(k string) {
	r.rwmu.RLock()
	defer r.rwmu.RUnlock()
	delete(r.names, k) // want "holds only the read lock"
}

func (r *rw) clearShared() {
	r.rwmu.RLock()
	defer r.rwmu.RUnlock()
	clear(r.names) // want "holds only the read lock"
}

// Good (v2): the same delete under the write lock.
func (r *rw) forget(k string) {
	r.rwmu.Lock()
	delete(r.names, k)
	r.rwmu.Unlock()
}

// The lockflow walker's rules, each with a case that fails without it.

// Good (terminating arm): a switch arm that releases and panics
// contributes nothing to the state after the switch.
func (d *drive) switchExit(op int) int64 {
	d.mu.Lock()
	switch op {
	case 0:
		d.mu.Unlock()
		panic("closed")
	case 1:
		d.host++
	}
	v := d.host
	d.mu.Unlock()
	return v
}

// Bad (fall-through arms intersect): one arm releases and falls through,
// so the lock is not held after the branch.
func (d *drive) releaseOnOnePath(drop bool) int64 {
	d.mu.Lock()
	if drop {
		d.mu.Unlock()
	}
	return d.host // want "not held at this access"
}

// Bad (fall-through arms intersect, at the weaker mode): a write lock on
// one arm and a read lock on the other is a read hold.
func (r *rw) eitherMode(shared bool) {
	if shared {
		r.rwmu.RLock()
	} else {
		r.rwmu.Lock()
	}
	r.state = 1 // want "holds only the read lock"
}

// Good (fall-through arms intersect): a switch with a default runs one of
// its arms, so a lock every arm takes is held after it.
func (d *drive) everyArmLocks(op int) int64 {
	switch op {
	case 0:
		d.mu.Lock()
	default:
		d.mu.Lock()
	}
	v := d.host
	d.mu.Unlock()
	return v
}

// Good (fall-through arms intersect): a select runs one of its arms.
func (d *drive) everyCaseLocks(a, b chan int) int64 {
	select {
	case <-a:
		d.mu.Lock()
	case <-b:
		d.mu.Lock()
	}
	v := d.host
	d.mu.Unlock()
	return v
}

// Good (terminating arm): an arm that releases and breaks out of the loop
// leaves the hold of the path that stays.
func (d *drive) sumUntilNegative(xs []int) int64 {
	var v int64
	for _, x := range xs {
		d.mu.Lock()
		if x < 0 {
			d.mu.Unlock()
			break
		}
		v += d.host
		d.mu.Unlock()
	}
	return v
}

// Good: any other function literal is walked where it is written, as a
// synchronous callback under the locks held there.
func (d *drive) visit(each func(func())) {
	d.mu.Lock()
	defer d.mu.Unlock()
	each(func() { d.host++ })
}

// Bad (a loop may run zero times): a lock taken in the body is not held
// after the loop.
func (d *drive) lockInLoop(n int) int64 {
	for i := 0; i < n; i++ {
		d.mu.Lock()
	}
	return d.host // want "not held at this access"
}

// Bad (a loop may run zero times), over a range.
func (d *drive) lockInRange(xs []int) int64 {
	for range xs {
		d.mu.Lock()
	}
	return d.host // want "not held at this access"
}

// Good (a deferred release is sticky): locks are matched by name, so a
// peer's release of its own mu does not end this one's hold.
func (d *drive) withPeer(p *drive) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	p.mu.Lock()
	p.wp = nil
	p.mu.Unlock()
	return d.host
}

// Good (a deferred release is sticky), through a deferred closure.
func (d *drive) withPeerClosure(p *drive) int64 {
	d.mu.Lock()
	defer func() { d.mu.Unlock() }()
	p.mu.Lock()
	p.wp = nil
	p.mu.Unlock()
	return d.host
}

// Bad (a go body starts empty): a goroutine started under the lock does
// not hold it.
func (d *drive) spawn() {
	d.mu.Lock()
	defer d.mu.Unlock()
	go func() {
		d.host++ // want "not held at this access"
	}()
}

// A aliases a typed atomic: a field of the alias is still one.
type A = atomic.Int64

// counters pairs typed atomics with a mutex.
type counters struct {
	mu sync.Mutex
	// guarded by mu
	mixed atomic.Int64 // want "field mixed is a sync/atomic value but is annotated 'guarded by mu'"

	// guarded by mu
	aliased A // want "field aliased is a sync/atomic value but is annotated 'guarded by mu'"

	// guarded by mu
	okGuarded int64

	typed atomic.Int64

	// guarded by mu, with the fast path reading atomically.
	exempt atomic.Int64 //sealvet:allow guardedby
}

// Good: a flagged field is not flagged again at each access.
func (c *counters) Mixed() int64 { return c.mixed.Load() }

// Good: typed atomics used through their methods.
func (c *counters) Typed() int64 { return c.typed.Load() }

// Good: the guarded field under its mutex.
func (c *counters) OKGuarded() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.okGuarded
}

// Good: a reviewed mixed-discipline field.
func (c *counters) Exempt() int64 { return c.exempt.Load() }
