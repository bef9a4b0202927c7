//go:build sealdb_invariants

package invariant

import (
	"fmt"
	"sort"
	"sync"
)

// The lock-order watchdog is the repo's one lock-order check: the obs
// lock wrappers report every profiled acquisition and release here,
// the watchdog maintains a per-goroutine stack of held sites plus a
// global graph of observed acquisition edges, and an acquisition that
// would close a cycle panics immediately — before the goroutine
// blocks on the mutex, so the failure is a stack trace naming both
// sites instead of a silent deadlock. It sees every acquisition a
// tagged run makes, through interfaces included, and none on a path
// no tagged run takes; internal/lsm's TestObservedLockOrderIsDeclared
// holds the observed edges to the declared hierarchy.
//
// A self-edge (site acquired while the same site is held) is skipped:
// one site name can cover many mutex instances (per-band, per-file),
// so it is not provably reentrant acquisition of one mutex.
//
// A goroutine is named by its runtime g pointer (getg), one load, so
// the tagged build costs about what the plain one does. A g is reused
// after its goroutine exits: one that exits holding a profiled lock
// leaves its held stack to the next goroutine on that g, but exiting
// with the lock held is already a bug. A lock released by a goroutine
// other than the one that acquired it is mis-attributed: the release
// finds no matching hold, and the acquirer's stack keeps the site.
//
// The observed graph is cumulative for the process; LockOrderEdges
// exposes it to tests.

var lw = struct {
	mu    sync.Mutex
	held  map[uintptr][]string       // goroutine's g -> stack of held sites
	spare [][]string                 // emptied stacks, for the next goroutine to hold a site
	edges map[string]map[string]bool // observed: held -> acquired
}{
	held:  map[uintptr][]string{},
	edges: map[string]map[string]bool{},
}

// LockAcquired records that the calling goroutine is acquiring the
// named site. It panics if the acquisition closes a cycle in the
// observed edge graph. Call before blocking on the underlying mutex.
func LockAcquired(site string) {
	lw.mu.Lock()
	g := getg()
	held := lw.held[g]
	if held == nil && len(lw.spare) > 0 {
		held, lw.spare = lw.spare[len(lw.spare)-1], lw.spare[:len(lw.spare)-1]
	}
	for _, h := range held {
		// An observed edge closes no cycle: the graph stays acyclic.
		if h == site || lw.edges[h][site] {
			continue
		}
		if reachesLocked(site, h) {
			edges := edgeListLocked()
			lw.mu.Unlock()
			panic(fmt.Sprintf(
				"invariant violated: lock-order cycle: acquiring %q while holding %q, but the reverse order %q -> %q was already observed (edges: %v)",
				site, h, site, h, edges))
		}
	}
	for _, h := range held {
		if h == site {
			continue
		}
		if lw.edges[h] == nil {
			lw.edges[h] = map[string]bool{}
		}
		lw.edges[h][site] = true
	}
	lw.held[g] = append(held, site)
	lw.mu.Unlock()
}

// LockReleased records that the calling goroutine released the named
// site (the most recent matching hold; releases may be out of
// acquisition order for hand-over-hand locking).
func LockReleased(site string) {
	lw.mu.Lock()
	g := getg()
	held := lw.held[g]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == site {
			held = append(held[:i], held[i+1:]...)
			break
		}
	}
	if len(held) == 0 {
		delete(lw.held, g)
		if held != nil {
			lw.spare = append(lw.spare, held)
		}
	} else {
		lw.held[g] = held
	}
	lw.mu.Unlock()
}

// LockOrderEdges returns the observed acquisition edges, sorted, as
// {held, acquired} pairs.
func LockOrderEdges() [][2]string {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return edgeListLocked()
}

// ResetLockOrder clears the observed graph and all held stacks
// (test isolation).
func ResetLockOrder() {
	lw.mu.Lock()
	lw.held = map[uintptr][]string{}
	lw.spare = nil
	lw.edges = map[string]map[string]bool{}
	lw.mu.Unlock()
}

// reachesLocked reports whether "to" is reachable from "from" in the
// observed edge graph. Caller holds lw.mu.
func reachesLocked(from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range lw.edges[cur] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// edgeListLocked flattens the edge set, sorted. Caller holds lw.mu.
func edgeListLocked() [][2]string {
	var out [][2]string
	for from, tos := range lw.edges {
		for to := range tos {
			out = append(out, [2]string{from, to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
