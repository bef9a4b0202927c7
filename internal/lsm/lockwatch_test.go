//go:build sealdb_invariants

package lsm

import (
	"fmt"
	"strings"
	"testing"

	"sealdb/internal/invariant"
)

// lockHierarchy is the declared lock order of the profiled sites: a site
// may be held while acquiring any site it lists, and through those any
// site they list. lsm_db_mu is outermost; a manifest edit under
// version_set_mu may reach into storage; the storage write lock may take
// the backend lock and, through the storage.Allocator interface, the
// dband manager's. lsm_commit_queue_mu, storage_backend_mu,
// dband_manager_mu, server_mu and sealclient_conn_mu nest nothing.
var lockHierarchy = map[string][]string{
	"lsm_db_mu":        {"version_set_mu", "dband_manager_mu", "storage_write_mu", "storage_backend_mu", "lsm_commit_queue_mu"},
	"version_set_mu":   {"storage_write_mu", "storage_backend_mu"},
	"storage_write_mu": {"storage_backend_mu", "dband_manager_mu"},
}

// declaredOrder reports whether the hierarchy lets held be held while
// acquiring next.
func declaredOrder(held, next string) bool {
	for _, s := range lockHierarchy[held] {
		if s == next || declaredOrder(s, next) {
			return true
		}
	}
	return false
}

// TestObservedLockOrderIsDeclared runs a store with a value log through
// puts, flushes, compactions and a vlog GC pass, and a SEALDB store
// through churn that drops sets, then holds every nesting the watchdog
// observed to the declared hierarchy: an undeclared nesting fails here
// on any path that ran.
func TestObservedLockOrderIsDeclared(t *testing.T) {
	invariant.ResetLockOrder()
	defer invariant.ResetLockOrder()
	d, err := Open(vlogConfig())
	if err != nil {
		t.Fatal(err)
	}
	loadRandom(t, d, 3000, 5) // the writer flushes and compacts
	loadVlogGarbage(t, d)     // FlushMemtable and CompactRange
	if vic, _, err := vlogGC(d); err != nil || vic == 0 {
		t.Fatalf("vlogGC = %d, %v; want a pass", vic, err)
	}
	if err := compactAll(d); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d, err = Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	loadRandom(t, d, 12000, 17) // churn: dead sets and fragments
	d.Close()

	edges := invariant.LockOrderEdges()
	if len(edges) == 0 {
		t.Fatal("the watchdog observed no nested acquisition")
	}
	for _, e := range edges {
		if !declaredOrder(e[0], e[1]) {
			t.Errorf("undeclared nesting: %s held while acquiring %s", e[0], e[1])
		}
	}
}

// TestWatchdogCatchesInvertedEngineLocks: the watchdog fails on real
// sites in real code. A Put takes lsm_commit_queue_mu under lsm_db_mu,
// so a FlushMemtable under the queue lock must panic before it blocks on
// lsm_db_mu, naming both sites.
func TestWatchdogCatchesInvertedEngineLocks(t *testing.T) {
	invariant.ResetLockOrder()
	defer invariant.ResetLockOrder()
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	got := func() (got any) {
		d.queueMu.Lock()
		defer d.queueMu.Unlock()
		defer func() { got = recover() }()
		return d.FlushMemtable()
	}()
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, "lock-order cycle") || !strings.Contains(msg, `"lsm_db_mu"`) || !strings.Contains(msg, `"lsm_commit_queue_mu"`) {
		t.Fatalf("FlushMemtable under lsm_commit_queue_mu returned %v; want a lock-order panic naming lsm_db_mu and lsm_commit_queue_mu", got)
	}
}
