package obs

import (
	"strings"
	"testing"

	"sealdb/internal/invariant"
)

// TestWatchdogCatchesInvertedAcquisition drives the runtime
// lock-order watchdog through the real obs wrappers: after observing
// outer -> inner once, acquiring in the inverted order must panic
// before blocking. Only meaningful in -tags sealdb_invariants builds.
func TestWatchdogCatchesInvertedAcquisition(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("watchdog requires -tags sealdb_invariants")
	}
	invariant.ResetLockOrder()
	defer invariant.ResetLockOrder()

	var outer, inner Mutex
	outer.Profile("test_wd_outer_mu")
	inner.Profile("test_wd_inner_mu")

	outer.Lock()
	inner.Lock()
	inner.Unlock()
	outer.Unlock()

	edges := invariant.LockOrderEdges()
	if len(edges) != 1 || edges[0] != [2]string{"test_wd_outer_mu", "test_wd_inner_mu"} {
		t.Fatalf("edges = %v, want the single outer->inner edge", edges)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("inverted acquisition did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lock-order cycle") {
			t.Fatalf("panic = %v, want a lock-order cycle report", r)
		}
		inner.Unlock()
	}()
	inner.Lock()
	outer.Lock() // inversion: watchdog must panic here, pre-block
}
