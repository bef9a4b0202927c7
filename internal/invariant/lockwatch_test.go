//go:build sealdb_invariants

package invariant

import (
	"strings"
	"testing"
)

// TestLockOrderEdgesRecorded checks that nested acquisitions build
// the observed edge graph and releases unwind the held stack.
func TestLockOrderEdgesRecorded(t *testing.T) {
	ResetLockOrder()
	defer ResetLockOrder()

	LockAcquired("wd_outer")
	LockAcquired("wd_inner")
	LockReleased("wd_inner")
	LockReleased("wd_outer")

	edges := LockOrderEdges()
	if len(edges) != 1 || edges[0] != [2]string{"wd_outer", "wd_inner"} {
		t.Fatalf("edges = %v, want [[wd_outer wd_inner]]", edges)
	}

	// With the stack unwound, acquiring in the same order again is
	// fine, and no new edges appear.
	LockAcquired("wd_outer")
	LockAcquired("wd_inner")
	LockReleased("wd_inner")
	LockReleased("wd_outer")
	if edges := LockOrderEdges(); len(edges) != 1 {
		t.Fatalf("edges after repeat = %v, want 1 edge", edges)
	}
}

// TestLockOrderCyclePanics checks the watchdog panics when an
// acquisition closes a cycle — the deliberately inverted acquisition
// the static analyzer would also reject.
func TestLockOrderCyclePanics(t *testing.T) {
	ResetLockOrder()
	defer ResetLockOrder()

	LockAcquired("wd_a")
	LockAcquired("wd_b") // observe wd_a -> wd_b
	LockReleased("wd_b")
	LockReleased("wd_a")

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("inverted acquisition did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "lock-order cycle") ||
			!strings.Contains(msg, `"wd_a"`) || !strings.Contains(msg, `"wd_b"`) {
			t.Fatalf("panic = %v, want lock-order cycle naming wd_a and wd_b", r)
		}
		LockReleased("wd_b") // unwind for other tests
	}()
	LockAcquired("wd_b")
	LockAcquired("wd_a") // closes the cycle: must panic before "blocking"
}

// TestLockOrderSelfEdgeAllowed checks that one site name held twice
// (two instances sharing a profile site) is not treated as a cycle.
func TestLockOrderSelfEdgeAllowed(t *testing.T) {
	ResetLockOrder()
	defer ResetLockOrder()

	LockAcquired("wd_shared")
	LockAcquired("wd_shared")
	LockReleased("wd_shared")
	LockReleased("wd_shared")
	if edges := LockOrderEdges(); len(edges) != 0 {
		t.Fatalf("self-nesting produced edges %v, want none", edges)
	}
}

// TestLockOrderOutOfOrderRelease checks hand-over-hand unwinding:
// releasing the outer lock first must drop the right stack entry.
func TestLockOrderOutOfOrderRelease(t *testing.T) {
	ResetLockOrder()
	defer ResetLockOrder()

	LockAcquired("wd_h1")
	LockAcquired("wd_h2")
	LockReleased("wd_h1") // out of order
	LockAcquired("wd_h3") // held: wd_h2 -> edge wd_h2 -> wd_h3 only
	LockReleased("wd_h3")
	LockReleased("wd_h2")

	edges := LockOrderEdges()
	want := [][2]string{{"wd_h1", "wd_h2"}, {"wd_h2", "wd_h3"}}
	if len(edges) != 2 || edges[0] != want[0] || edges[1] != want[1] {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
}

// TestLockOrderGoroutinesHoldApart checks that the watchdog keeps one
// held stack per goroutine: two goroutines each holding a different
// site at once record no edge between them, while one goroutine's own
// nesting still does.
func TestLockOrderGoroutinesHoldApart(t *testing.T) {
	ResetLockOrder()
	defer ResetLockOrder()

	holding, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		LockAcquired("wd_g1")
		close(holding)
		<-release
		LockReleased("wd_g1")
	}()
	<-holding
	LockAcquired("wd_g2") // wd_g1 is held, but by the other goroutine
	LockAcquired("wd_g3")
	LockReleased("wd_g3")
	LockReleased("wd_g2")
	close(release)
	<-done

	edges := LockOrderEdges()
	if len(edges) != 1 || edges[0] != [2]string{"wd_g2", "wd_g3"} {
		t.Fatalf("edges = %v, want only [[wd_g2 wd_g3]]", edges)
	}
}
