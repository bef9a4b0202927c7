//go:build !sealdb_invariants

package invariant

// The lock-order watchdog compiles away in default builds; the obs
// lock wrappers and the watchdog's tests gate their calls on Enabled,
// so these stubs are never reached (they exist so those callers compile).

// LockAcquired does nothing in default builds.
func LockAcquired(string) {}

// LockReleased does nothing in default builds.
func LockReleased(string) {}

// LockOrderEdges returns nil in default builds.
func LockOrderEdges() [][2]string { return nil }

// ResetLockOrder does nothing in default builds.
func ResetLockOrder() {}
