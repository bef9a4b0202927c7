//go:build sealdb_invariants && (amd64 || arm64)

package invariant

// getg returns the calling goroutine's runtime g pointer, a key that
// stays unique while the goroutine lives (getg_amd64.s, getg_arm64.s).
func getg() uintptr
