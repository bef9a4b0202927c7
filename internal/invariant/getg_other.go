//go:build sealdb_invariants && !amd64 && !arm64

package invariant

import "runtime"

// stack is goidLocked's buffer; guarded by lw.mu.
var stack [64]byte

// getg names the calling goroutine by its id on architectures without
// a getg_*.s. Slow, but no other build reads it. Caller holds lw.mu.
func getg() uintptr { return uintptr(goidLocked()) }

// goidLocked extracts the current goroutine's id from the stack header
// ("goroutine 123 [running]: ..."), read into stack so that a lock
// acquisition allocates nothing. Caller holds lw.mu.
func goidLocked() int64 {
	n := runtime.Stack(stack[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range stack[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
