//go:build !race

package kv

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation counts are unreliable there.
const raceEnabled = false
