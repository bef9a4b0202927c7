//go:build !race

package server

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation accounting behaves differently there.
const raceEnabled = false
