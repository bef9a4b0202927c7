// Package backtick carries a raw-string want whose message is wrong
// but whose double-quoted part ("lid") the diagnostic does contain.
// The pattern is the whole raw string, so the harness must report both
// the unmatched want and the diagnostic it did not expect.
package backtick

import "sync"

type jar struct {
	mu sync.Mutex
	// lid is guarded by mu.
	lid int
}

func wrongMessage(j *jar) int {
	return j.lid // want `field "lid" is a sync/atomic value`
}
