//go:build sealdb_read_mutation

package lsm

import (
	"testing"

	"sealdb/internal/chaos/history"
)

// The planted bug: a read reads its state at the sequence number the
// state was published at, not the visible one, and so misses every
// commit since the last install or rotation.
func init() { readAtPublished = true }

// TestMutationStaleReadSeqIsCaught is the oracle's self-test: built
// under the sealdb_read_mutation tag, reads carry the bug above, and the
// checker must flag the history. If this test fails,
// TestConcurrentHistoryIsLinearizable is blind and its green runs mean
// nothing.
func TestMutationStaleReadSeqIsCaught(t *testing.T) {
	for _, arm := range linearArms() {
		t.Run(arm.name, func(t *testing.T) {
			v := history.CheckLinearizable(recordHistory(t, arm.cfg))
			if len(v) == 0 {
				t.Fatal("reads at the published sequence number went undetected")
			}
			t.Logf("checker caught the mutation: %d violations, first: %v", len(v), v[0])
		})
	}
}
