package analysistest

import (
	"strings"
	"testing"

	"sealdb/internal/analysis/guardedby"
)

// TestMultiFileFixtureAllMatched checks the harness correlates
// diagnostics with want comments across every file of a fixture
// package — a fixture is not limited to one file, and expectations in
// later files must not be starved by findings in earlier ones.
func TestMultiFileFixtureAllMatched(t *testing.T) {
	mismatches, err := Check(guardedby.Analyzer, "testdata/src/multifile")
	if err != nil {
		t.Fatal(err)
	}
	if len(mismatches) != 0 {
		t.Errorf("multi-file fixture should match exactly, got %d mismatches:\n%s",
			len(mismatches), strings.Join(mismatches, "\n"))
	}
}

// TestUnmatchedWantFails checks both failure directions: a want
// comment nothing matched is reported, and so is a diagnostic no want
// comment expected. Without this, a fixture whose analyzer silently
// regressed would still pass.
func TestUnmatchedWantFails(t *testing.T) {
	mismatches, err := Check(guardedby.Analyzer, "testdata/src/unmatched")
	if err != nil {
		t.Fatal(err)
	}
	var stale, unexpected bool
	for _, m := range mismatches {
		if strings.Contains(m, "expected diagnostic matching") && strings.Contains(m, "stale want") {
			stale = true
		}
		if strings.Contains(m, "unexpected diagnostic") && strings.Contains(m, "guardedby") {
			unexpected = true
		}
	}
	if !stale {
		t.Errorf("unmatched want comment not reported; mismatches: %v", mismatches)
	}
	if !unexpected {
		t.Errorf("unexpected diagnostic not reported; mismatches: %v", mismatches)
	}
}

// TestBacktickWantIsWholePattern checks that a raw-string want is one
// pattern, as x/tools' analysistest reads it, and not the "…" quoted
// inside it: a wrong message whose quoted part the diagnostic happens
// to contain must still be reported.
func TestBacktickWantIsWholePattern(t *testing.T) {
	mismatches, err := Check(guardedby.Analyzer, "testdata/src/backtick")
	if err != nil {
		t.Fatal(err)
	}
	var stale, unexpected bool
	for _, m := range mismatches {
		if strings.Contains(m, "expected diagnostic matching") && strings.Contains(m, "sync/atomic value") {
			stale = true
		}
		if strings.Contains(m, "unexpected diagnostic") && strings.Contains(m, "field lid is guarded by mu") {
			unexpected = true
		}
	}
	if !stale || !unexpected {
		t.Errorf("wrong backtick want not reported (stale %v, unexpected %v); mismatches: %v", stale, unexpected, mismatches)
	}
}
