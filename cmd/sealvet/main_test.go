package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// chdirBack restores the working directory after run() chdirs to the
// module root.
func chdirBack(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestExitCodeAndSummaryOnFindings pins the contract CI depends on: a
// sweep with findings exits 1, prints each finding, and ends with the
// "N diagnostics from M analyzers" summary. The guardedby fixture is
// a package full of intentional violations.
func TestExitCodeAndSummaryOnFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	chdirBack(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "guardedby", "./internal/analysis/guardedby/testdata/src/guarded"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has intentional violations)\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[guardedby]") {
		t.Errorf("stdout lacks guardedby findings:\n%s", stdout.String())
	}
	sum := stderr.String()
	if !strings.Contains(sum, "diagnostics from 1 analyzers") {
		t.Errorf("stderr lacks summary line: %q", sum)
	}
}

// TestExitCodeZeroOnCleanPackage checks a clean target exits 0 and
// still prints the summary.
func TestExitCodeZeroOnCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	chdirBack(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-only", "guardedby", "./internal/kv"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "0 diagnostics from 1 analyzers") {
		t.Errorf("stderr lacks clean summary: %q", stderr.String())
	}
}

// TestListPrintsEveryAnalyzer checks -list names the full suite.
func TestListPrintsEveryAnalyzer(t *testing.T) {
	chdirBack(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"errpath", "extentpair", "guardedby", "noclock", "obsreg"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output lacks %q:\n%s", name, stdout.String())
		}
	}
}

// TestUnknownAnalyzerFails checks -only with a bogus name is an error.
func TestUnknownAnalyzerFails(t *testing.T) {
	chdirBack(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nonesuch"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), fmt.Sprintf("unknown analyzer %q", "nonesuch")) {
		t.Errorf("stderr = %q, want unknown-analyzer error", stderr.String())
	}
}
