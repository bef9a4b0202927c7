package sealvet_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sealdb/internal/analysis"
	"sealdb/internal/analysis/sealvet"
)

// census plants one violation per rule in a copy of a real package: in
// file, the one occurrence of old becomes new, a change to one line.
var census = []struct {
	name, analyzer, pkg, file, old, new string
}{
	{"a retry waits on the wall clock", "noclock",
		"internal/smr", "retry.go",
		"d.note(func(s *RetryStats) { s.Retried++ })", "time.Sleep(time.Millisecond); d.note(func(s *RetryStats) { s.Retried++ })"},
	{"a snapshot writes the registry under RLock", "guardedby",
		"internal/obs", "obs.go",
		"funcs[n] = f", "r.gaugeFuncs[n] = f"},
	{"a typed atomic is annotated with a guard", "guardedby",
		"internal/lsm", "db.go",
		"closed      atomic.Bool // set once, under mu", "closed      atomic.Bool // guarded by mu"},
	{"a snapshot deletes from the registry under RLock", "guardedby",
		"internal/obs", "obs.go",
		"funcs[n] = f", "funcs[n] = f; delete(r.gaugeFuncs, n)"},
	{"a guard is allocated and discarded", "extentpair",
		"internal/storage", "storage.go",
		"ext, err := b.alloc.AllocAppend(maxSize + b.drive.Guard())",
		"ext, err := b.alloc.AllocAppend(maxSize + b.drive.Guard()); _, _ = b.alloc.Alloc(b.drive.Guard())"},
	{"a guard is reserved apart from its file and never freed", "extentpair",
		"internal/storage", "storage.go",
		"ext, err := b.alloc.AllocAppend(maxSize + b.drive.Guard())",
		"ext, err := b.alloc.AllocAppend(maxSize + b.drive.Guard()); guard, _ := b.alloc.Alloc(b.drive.Guard()); _ = guard"},
	{"a replaced file's drive free drops its error", "errpath",
		"internal/storage", "storage.go",
		"return b.drive.Free(old.ext.Off, old.ext.Len)", "b.drive.Free(old.ext.Off, old.ext.Len)"},
	{"a metric name is bound at a second site", "obsreg",
		"internal/lsm", "observability.go",
		`m.getHits = d.reg.Counter("sealdb_get_hits_total")`, `m.getHits = d.reg.Counter("sealdb_gets_total")`},
	{"a metric name is computed", "obsreg",
		"internal/lsm", "job.go",
		"d.metrics.flushes.Inc()", `d.reg.Counter(fmt.Sprintf("sealdb_flush_%s_total", "l0")).Inc()`},
}

// TestMutationCensus: every analyzer still fails on real code. Each case
// runs the whole suite over a copy of a real package, which must be
// clean, then over the copy with one violation planted, which must give
// exactly one finding: the case's analyzer, on the planted line.
func TestMutationCensus(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := analysis.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader()
	check := func(dir, importPath string) []analysis.Finding {
		t.Helper()
		pkg, err := loader.Load(dir, importPath, false)
		if err != nil {
			t.Fatal(err)
		}
		return analysis.Run([]*analysis.Package{pkg}, sealvet.Analyzers())
	}
	for _, c := range census {
		t.Run(c.analyzer+"/"+c.name, func(t *testing.T) {
			tmp := t.TempDir()
			src := filepath.Join(root, c.pkg)
			entries, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
					continue
				}
				data, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(tmp, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			importPath := modPath + "/" + c.pkg
			for _, f := range check(tmp, importPath) {
				t.Errorf("unplanted copy: %s", f)
			}

			path := filepath.Join(tmp, c.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			text := string(data)
			if n := strings.Count(text, c.old); n != 1 {
				t.Fatalf("%s holds %q %d times, want once", c.file, c.old, n)
			}
			if strings.Contains(c.new, "\n") {
				t.Fatalf("plant %q spans lines", c.new)
			}
			line := strings.Count(text[:strings.Index(text, c.old)], "\n") + 1
			if err := os.WriteFile(path, []byte(strings.Replace(text, c.old, c.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			findings := check(tmp, importPath)
			if len(findings) != 1 || findings[0].Analyzer != c.analyzer ||
				filepath.Base(findings[0].Pos.Filename) != c.file || findings[0].Pos.Line != line {
				t.Errorf("planted %s:%d, want one %s finding there; got %d:", c.file, line, c.analyzer, len(findings))
				for _, f := range findings {
					t.Errorf("  %s", f)
				}
			}
		})
	}
}
