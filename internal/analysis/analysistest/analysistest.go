// Package analysistest runs an analyzer over a fixture package and
// checks its diagnostics against // want "regexp" comments, the same
// convention as golang.org/x/tools/go/analysis/analysistest. A want
// comment expects one diagnostic on its line per regexp, each a Go
// string literal: "…" is unquoted, `…` taken as it stands; lines
// without a want comment must produce no diagnostics, and every want
// must be matched — so each fixture doubles as a false-positive and a
// false-negative test.
package analysistest

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"sealdb/internal/analysis"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var patternRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"` + "|`[^`]*`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture package rooted at dir (conventionally
// testdata/src/<pkg>), applies the analyzer, and fails the test with
// one error per mismatch between its diagnostics and the fixture's
// want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	mismatches, err := Check(a, dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	for _, m := range mismatches {
		t.Error(m)
	}
}

// Check is the engine behind Run, exposed so the harness itself can
// be tested: it returns one message per mismatch — an unexpected
// diagnostic, or a want comment no diagnostic matched — and an error
// only when the fixture cannot be loaded or parsed at all. An empty
// slice means the analyzer and the fixture agree exactly.
func Check(a *analysis.Analyzer, dir string) ([]string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	loader := analysis.NewLoader()
	pkg, err := loader.Load(abs, filepath.Base(abs), true)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %v", dir, err)
	}

	expects, err := collectWants(abs)
	if err != nil {
		return nil, err
	}

	var mismatches []string
	findings := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		matched := false
		for _, e := range expects {
			if e.hit || e.file != base || e.line != f.Pos.Line {
				continue
			}
			if e.re.MatchString(f.Message) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			mismatches = append(mismatches,
				fmt.Sprintf("%s:%d: unexpected diagnostic: [%s] %s", base, f.Pos.Line, f.Analyzer, f.Message))
		}
	}
	for _, e := range expects {
		if !e.hit {
			mismatches = append(mismatches,
				fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re))
		}
	}
	return mismatches, nil
}

// collectWants parses every fixture file's comments for want
// expectations.
func collectWants(dir string) ([]*expectation, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go")) // in name order
	if err != nil {
		return nil, err
	}
	var out []*expectation
	fset := token.NewFileSet()
	for _, path := range paths {
		name := filepath.Base(path)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := fset.Position(c.Pos()).Line
				quotes := patternRe.FindAllString(m[1], -1)
				if len(quotes) == 0 {
					return nil, fmt.Errorf("%s:%d: malformed want comment %q", name, line, c.Text)
				}
				for _, q := range quotes {
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want literal %s: %v", name, line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %v", name, line, err)
					}
					out = append(out, &expectation{file: name, line: line, re: re})
				}
			}
		}
	}
	return out, nil
}
