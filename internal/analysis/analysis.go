// Package analysis is SEALDB's static-analysis substrate: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis surface (Analyzer, Pass, Diagnostic) plus a package
// loader built on go/parser and go/types with the standard library's
// source importer. It exists because the contracts the engine depends
// on — simulated-time determinism, lock discipline, exact extent
// accounting — are cheap to state mechanically but expensive to
// police by review.
//
// The API deliberately mirrors go/analysis so the analyzers under
// this directory can migrate to the upstream framework verbatim if
// the x/tools dependency ever becomes available; only the loader and
// the test harness would be deleted.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// Analyzer describes one named check. Run is invoked once per loaded
// package with a fully type-checked Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sealvet:allow suppression comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// NewSession, when non-nil, is called once per checker run (not
	// per package) and its result is visible to every Pass through
	// Pass.Session. Analyzers use it for cross-package state such as
	// repo-wide uniqueness sets.
	NewSession func() any
	// Run performs the check, reporting findings via Pass.Report.
	Run func(*Pass) error
}

// Pass carries one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Session is the value built by Analyzer.NewSession for this
	// checker run (nil when the analyzer declares no session).
	Session any

	testFiles  map[*ast.File]bool
	directives map[string][]directive // file name -> sealvet directives
	report     func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// IsTestFile reports whether f is an in-package _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// Reportf reports a finding at pos unless a //sealvet:allow comment
// naming this analyzer covers the position's line (same line or the
// line above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.directiveAt(pos, "allow", p.Analyzer.Name) {
		return
	}
	p.report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// directive is a parsed //sealvet: comment.
type directive struct {
	line int      // source line the directive applies to
	verb string   // "allow", "transfer", ...
	args []string // comma-separated arguments, e.g. analyzer names
}

var directiveRe = regexp.MustCompile(`//\s*sealvet:(\w+)\s*([\w,\- ]*)`)

// collectDirectives indexes every //sealvet: comment in f. A
// directive applies to the line it sits on (trailing comment) and to
// the line immediately below (comment-above form).
func collectDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := directiveRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			var args []string
			for _, a := range strings.FieldsFunc(m[2], func(r rune) bool { return r == ',' || r == ' ' }) {
				args = append(args, strings.TrimSpace(a))
			}
			out = append(out, directive{line: fset.Position(c.Pos()).Line, verb: m[1], args: args})
		}
	}
	return out
}

// MarkedAt reports whether a //sealvet:<verb> directive (with no
// argument filtering) covers pos — e.g. the ownership-transfer
// marker //sealvet:transfer used by the extentpair analyzer.
func (p *Pass) MarkedAt(pos token.Pos, verb string) bool {
	return p.directiveAt(pos, verb, "")
}

func (p *Pass) directiveAt(pos token.Pos, verb, arg string) bool {
	position := p.Fset.Position(pos)
	for _, d := range p.directives[position.Filename] {
		if d.verb != verb {
			continue
		}
		if d.line != position.Line && d.line != position.Line-1 {
			continue
		}
		if arg == "" || len(d.args) == 0 {
			return true
		}
		for _, a := range d.args {
			if a == arg || a == "all" {
				return true
			}
		}
	}
	return false
}

// PkgShortName returns the final path element of a package path —
// the name analyzers scope themselves by ("sealdb/internal/smr" and
// a fixture package "smr" both map to "smr").
func PkgShortName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Finding is a positioned diagnostic as emitted by Run.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package and returns the merged
// findings sorted by position. Cross-package sessions are created
// once per call, so repo-wide checks (obsreg uniqueness) see the
// packages in the order given — callers should pass them sorted for
// deterministic duplicate attribution.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	sessions := make(map[*Analyzer]any, len(analyzers))
	for _, a := range analyzers {
		if a.NewSession != nil {
			sessions[a] = a.NewSession()
		}
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Pkg,
				TypesInfo:  pkg.Info,
				Session:    sessions[a],
				testFiles:  pkg.TestFile,
				directives: pkg.directives,
			}
			pass.report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: d.Category,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				findings = append(findings, Finding{
					Pos:      token.Position{Filename: pkg.Dir},
					Analyzer: a.Name,
					Message:  fmt.Sprintf("analyzer error: %v", err),
				})
			}
		}
	}
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Analyzer, b.Analyzer))
	})
	return findings
}
