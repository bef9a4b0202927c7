// Package obsreg enforces the observability naming contract: a metric
// name is a string literal, so grep finds every one, is bound at exactly
// one site across the whole repo and follows the prometheus-style
// [a-z0-9_] format. A name is bound by
// passing it to a Registry constructor (Counter, Histogram, GaugeFunc)
// or by writing it, as a literal "sealdb_…" key, into a
// map[string]float64 — a snapshot's gauge set, which the engine's one
// collection pass fills. The registry is get-or-create and a map write
// overwrites, so a duplicated literal does not fail at runtime — it
// silently aliases two sites onto one metric, which is precisely why
// the check has to be static and repo-wide.
package obsreg

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"sealdb/internal/analysis"
)

// Analyzer is the obsreg check. Its session spans every package in a
// checker run, so duplicates are caught across package boundaries.
var Analyzer = &analysis.Analyzer{
	Name: "obsreg",
	Doc: "metric names passed to the obs registry must be string literals; those " +
		"literals and the ones written into a gauge set must be unique across the " +
		"repo, bound at one site, and match ^[a-z][a-z0-9_]*$; counter names must " +
		"additionally end in _total",
	NewSession: func() any { return &session{seen: map[string]token.Position{}} },
	Run:        run,
}

type session struct {
	seen map[string]token.Position // metric name -> first registration site
}

// registryMethods are the Registry constructors that bind a name.
var registryMethods = map[string]bool{
	"Counter":   true,
	"Histogram": true,
	"GaugeFunc": true,
}

var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func run(pass *analysis.Pass) error {
	sess, _ := pass.Session.(*session)
	if sess == nil {
		sess = &session{seen: map[string]token.Position{}}
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if len(n.Args) == 0 {
					return true
				}
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !registryMethods[sel.Sel.Name] || !isRegistry(pass, sel.X) {
					return true
				}
				sess.bind(pass, n.Args[0], sel.Sel.Name == "Counter")
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if ix, ok := lhs.(*ast.IndexExpr); ok && isGaugeWrite(pass, ix) {
						sess.bind(pass, ix.Index, false)
					}
				}
			}
			return true
		})
	}
	return nil
}

// bind checks one name expression and records its site; a name that
// is not a string literal is a finding, as grep could not find it.
func (sess *session) bind(pass *analysis.Pass, expr ast.Expr, counter bool) {
	lit, ok := expr.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		pass.Reportf(expr.Pos(), "metric name is not a string literal")
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !nameRe.MatchString(name) {
		pass.Reportf(lit.Pos(), "metric name %q does not match ^[a-z][a-z0-9_]*$", name)
		return
	}
	// Monotonic series carry the prometheus counter suffix, so
	// dashboards can tell counters from gauges by name alone.
	if counter && !strings.HasSuffix(name, "_total") {
		pass.Reportf(lit.Pos(), "counter name %q must end in _total", name)
		return
	}
	if first, dup := sess.seen[name]; dup {
		pass.Reportf(lit.Pos(),
			"metric %q already registered at %s:%d; registry names must have exactly one call site",
			name, first.Filename, first.Line)
		return
	}
	sess.seen[name] = pass.Fset.Position(lit.Pos())
}

// isGaugeWrite reports whether ix indexes a map[string]float64, the
// type of a snapshot's gauges, with a literal in the metric namespace;
// other float maps (a benchmark's "lsm.flushes" ledger) are not metrics.
func isGaugeWrite(pass *analysis.Pass, ix *ast.IndexExpr) bool {
	lit, ok := ix.Index.(*ast.BasicLit)
	t := pass.TypesInfo.TypeOf(ix.X)
	if !ok || t == nil || !strings.HasPrefix(lit.Value, `"sealdb_`) {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	k, kok := m.Key().(*types.Basic)
	v, vok := m.Elem().(*types.Basic)
	return kok && vok && k.Kind() == types.String && v.Kind() == types.Float64
}

// isRegistry reports whether expr's type is (a pointer to) a named
// type called Registry — the obs registry in the real tree, or a
// fixture stand-in.
func isRegistry(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	t := types.Unalias(tv.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}
