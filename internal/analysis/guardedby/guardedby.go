// Package guardedby enforces the repo's lock-annotation convention:
// a struct field whose comment says "guarded by <mu>" may only be
// accessed while that mutex is held. The guard's type is irrelevant —
// matching is by receiver name, so sync.Mutex, sync.RWMutex, and the
// contention-profiled obs.Mutex wrapper all satisfy a guard through
// their Lock/RLock methods.
//
// v2 is flow-sensitive within a function (via the lockflow walker):
// the lock must actually be held *at* the access, so a read after an
// early Unlock, or on a defer-less return path that released the
// lock, is diagnosed even though the function "locks mu somewhere".
// It also distinguishes read from write holds: a write to a guarded
// field (assignment, compound assignment, ++/--, or assignment
// through an index/deref of the field) under only an RLock is
// diagnosed, since RWMutex read holds do not exclude other readers.
//
// A sync/atomic typed field (atomic.Int64, atomic.Pointer[T], ...) may
// not carry the annotation: the two disciplines promise different
// things, and code holding the mutex still races with the atomic
// writers. Such a field is diagnosed once, at its declaration.
//
// Escape hatches, in order of preference: a doc comment "Caller
// holds <mu>" (the function runs with the named locks held), the
// *Locked name suffix (every guard assumed held), and a
// //sealvet:allow guardedby directive on the access line.
package guardedby

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"sealdb/internal/analysis"
	"sealdb/internal/analysis/lockflow"
)

// Analyzer is the guardedby check.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "fields annotated '// guarded by <mu>' must be accessed with <mu> held at the access " +
		"(flow-sensitive: early unlocks count), and written only under the write lock; " +
		"a sync/atomic typed field may not carry the annotation; " +
		"escape via 'Caller holds <mu>' docs, the Locked name suffix, or //sealvet:allow",
	Run: run,
}

var annotationRe = regexp.MustCompile(`guarded by (\w+)`)
var callerHoldsRe = regexp.MustCompile(`(?i)caller(s)?\s+(holds?\b|must\s+hold)`)
var identRe = regexp.MustCompile(`(?:\w+\.)*(\w+)`)

func run(pass *analysis.Pass) error {
	// Pass 1: collect annotated field objects across the package.
	annotated := map[*types.Var]string{}
	guardNames := map[string]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := fieldAnnotation(field)
				if mu == "" {
					continue
				}
				guardNames[mu] = true
				for _, name := range field.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if isTypedAtomic(obj.Type()) {
						pass.Reportf(name.Pos(),
							"field %s is a sync/atomic value but is annotated 'guarded by %s'; use one discipline",
							obj.Name(), mu)
						continue
					}
					annotated[obj] = mu
				}
			}
			return true
		})
	}
	if len(annotated) == 0 {
		return nil
	}

	// Pass 2: interpret every function body.
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasSuffix(fn.Name.Name, "Locked") {
				continue
			}
			entry := map[string]lockflow.Mode{}
			if fn.Doc != nil && callerHoldsRe.MatchString(fn.Doc.Text()) {
				held := heldPerDoc(fn.Doc.Text(), guardNames)
				if len(held) == 0 {
					// The doc promises a caller-held lock the matcher
					// cannot name; fall back to v1's whole-function
					// exemption rather than guessing.
					continue
				}
				for _, mu := range held {
					entry[mu] = lockflow.W
				}
			}
			checkFunc(pass, fn, entry, annotated)
		}
	}
	return nil
}

// checkFunc walks one body with the lock-state interpreter, checking
// every guarded-field access against the locks held at that point.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, entry map[string]lockflow.Mode, annotated map[*types.Var]string) {
	locksSomewhere := lockedMutexes(fn.Body)
	reported := map[*types.Var]bool{} // one report per field per function

	check := func(sel *ast.SelectorExpr, write bool, held map[string]lockflow.Mode) {
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return
		}
		obj, ok := selection.Obj().(*types.Var)
		if !ok {
			return
		}
		mu, ok := annotated[obj]
		if !ok || reported[obj] {
			return
		}
		mode, heldNow := held[mu]
		switch {
		case !heldNow && !locksSomewhere[mu]:
			reported[obj] = true
			pass.Reportf(sel.Sel.Pos(),
				"field %s is guarded by %s, but %s neither locks %s nor is documented as holding it",
				obj.Name(), mu, fn.Name.Name, mu)
		case !heldNow:
			reported[obj] = true
			pass.Reportf(sel.Sel.Pos(),
				"field %s is guarded by %s, but %s is not held at this access (released earlier or not acquired on this path)",
				obj.Name(), mu, mu)
		case write && mode == lockflow.R:
			reported[obj] = true
			pass.Reportf(sel.Sel.Pos(),
				"field %s is guarded by %s, but this write holds only the read lock (RLock)",
				obj.Name(), mu)
		}
	}

	lockflow.Walk(fn.Body, entry, lockflow.Hooks{
		Classify: classify,
		Visit: func(n ast.Node, held map[string]lockflow.Mode) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel := baseSelector(lhs); sel != nil {
						check(sel, true, held)
					}
				}
			case *ast.IncDecStmt:
				if sel := baseSelector(n.X); sel != nil {
					check(sel, true, held)
				}
			case *ast.CallExpr:
				// The builtins delete and clear write the map they are given.
				id, _ := n.Fun.(*ast.Ident)
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
					if sel := baseSelector(n.Args[0]); sel != nil {
						check(sel, true, held)
					}
				}
			case *ast.SelectorExpr:
				check(n, false, held)
			}
		},
	})
}

// classify maps Lock/RLock/Unlock/RUnlock calls to lock operations on
// the receiver's final name (d.mu -> "mu"), matching v1's name-based
// guard resolution.
func classify(call *ast.CallExpr) (string, lockflow.Op) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", lockflow.None
	}
	var op lockflow.Op
	switch sel.Sel.Name {
	case "Lock":
		op = lockflow.Acquire
	case "RLock":
		op = lockflow.AcquireR
	case "Unlock":
		op = lockflow.Release
	case "RUnlock":
		op = lockflow.ReleaseR
	default:
		return "", lockflow.None
	}
	name := lastName(sel.X)
	if name == "" {
		return "", lockflow.None
	}
	return name, op
}

// heldPerDoc extracts the guard names a "Caller holds ..." doc
// mentions: every dotted identifier whose final component is a known
// guard name (so "Caller holds d.mu" resolves to "mu").
func heldPerDoc(doc string, guardNames map[string]bool) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range identRe.FindAllStringSubmatch(doc, -1) {
		if guardNames[m[1]] && !seen[m[1]] {
			seen[m[1]] = true
			out = append(out, m[1])
		}
	}
	return out
}

// baseSelector unwraps index, star, and paren layers from an
// assignment target down to the field selector being written
// (d.wp[i] -> d.wp, *d.ptr -> d.ptr).
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isTypedAtomic reports whether t is one of sync/atomic's types.
func isTypedAtomic(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// fieldAnnotation extracts the mutex name from a field's doc or
// trailing comment.
func fieldAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := annotationRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockedMutexes returns the set of mutex names on which the body
// calls Lock or RLock anywhere — used only to pick the clearer of the
// two "not held" messages.
func lockedMutexes(body *ast.BlockStmt) map[string]bool {
	held := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
			return true
		}
		if name := lastName(sel.X); name != "" {
			held[name] = true
		}
		return true
	})
	return held
}

// lastName returns the final identifier of a selector chain
// (d.mu -> "mu", mu -> "mu").
func lastName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.ParenExpr:
		return lastName(x.X)
	}
	return ""
}
