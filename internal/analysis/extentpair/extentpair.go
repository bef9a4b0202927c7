// Package extentpair enforces the allocator ownership contract:
// every extent obtained from an Alloc/AllocAppend/Reserve
// call must, somewhere in the same function, be released (passed to
// a Free/Release-style call), committed (passed to a Commit/Apply/
// Install/Record-style call), returned to the caller, or stored into
// longer-lived state (a composite literal, field, or container) —
// otherwise the extent leaks the moment an early return fires. A
// function that moves ownership some other way documents it with a
// //sealvet:transfer directive on the allocation line.
//
// The check is function-local and flow-insensitive: it does not
// prove every return path frees the extent, it catches the stronger
// smell of a function that allocates and has no disposal story at
// all — the exact leak class PR 2 fixed by hand in the orphan sweep.
package extentpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sealdb/internal/analysis"
)

// Analyzer is the extentpair check.
var Analyzer = &analysis.Analyzer{
	Name: "extentpair",
	Doc: "every allocator Alloc/Reserve result must reach a Free, commit, or " +
		"ownership-transfer (return/store///sealvet:transfer) in the same function",
	Run: run,
}

// allocVerbs are the allocator entry points whose results carry
// ownership.
var allocVerbs = map[string]bool{
	"Alloc":       true,
	"AllocAppend": true,
	"Reserve":     true,
}

// consumingPrefixes name the calls that discharge ownership: frees,
// commits, and explicit hand-offs to tracking structures.
var consumingPrefixes = []string{
	"Free", "Release", "Commit", "Transfer", "Install",
	"Apply", "Add", "Record", "Reconcile", "Push", "Insert",
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// checkFunc finds allocations in fn and verifies each has a
// disposal story. An extent dropped where it is allocated — assigned
// to _ or left in a bare call statement — has none.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if stmt, ok := n.(*ast.ExprStmt); ok {
			if call, ok := stmt.X.(*ast.CallExpr); ok && extentResult(pass, call) >= 0 {
				pass.Reportf(stmt.Pos(), "extent from %s is dropped in %s", callName(call), fn.Name.Name)
			}
			return true
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || extentResult(pass, call) < 0 {
			return true
		}
		ident, ok := assign.Lhs[extentResult(pass, call)].(*ast.Ident)
		if !ok {
			return true
		}
		if ident.Name == "_" {
			pass.Reportf(assign.Pos(), "extent from %s is assigned to _ in %s", callName(call), fn.Name.Name)
			return true
		}
		obj := pass.TypesInfo.Defs[ident]
		if obj == nil {
			obj = pass.TypesInfo.Uses[ident]
		}
		if obj == nil {
			return true
		}
		if pass.MarkedAt(assign.Pos(), "transfer") {
			return true
		}
		if !consumed(pass, fn.Body, obj, assign) {
			pass.Reportf(assign.Pos(),
				"extent %s from %s is never freed, committed, returned, or stored in %s "+
					"(mark the allocation //sealvet:transfer if ownership moves another way)",
				ident.Name, callName(call), fn.Name.Name)
		}
		return true
	})
}

// extentResult returns the index of the Extent-typed result of call
// when call is an allocator verb, else -1.
func extentResult(pass *analysis.Pass, call *ast.CallExpr) int {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !allocVerbs[sel.Sel.Name] {
		return -1
	}
	// Single Extent result or an Extent in a result tuple.
	t := pass.TypesInfo.TypeOf(call)
	tuple, ok := t.(*types.Tuple)
	if !ok {
		tuple = types.NewTuple(types.NewVar(token.NoPos, nil, "", t))
	}
	for i := 0; i < tuple.Len(); i++ {
		if named, ok := tuple.At(i).Type().(*types.Named); ok && named.Obj().Name() == "Extent" {
			return i
		}
	}
	return -1
}

// consumed reports whether obj (the allocated extent variable) is
// discharged anywhere in body after — or lexically outside — the
// allocating statement alloc: returned, placed into a composite
// literal, stored into a field/index, or passed to a consuming call.
func consumed(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object, alloc *ast.AssignStmt) bool {
	found := false
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil || found {
			return
		}
		if id, ok := n.(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == obj && !within(alloc, id) && dischargedBy(pass, stack, id) {
				found = true
			}
			return
		}
		stack = append(stack, n)
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || found {
				return false
			}
			if c == n {
				return true
			}
			walk(c)
			return false
		})
		stack = stack[:len(stack)-1]
	}
	walk(body)
	return found
}

// within reports whether node id lies inside stmt's source range.
func within(stmt ast.Node, id ast.Node) bool {
	return id.Pos() >= stmt.Pos() && id.End() <= stmt.End()
}

// dischargedBy inspects the ancestor stack of an identifier use and
// decides whether that use discharges ownership.
func dischargedBy(pass *analysis.Pass, stack []ast.Node, id *ast.Ident) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			// The identifier (or an expression containing it, such as
			// e.Off or a converted form) is an argument to the call:
			// consuming verbs discharge, anything else (a WriteAt that
			// merely uses the extent) does not.
			if inArgs(anc, id) && isConsumingCall(anc) {
				return true
			}
		case *ast.AssignStmt:
			// A store into a field, index, or dereference keeps the
			// extent reachable beyond the function.
			for _, lhs := range anc.Lhs {
				switch lhs.(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if within(anc, id) {
						return true
					}
				}
			}
		}
	}
	return false
}

// inArgs reports whether id sits inside one of call's arguments
// (not its function expression).
func inArgs(call *ast.CallExpr, id *ast.Ident) bool {
	for _, arg := range call.Args {
		if within(arg, id) {
			return true
		}
	}
	return false
}

// isConsumingCall matches the Free/commit/transfer verb set.
func isConsumingCall(call *ast.CallExpr) bool {
	name := callName(call)
	for _, p := range consumingPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// callName returns the bare callee name of a call expression.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
