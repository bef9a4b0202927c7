// Package errpath forbids discarded errors on the device write/sync
// paths of the smr, wal, and storage packages, and on the network
// write paths of the wire and server packages. A swallowed write
// error on the device side silently corrupts the durability story the
// crash-replay suite depends on: the engine believes bytes are on the
// platter that never landed. On the serving side the stakes are the
// same one layer up: a dropped WriteFrame error acknowledges a
// request the client never hears about, or leaks a connection whose
// writer died. Both discard forms are caught — the bare call
// statement and an assignment with the blank identifier in the error
// position.
package errpath

import (
	"go/ast"
	"go/types"
	"strings"

	"sealdb/internal/analysis"
)

// Analyzer is the errpath check.
var Analyzer = &analysis.Analyzer{
	Name: "errpath",
	Doc: "no discarded errors (bare call or blank-identifier assignment) from " +
		"write/sync/flush/free calls in the smr, wal, storage, wire, and server packages",
	Run: run,
}

// scoped lists the checked packages by final path element. Scope
// decisions for the serving layer (PR 4): wire and server are in —
// their Write* calls carry acknowledgements, and a discarded error
// there breaks the at-most-once ack contract the client relies on.
// sealclient is out: its writes are covered by the waiter mechanism
// (any send failure kills the connection and fails every pending
// request), so per-call discards cannot lose an outcome. The server
// stays OUT of noclock's simulated-time scope — deadlines, drain
// timeouts, and latency series are real wall-clock concerns; see the
// noclock analyzer's scope comment.
var scoped = map[string]bool{
	"smr":     true,
	"wal":     true,
	"storage": true,
	"wire":    true,
	"server":  true,
}

// verbPrefixes name the device-mutating calls whose errors are
// load-bearing.
var verbPrefixes = []string{
	"Write", "write", "Sync", "sync", "Flush", "flush",
	"Emit", "emit", "Append", "append", "AddRecord", "Free", "Reset",
}

func run(pass *analysis.Pass) error {
	if !scoped[analysis.PkgShortName(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					checkBareCall(pass, call)
				}
			case *ast.DeferStmt:
				checkBareCall(pass, stmt.Call)
			case *ast.GoStmt:
				checkBareCall(pass, stmt.Call)
			case *ast.AssignStmt:
				checkAssign(pass, stmt)
			}
			return true
		})
	}
	return nil
}

// checkBareCall flags a statement-position device call whose error
// result is implicitly discarded.
func checkBareCall(pass *analysis.Pass, call *ast.CallExpr) {
	name, ok := deviceVerb(call)
	if !ok {
		return
	}
	if pos := errResultIndex(pass, call); pos >= 0 {
		pass.Reportf(call.Pos(),
			"error from %s discarded on device write/sync path (bare call)", name)
	}
}

// checkAssign flags assignments that discard a device call's error
// through the blank identifier.
func checkAssign(pass *analysis.Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := deviceVerb(call)
	if !ok {
		return
	}
	errIdx := errResultIndex(pass, call)
	if errIdx < 0 || errIdx >= len(assign.Lhs) {
		return
	}
	if id, ok := assign.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(assign.Pos(),
			"error from %s discarded on device write/sync path (assigned to _)", name)
	}
}

// deviceVerb reports whether the call's callee name matches the
// device-mutating verb set.
func deviceVerb(call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", false
	}
	for _, p := range verbPrefixes {
		if strings.HasPrefix(name, p) {
			return name, true
		}
	}
	return "", false
}

// errResultIndex returns the index of the error result in the call's
// result tuple, or -1 if the call returns no error.
func errResultIndex(pass *analysis.Pass, call *ast.CallExpr) int {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return -1
	}
	isErr := func(t types.Type) bool {
		named, ok := types.Unalias(t).(*types.Named)
		return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErr(t.At(i).Type()) {
				return i
			}
		}
		return -1
	default:
		if isErr(t) {
			return 0
		}
		return -1
	}
}
