// Package lockflow is a small abstract interpreter over function
// bodies that tracks which named locks are held at each point, for the
// guardedby analyzer. It walks statements in evaluation order,
// maintaining a held-lock map that a classifier callback updates on
// Lock/RLock/Unlock/RUnlock calls, and it merges states across
// branches:
//
//   - an if/switch/select arm that terminates (return, break, panic)
//     contributes nothing to the post-branch state, so the ubiquitous
//     "if bad { mu.Unlock(); return }" early exit does not strip the
//     lock from the fallthrough path;
//   - arms that fall through are intersected (a lock is held after the
//     branch only if every surviving arm holds it, at the weakest mode
//     any arm holds it); a select, or a switch with a default, always
//     runs one arm, so the entry state is not among them;
//   - loop bodies may run zero times, so the post-loop state is the
//     entry state intersected with the body's exit state;
//   - "defer mu.Unlock()" (directly or inside a deferred closure)
//     pins the lock held to function exit;
//   - a "go func(){...}" body runs on a fresh goroutine and is walked
//     with an empty held set;
//   - other function literals are walked inline on a copy of the
//     current state, approximating the synchronous-callback case.
//
// The walker is deliberately an approximation: it has no aliasing, no
// inter-statement path conditions, and knows a lock only by the name
// the classifier gives it, so two mutexes of one name are one lock.
// Each rule above has a guardedby fixture case that fails without it.
package lockflow

import "go/ast"

// Mode is the strength of a held lock.
type Mode int

const (
	// R is a read (shared) hold.
	R Mode = iota + 1
	// W is a write (exclusive) hold.
	W
)

// Op classifies a call's effect on a lock.
type Op int

const (
	// None means the call is not a lock operation.
	None Op = iota
	// Acquire is an exclusive acquisition (Lock).
	Acquire
	// AcquireR is a shared acquisition (RLock).
	AcquireR
	// Release is an exclusive release (Unlock).
	Release
	// ReleaseR is a shared release (RUnlock).
	ReleaseR
)

// Hooks parameterizes one walk; both callbacks are required.
type Hooks struct {
	// Classify inspects a call expression and names the lock it
	// operates on ("" + None when it is not a lock operation).
	Classify func(call *ast.CallExpr) (name string, op Op)
	// Visit observes every node in approximate evaluation order with
	// the locks held at that point. The map is the walker's working
	// state: read it, do not retain or mutate it. Children of a
	// classified lock-operation call are not visited.
	Visit func(n ast.Node, held map[string]Mode)
}

// state is the abstract interpreter's working memory.
type state struct {
	held   map[string]Mode
	sticky map[string]bool // deferred releases: held to function exit
}

func newState(entry map[string]Mode) *state {
	st := &state{held: map[string]Mode{}, sticky: map[string]bool{}}
	for k, v := range entry {
		st.held[k] = v
	}
	return st
}

func (st *state) clone() *state {
	c := &state{held: make(map[string]Mode, len(st.held)), sticky: make(map[string]bool, len(st.sticky))}
	for k, v := range st.held {
		c.held[k] = v
	}
	for k := range st.sticky {
		c.sticky[k] = true
	}
	return c
}

// merge intersects two fallthrough states: a lock survives only if
// both paths hold it, at the weaker of the two modes. Sticky marks
// union (a defer executed on either path is armed for exit).
func merge(a, b *state) *state {
	out := &state{held: map[string]Mode{}, sticky: map[string]bool{}}
	for k, ma := range a.held {
		if mb, ok := b.held[k]; ok {
			m := ma
			if mb < m {
				m = mb
			}
			out.held[k] = m
		}
	}
	for k := range a.sticky {
		out.sticky[k] = true
	}
	for k := range b.sticky {
		out.sticky[k] = true
	}
	return out
}

// Walk interprets body with the given entry held set.
func Walk(body *ast.BlockStmt, entry map[string]Mode, h Hooks) {
	if body == nil {
		return
	}
	walkStmts(body.List, newState(entry), h)
}

// walkStmts runs a statement list, returning true if the list
// terminates abruptly (return, branch, panic) before its end.
func walkStmts(list []ast.Stmt, st *state, h Hooks) bool {
	for _, s := range list {
		if walkStmt(s, st, h) {
			return true
		}
	}
	return false
}

func walkStmt(s ast.Stmt, st *state, h Hooks) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			inspect(r, st, h)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto end linear flow within this list; the
		// enclosing construct's merge rules absorb the approximation.
		return true
	case *ast.ExprStmt:
		inspect(s.X, st, h)
		return isPanic(s.X)
	case *ast.BlockStmt:
		return walkStmts(s.List, st, h)
	case *ast.LabeledStmt:
		return walkStmt(s.Stmt, st, h)
	case *ast.IfStmt:
		return walkIf(s, st, h)
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(s.Init, st, h)
		}
		if s.Cond != nil {
			inspect(s.Cond, st, h)
		}
		body := st.clone()
		if !walkStmts(s.Body.List, body, h) && s.Post != nil {
			walkStmt(s.Post, body, h)
		}
		*st = *merge(st, body)
		return false
	case *ast.RangeStmt:
		inspect(s.X, st, h)
		body := st.clone()
		walkStmts(s.Body.List, body, h)
		*st = *merge(st, body)
		return false
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(s.Init, st, h)
		}
		if s.Tag != nil {
			inspect(s.Tag, st, h)
		}
		return walkClauses(s.Body, st, h, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			walkStmt(s.Init, st, h)
		}
		walkStmt(s.Assign, st, h)
		return walkClauses(s.Body, st, h, false)
	case *ast.SelectStmt:
		// A select always runs exactly one of its arms.
		return walkClauses(s.Body, st, h, true)
	case *ast.DeferStmt:
		walkDefer(s, st, h)
		return false
	case *ast.GoStmt:
		walkGo(s, st, h)
		return false
	default:
		// Assignments, declarations, sends, incs: evaluation order
		// within one simple statement does not matter for lock state.
		inspect(s, st, h)
		return false
	}
}

func walkIf(s *ast.IfStmt, st *state, h Hooks) bool {
	if s.Init != nil {
		walkStmt(s.Init, st, h)
	}
	inspect(s.Cond, st, h)
	then := st.clone()
	thenTerm := walkStmts(s.Body.List, then, h)
	if s.Else == nil {
		if !thenTerm {
			*st = *merge(st, then)
		}
		return false
	}
	els := st.clone()
	var elseTerm bool
	if blk, ok := s.Else.(*ast.BlockStmt); ok {
		elseTerm = walkStmts(blk.List, els, h)
	} else {
		elseTerm = walkStmt(s.Else, els, h)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		*st = *els
	case elseTerm:
		*st = *then
	default:
		*st = *merge(then, els)
	}
	return false
}

// walkClauses interprets a switch/select body. exhaustive marks a
// construct that always executes one arm (select); a switch is
// exhaustive only when it has a default clause.
func walkClauses(body *ast.BlockStmt, st *state, h Hooks, exhaustive bool) bool {
	var surviving []*state
	clauses := 0
	for _, cs := range body.List {
		clauses++
		var stmts []ast.Stmt
		cst := st.clone()
		switch cc := cs.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				exhaustive = true
			}
			for _, e := range cc.List {
				inspect(e, cst, h)
			}
			stmts = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				walkStmt(cc.Comm, cst, h)
			}
			stmts = cc.Body
		}
		if !walkStmts(stmts, cst, h) {
			surviving = append(surviving, cst)
		}
	}
	if clauses > 0 && exhaustive && len(surviving) == 0 {
		return true
	}
	if len(surviving) > 0 {
		acc := surviving[0]
		for _, s2 := range surviving[1:] {
			acc = merge(acc, s2)
		}
		if exhaustive {
			*st = *acc
		} else {
			*st = *merge(st, acc)
		}
	}
	return false
}

// walkDefer handles defer statements: a deferred release pins the
// lock held to function exit; a deferred closure is scanned for
// releases with the same effect and then walked on a copy of the
// current state so its own accesses are still checked.
func walkDefer(s *ast.DeferStmt, st *state, h Hooks) {
	if name, op := h.Classify(s.Call); op == Release || op == ReleaseR {
		if _, held := st.held[name]; held {
			st.sticky[name] = true
		}
		return
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, op := h.Classify(call); op == Release || op == ReleaseR {
				if _, held := st.held[name]; held {
					st.sticky[name] = true
				}
			}
			return true
		})
		walkStmts(lit.Body.List, st.clone(), h)
		for _, arg := range s.Call.Args {
			inspect(arg, st, h)
		}
		return
	}
	inspect(s.Call, st, h)
}

func walkGo(s *ast.GoStmt, st *state, h Hooks) {
	for _, arg := range s.Call.Args {
		inspect(arg, st, h)
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		walkStmts(lit.Body.List, newState(nil), h)
		return
	}
	inspect(s.Call.Fun, st, h)
}

// inspect visits an expression (or simple statement) subtree in
// pre-order, applying lock operations and visiting every other node
// with the current state. Function literals are interpreted on a copy
// of the current state (the synchronous-callback approximation).
func inspect(n ast.Node, st *state, h Hooks) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			walkStmts(n.Body.List, st.clone(), h)
			return false
		case *ast.CallExpr:
			if name, op := h.Classify(n); op != None {
				apply(name, op, st)
				for _, arg := range n.Args {
					inspect(arg, st, h)
				}
				return false
			}
		}
		h.Visit(n, st.held)
		return true
	})
}

func apply(name string, op Op, st *state) {
	switch op {
	case Acquire, AcquireR:
		mode := W
		if op == AcquireR {
			mode = R
		}
		if cur, ok := st.held[name]; !ok || mode > cur {
			st.held[name] = mode
		}
	case Release, ReleaseR:
		if !st.sticky[name] {
			delete(st.held, name)
		}
	}
}

// isPanic reports whether an expression statement unconditionally
// aborts the function: panic(...) or os.Exit(...).
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return x.Name == "os" && fn.Sel.Name == "Exit"
		}
	}
	return false
}
