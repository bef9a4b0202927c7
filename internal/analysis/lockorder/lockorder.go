// Package lockorder builds a static lock-acquisition graph over the
// repo's named mutexes and checks every observed nested acquisition
// against the declared lock hierarchy.
//
// A lock participates when it has a name: an obs.Mutex struct field
// registered via m.Profile("site_name") anywhere in its package. The
// allowed hierarchy is declared in comments:
//
//	// lockorder: lsm_db_mu < version_set_mu
//
// meaning lsm_db_mu may be held while acquiring version_set_mu (and,
// transitively, anything declared below version_set_mu). Chains are
// allowed: "// lockorder: a < b < c". Declarations may live in any
// file; they are collected repo-wide.
//
// The analyzer interprets each function body with the lockflow walker
// to learn which sites are held at each acquisition and at each call,
// then propagates "may acquire" sets over the call graph so nested
// acquisitions through helpers are seen from the outermost holder.
// Calls that cross an interface (allocator hooks, io.Writer wal
// plumbing) are opaque to the call graph; annotate the callee —
// concrete or interface method alike — with
//
//	// lockorder: acquires storage_backend_mu
//
// and the analyzer treats every call to it as potentially acquiring
// that site.
//
// Diagnostics, both suppressible per-line with //sealvet:lockorder
// (reviewed exception) or //sealvet:allow lockorder:
//
//   - lock-order inversion: b acquired while a held when the declared
//     hierarchy (transitively) orders b before a — with the runtime
//     watchdog, the static half of deadlock prevention;
//   - undeclared nested acquisition: b acquired while a held with no
//     declared path a < b — new nesting must extend the hierarchy
//     explicitly, not grow by accident;
//   - cyclic declarations: the declared graph itself must be a DAG.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"sealdb/internal/analysis"
	"sealdb/internal/analysis/lockflow"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "nested acquisitions of named (obs-profiled) mutexes must follow the declared " +
		"'// lockorder: a < b' hierarchy: inversions and undeclared nestings are flagged; " +
		"annotate opaque callees with '// lockorder: acquires <site>'; escape with //sealvet:lockorder",
	NewSession: func() any { return newSession() },
	Run:        run,
	Finish:     finish,
}

// declRe is anchored so an indented example inside another comment
// ("//\t// lockorder: ...", as in this package's doc) is not itself a
// declaration.
var declRe = regexp.MustCompile(`^//\s*lockorder:\s*(.+)$`)

// declEdge is one declared "a < b" pair.
type declEdge struct {
	from, to string
	pos      token.Pos
	pass     *analysis.Pass
}

// acqEvent is one observed acquisition of a site with other sites held.
type acqEvent struct {
	held []string
	site string
	pos  token.Pos
	pass *analysis.Pass
}

// heldCall is a call made with sites held; resolved against the
// callee's may-acquire set in Finish.
type heldCall struct {
	held   []string
	callee string // types.Func.FullName
	pos    token.Pos
	pass   *analysis.Pass
}

type session struct {
	declared  []declEdge
	events    []acqEvent
	heldCalls []heldCall
	seeds     map[string]map[string]bool // func -> sites it may directly acquire
	calls     map[string]map[string]bool // func -> callees (by FullName)
}

func newSession() *session {
	return &session{
		seeds: map[string]map[string]bool{},
		calls: map[string]map[string]bool{},
	}
}

func run(pass *analysis.Pass) error {
	s, ok := pass.Session.(*session)
	if !ok {
		return fmt.Errorf("lockorder requires a session (run via analysis.Run)")
	}

	sites := profiledFields(pass)
	collectDeclarations(pass, s)
	collectAcquiresAnnotations(pass, s)

	classify := func(call *ast.CallExpr) (string, lockflow.Op) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", lockflow.None
		}
		var op lockflow.Op
		switch sel.Sel.Name {
		case "Lock":
			op = lockflow.Acquire
		case "Unlock":
			op = lockflow.Release
		default:
			return "", lockflow.None
		}
		site := siteOf(pass, sites, sel.X)
		if site == "" {
			return "", lockflow.None
		}
		return site, op
	}

	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			fnObj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			var fnKey string
			if fnObj != nil {
				fnKey = fnObj.FullName()
			}
			walkFunc(pass, s, fn.Body, fnKey, classify)
		}
	}
	return nil
}

// walkFunc interprets one body. fnKey attributes direct acquisitions
// and outgoing calls to the function for the may-acquire fixpoint;
// a "go" body gets an empty key (its acquisitions happen on another
// goroutine, so they are ordered against nothing the caller holds and
// do not become the caller's obligations).
func walkFunc(pass *analysis.Pass, s *session, body *ast.BlockStmt, fnKey string, classify func(*ast.CallExpr) (string, lockflow.Op)) {
	hooks := lockflow.Hooks{
		Classify: classify,
		Acquire: func(site string, op lockflow.Op, pos token.Pos, held map[string]lockflow.Mode) {
			if fnKey != "" {
				addSet(s.seeds, fnKey, site)
			}
			if len(held) == 0 {
				return
			}
			s.events = append(s.events, acqEvent{held: heldNames(held, site), site: site, pos: pos, pass: pass})
		},
		Visit: func(n ast.Node, held map[string]lockflow.Mode) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := calleeOf(pass.TypesInfo, call)
			if callee == nil {
				return
			}
			key := callee.FullName()
			if fnKey != "" {
				addSet(s.calls, fnKey, key)
			}
			if len(held) > 0 {
				s.heldCalls = append(s.heldCalls, heldCall{held: heldNames(held, ""), callee: key, pos: call.Pos(), pass: pass})
			}
		},
	}
	hooks.GoBody = func(b *ast.BlockStmt) {
		walkFunc(pass, s, b, "", classify)
	}
	lockflow.Walk(body, nil, hooks)
}

func finish(sessionAny any) {
	s, ok := sessionAny.(*session)
	if !ok {
		return
	}

	// Declared order: transitive closure over the "a < b" DAG, with a
	// cycle check first — a cyclic declaration would make the closure
	// excuse anything on the cycle.
	below := closure(s.declared)
	if cyc := declaredCycle(s.declared); cyc != nil {
		cyc.pass.Reportf(cyc.pos, "lock-order declarations form a cycle through %s < %s", cyc.from, cyc.to)
	}

	// May-acquire fixpoint over the call graph.
	may := mayAcquire(s.seeds, s.calls)

	// Expand held calls into acquisition events through the callee's
	// may-acquire set.
	events := s.events
	for _, hc := range s.heldCalls {
		for site := range may[hc.callee] {
			events = append(events, acqEvent{held: hc.held, site: site, pos: hc.pos, pass: hc.pass})
		}
	}

	type edgeKey struct {
		held, site string
		pos        token.Pos
	}
	seen := map[edgeKey]bool{}
	for _, ev := range events {
		for _, h := range ev.held {
			if h == ev.site {
				// One site name can cover several mutex instances
				// (per-band, per-file); a self-edge is not provably a
				// self-deadlock statically.
				continue
			}
			k := edgeKey{h, ev.site, ev.pos}
			if seen[k] {
				continue
			}
			seen[k] = true
			if below[h][ev.site] {
				continue // declared, in order
			}
			if ev.pass.MarkedAt(ev.pos, "lockorder") {
				continue // reviewed exception
			}
			if below[ev.site][h] {
				ev.pass.Reportf(ev.pos,
					"lock-order inversion: %s acquired while %s held, but the declared hierarchy orders %s < %s",
					ev.site, h, ev.site, h)
			} else {
				ev.pass.Reportf(ev.pos,
					"undeclared nested lock acquisition: %s acquired while %s held; declare '// lockorder: %s < %s' if this nesting is intended",
					ev.site, h, h, ev.site)
			}
		}
	}
}

// profiledFields maps obs wrapper struct fields to their registered
// site names by finding every field.Profile("name") call in the
// package.
func profiledFields(pass *analysis.Pass) map[*types.Var]string {
	sites := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Profile" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			recv, ok := sel.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pass.TypesInfo.Selections[recv]
			if selection == nil || selection.Kind() != types.FieldVal {
				return true
			}
			field, ok := selection.Obj().(*types.Var)
			if !ok || !isObsLock(field.Type()) {
				return true
			}
			name := strings.Trim(lit.Value, `"`)
			if _, dup := sites[field]; !dup && name != "" {
				sites[field] = name
			}
			return true
		})
	}
	return sites
}

// siteOf resolves a lock-method receiver expression to its site name.
func siteOf(pass *analysis.Pass, sites map[*types.Var]string, recv ast.Expr) string {
	sel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return ""
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return ""
	}
	return sites[field]
}

// isObsLock reports whether t is obs.Mutex.
func isObsLock(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
		return false
	}
	return obj.Name() == "Mutex"
}

// collectDeclarations parses "// lockorder: a < b [< c ...]" comments.
func collectDeclarations(pass *analysis.Pass, s *session) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := declRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				body := stripTrailingComment(m[1])
				if strings.HasPrefix(strings.TrimSpace(body), "acquires") {
					continue
				}
				parts := strings.Split(body, "<")
				if len(parts) < 2 {
					continue
				}
				for i := 0; i+1 < len(parts); i++ {
					from, to := strings.TrimSpace(parts[i]), strings.TrimSpace(parts[i+1])
					if from == "" || to == "" {
						continue
					}
					s.declared = append(s.declared, declEdge{from: from, to: to, pos: c.Pos(), pass: pass})
				}
			}
		}
	}
}

// collectAcquiresAnnotations parses "// lockorder: acquires <site>"
// doc comments on function declarations and on interface methods,
// seeding the may-acquire set of callees whose bodies the call-graph
// walk cannot see (interface dispatch, io plumbing).
func collectAcquiresAnnotations(pass *analysis.Pass, s *session) {
	record := func(obj types.Object, doc *ast.CommentGroup) {
		fn, ok := obj.(*types.Func)
		if !ok || doc == nil {
			return
		}
		for _, c := range doc.List {
			m := declRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			rest, ok := strings.CutPrefix(strings.TrimSpace(stripTrailingComment(m[1])), "acquires")
			if !ok {
				continue
			}
			for _, site := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' }) {
				addSet(s.seeds, fn.FullName(), site)
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				record(pass.TypesInfo.Defs[fd.Name], fd.Doc)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, field := range it.Methods.List {
				for _, name := range field.Names {
					record(pass.TypesInfo.Defs[name], field.Doc)
				}
			}
			return true
		})
	}
}

// mayAcquire propagates seed sites over the call graph to a fixpoint:
// a function may acquire every site it acquires directly (or is
// annotated as acquiring) plus everything its callees may acquire.
func mayAcquire(seeds, calls map[string]map[string]bool) map[string]map[string]bool {
	may := map[string]map[string]bool{}
	for fn, sites := range seeds {
		may[fn] = map[string]bool{}
		for site := range sites {
			may[fn][site] = true
		}
	}
	// Reverse edges: when a callee's set grows, its callers need
	// revisiting.
	callers := map[string][]string{}
	for fn, callees := range calls {
		for callee := range callees {
			callers[callee] = append(callers[callee], fn)
		}
	}
	work := make([]string, 0, len(may))
	for fn := range may {
		work = append(work, fn)
	}
	sort.Strings(work)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[fn] {
			grew := false
			for site := range may[fn] {
				if may[caller] == nil {
					may[caller] = map[string]bool{}
				}
				if !may[caller][site] {
					may[caller][site] = true
					grew = true
				}
			}
			if grew {
				work = append(work, caller)
			}
		}
	}
	return may
}

// closure computes, for each site, the set of sites declared
// (transitively) below it.
func closure(declared []declEdge) map[string]map[string]bool {
	adj := map[string]map[string]bool{}
	for _, e := range declared {
		addSet(adj, e.from, e.to)
	}
	out := map[string]map[string]bool{}
	for site := range adj {
		reach := map[string]bool{}
		stack := []string{site}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for next := range adj[cur] {
				if !reach[next] {
					reach[next] = true
					stack = append(stack, next)
				}
			}
		}
		out[site] = reach
	}
	return out
}

// declaredCycle returns a declared edge that closes a cycle, or nil.
func declaredCycle(declared []declEdge) *declEdge {
	below := closure(declared)
	for i := range declared {
		e := &declared[i]
		if below[e.to][e.from] || e.from == e.to {
			return e
		}
	}
	return nil
}

func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// heldNames flattens a held map to a sorted name list, excluding the
// site being acquired (reacquiring a held site is the watchdog's
// concern, not an ordering edge).
func heldNames(held map[string]lockflow.Mode, exclude string) []string {
	out := make([]string, 0, len(held))
	for name := range held {
		if name != exclude {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// stripTrailingComment cuts a nested "//" so fixture lines can carry
// want markers after a declaration.
func stripTrailingComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		return s[:i]
	}
	return s
}

func addSet(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = map[string]bool{}
	}
	m[k][v] = true
}
