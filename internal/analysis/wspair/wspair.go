// Package wspair enforces the PR-1 pooling contract: every buffer taken
// from a compute.Workspace pool (ws.GetF64 / GetC128 / mat.GetDense and
// friends) is returned with the matching Put* on every path out of the
// acquiring function, unless ownership is
// explicitly transferred (the buffer is returned to the caller or stored
// into a longer-lived structure). A buffer that misses its Put on an
// early-error return is not a crash — it is a silent pool drain that
// turns the steady-state alloc/op the PR-1 benchmarks pinned back into
// per-batch garbage, which is why this is machine-checked.
//
// The analysis runs a forward may-dataflow over the framework CFG
// (internal/analysis/cfg.go). Per acquired buffer it tracks the set of
// path-states {held, held+deferred-release, released, released+deferred}
// and reports:
//
//	leak          some exit path still holds the buffer
//	double-put    a Put on a path where the buffer may already be released
//	use-after-put a read of the buffer on a path where it may be released
//
// Ownership transfers (return, store into field/index/global, capture by
// a non-deferred closure, send, append into an escaping slice) stop
// tracking — the contract moves with the value. Passing the buffer to a
// same-package helper whose body Puts the corresponding parameter counts
// as a release (one-level call graph); passing it to any other call
// leaves it held, which matches the tree's convention that kernels
// borrow buffers and the getter returns them.
package wspair

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"imrdmd/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wspair",
	Doc: "checks workspace-pool Get*/Put* pairing on all return paths " +
		"(leaks, double-puts, use-after-put) via CFG dataflow",
	Run: run,
}

// status is one per-path state of a tracked buffer.
type status uint8

const (
	held     status = 1 << iota // acquired, not released, no defer pending
	heldD                       // acquired, a deferred release will run
	released                    // explicitly released
	releasedD
)

type statusSet = status // bitmask union of statuses

func run(pass *analysis.Pass) error {
	helpers, escapes := indexHelpers(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					name := n.Name.Name
					analyzeFunc(pass, helpers, escapes, name, n.Body)
				}
			case *ast.FuncLit:
				analyzeFunc(pass, helpers, escapes, "func literal", n.Body)
			}
			return true // descend: nested literals analyzed separately
		})
	}
	return nil
}

// ---- pool API matching ----

// isWorkspaceType matches compute.Workspace through pointers; the
// testdata corpus stubs the same shape under a package named "compute".
func isWorkspaceType(t types.Type) bool {
	return analysis.IsNamed(t, "compute", "Workspace")
}

// poolCall classifies a call as a pool acquire ("get"), release ("put"),
// or neither, by the repo's naming convention anchored on the Workspace
// type: a Get*/Put* method on *compute.Workspace, or a Get*/Put*
// function whose parameters include a *compute.Workspace (the mat
// adapters).
func poolCall(info *types.Info, call *ast.CallExpr) (kind string, fn *types.Func) {
	fn = analysis.CalleeFunc(info, call)
	if fn == nil {
		return "", nil
	}
	name := fn.Name()
	switch {
	case strings.HasPrefix(name, "Get"):
		kind = "get"
	case strings.HasPrefix(name, "Put"):
		kind = "put"
	default:
		return "", nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return "", nil
	}
	if sig.Recv() != nil && isWorkspaceType(sig.Recv().Type()) {
		return kind, fn
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isWorkspaceType(sig.Params().At(i).Type()) {
			return kind, fn
		}
	}
	return "", nil
}

// indexHelpers classifies same-package functions by what they do with
// their parameters:
//
//   - put-helpers Put one of their parameters, so passing a held buffer
//     to such a helper counts as the release (one-level call graph);
//   - escape-helpers store a parameter's reference into a field, index,
//     dereference, global, channel, or return value (ownership transfer:
//     a method installing the buffer as a field is the canonical case) —
//     the callee (or whatever it stored into) now owns the pairing
//     obligation, so the argument stops being tracked at the call site.
func indexHelpers(pass *analysis.Pass) (putH, escH map[*types.Func][]bool) {
	putH = make(map[*types.Func][]bool)
	escH = make(map[*types.Func][]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			nparams := sig.Params().Len()
			puts := make([]bool, nparams)
			escs := make([]bool, nparams)
			anyPut, anyEsc := false, false
			paramIdx := func(obj types.Object) int {
				for i := 0; i < nparams; i++ {
					if obj == sig.Params().At(i) {
						return i
					}
				}
				return -1
			}
			markStored := func(e ast.Expr) {
				forEachStoredIdent(e, func(id *ast.Ident) {
					if i := paramIdx(pass.Info.Uses[id]); i >= 0 {
						escs[i] = true
						anyEsc = true
					}
				})
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if kind, _ := poolCall(pass.Info, n); kind != "put" {
						return true
					}
					for _, arg := range n.Args {
						id, ok := ast.Unparen(arg).(*ast.Ident)
						if !ok {
							continue
						}
						if i := paramIdx(pass.Info.Uses[id]); i >= 0 {
							puts[i] = true
							anyPut = true
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, lhs := range n.Lhs {
						if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
							continue // local copy, not a store
						}
						markStored(n.Rhs[i])
					}
				case *ast.ReturnStmt:
					for _, res := range n.Results {
						markStored(res)
					}
				case *ast.SendStmt:
					markStored(n.Value)
				}
				return true
			})
			if anyPut {
				putH[fn] = puts
			}
			if anyEsc {
				escH[fn] = escs
			}
		}
	}
	return putH, escH
}

// forEachStoredIdent visits the identifiers whose *reference* expression
// e stores (value position: the ident itself, a reslice, its address, a
// composite element) — the same shape untrackStored walks.
func forEachStoredIdent(e ast.Expr, fn func(*ast.Ident)) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn(e)
	case *ast.SliceExpr:
		forEachStoredIdent(e.X, fn)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			forEachStoredIdent(e.X, fn)
		}
	case *ast.StarExpr:
		forEachStoredIdent(e.X, fn)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			forEachStoredIdent(elt, fn)
		}
	case *ast.KeyValueExpr:
		forEachStoredIdent(e.Value, fn)
	}
}

// ---- per-function dataflow ----

type tracked struct {
	obj  types.Object
	pos  token.Pos // acquire site, for leak attribution
	expr string    // rendered acquire call, for messages
}

type analyzer struct {
	pass    *analysis.Pass
	helpers map[*types.Func][]bool
	escapes map[*types.Func][]bool
	funcN   string
	body    *ast.BlockStmt

	acquired map[types.Object]*tracked
	// deferPuts are buffers some defer statement in this function
	// releases (directly, via closure, or via a put-helper); an acquire
	// of such a buffer starts in the held+deferred state.
	deferPuts map[types.Object]bool
	// nilGet / nilPut record the lazy-borrow idiom the path-insensitive
	// dataflow cannot correlate: an acquire under `if b == nil` and a
	// release under `if b != nil`. Both present ⇒ the pairing is guarded
	// by the pointer itself and the exit-leak check stands down.
	nilGet map[types.Object]bool
	nilPut map[types.Object]bool

	reportedLeak   map[types.Object]bool
	reportedDouble map[types.Object]bool
	reportedUse    map[types.Object]bool
}

func analyzeFunc(pass *analysis.Pass, helpers, escapes map[*types.Func][]bool, name string, body *ast.BlockStmt) {
	a := &analyzer{
		pass: pass, helpers: helpers, escapes: escapes, funcN: name, body: body,
		acquired:       make(map[types.Object]*tracked),
		deferPuts:      make(map[types.Object]bool),
		nilGet:         make(map[types.Object]bool),
		nilPut:         make(map[types.Object]bool),
		reportedLeak:   make(map[types.Object]bool),
		reportedDouble: make(map[types.Object]bool),
		reportedUse:    make(map[types.Object]bool),
	}
	if !a.prescan() {
		return // no pool activity in this function
	}
	cfg := analysis.BuildCFG(body, pass.Info)
	if cfg.Unsupported {
		return // goto-bearing control flow: stay silent rather than guess
	}

	// Forward may-analysis to fixpoint, then one reporting pass.
	in := make(map[*analysis.CFGBlock]map[types.Object]statusSet)
	out := make(map[*analysis.CFGBlock]map[types.Object]statusSet)
	work := []*analysis.CFGBlock{cfg.Entry}
	inWork := map[*analysis.CFGBlock]bool{cfg.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work, inWork[b] = work[1:], false
		state := cloneState(in[b])
		state = a.transfer(b, state, false)
		if !sameState(out[b], state) {
			out[b] = state
			for _, succ := range b.Succs {
				merged := mergeState(in[succ], state)
				if !sameState(in[succ], merged) {
					in[succ] = merged
					if !inWork[succ] {
						work = append(work, succ)
						inWork[succ] = true
					}
				}
			}
		}
	}
	for _, b := range cfg.Blocks {
		a.transfer(b, cloneState(in[b]), true)
	}
	// Exit: anything still (only-)held on some path leaked. Lazy borrows
	// whose acquire and release are both guarded by the buffer's own
	// nil-ness are path-correlated in a way the may-analysis cannot see.
	for obj, st := range in[cfg.Exit] {
		if a.nilGet[obj] && a.nilPut[obj] {
			continue
		}
		if st&held != 0 && !a.reportedLeak[obj] {
			t := a.acquired[obj]
			if t == nil {
				continue
			}
			a.reportedLeak[obj] = true
			a.pass.Reportf(t.pos, "workspace buffer %s from %s is not returned to the pool on every path out of %s: add the matching Put* (or defer it) before returning", obj.Name(), t.expr, a.funcN)
		}
	}
}

// prescan records acquire sites and function-wide deferred releases;
// reports whether the function touches the pool API at all.
func (a *analyzer) prescan() bool {
	any := false
	ast.Inspect(a.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				kind, _ := poolCall(a.pass.Info, call)
				if kind != "get" {
					continue
				}
				any = true
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := a.objOf(id); obj != nil {
					a.acquired[obj] = &tracked{obj: obj, pos: call.Pos(), expr: exprText(call.Fun)}
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				call, ok := ast.Unparen(v).(*ast.CallExpr)
				if !ok {
					continue
				}
				if kind, _ := poolCall(a.pass.Info, call); kind != "get" {
					continue
				}
				any = true
				if i < len(n.Names) && n.Names[i].Name != "_" {
					if obj := a.objOf(n.Names[i]); obj != nil {
						a.acquired[obj] = &tracked{obj: obj, pos: call.Pos(), expr: exprText(call.Fun)}
					}
				}
			}
		case *ast.CallExpr:
			if kind, _ := poolCall(a.pass.Info, n); kind != "" {
				any = true
			}
		case *ast.DeferStmt:
			for _, obj := range a.deferReleased(n.Call) {
				a.deferPuts[obj] = true
			}
		case *ast.IfStmt:
			a.noteNilGuard(n)
		}
		return true
	})
	return any
}

// noteNilGuard records the lazy-borrow idiom: `if b == nil { b = Get }`
// and `if b != nil { Put(b) }`.
func (a *analyzer) noteNilGuard(ifs *ast.IfStmt) {
	obj, eq := nilCompare(a.pass.Info, ifs.Cond)
	if obj == nil {
		return
	}
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if !eq || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || a.objOf(id) != obj {
					continue
				}
				if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
					if kind, _ := poolCall(a.pass.Info, call); kind == "get" {
						a.nilGet[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			if eq {
				return true
			}
			for _, rel := range a.callReleased(n) {
				if rel == obj {
					a.nilPut[obj] = true
				}
			}
		}
		return true
	})
}

// callReleased lists the objects one call releases (direct Put or
// put-helper).
func (a *analyzer) callReleased(call *ast.CallExpr) []types.Object {
	var out []types.Object
	if kind, _ := poolCall(a.pass.Info, call); kind == "put" {
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := a.pass.Info.Uses[id]; obj != nil {
					out = append(out, obj)
				}
			}
		}
		return out
	}
	if fn := analysis.CalleeFunc(a.pass.Info, call); fn != nil {
		if puts, ok := a.helpers[fn]; ok {
			for i, arg := range call.Args {
				if i < len(puts) && puts[i] {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if obj := a.pass.Info.Uses[id]; obj != nil {
							out = append(out, obj)
						}
					}
				}
			}
		}
	}
	return out
}

// nilCompare matches `x == nil` (eq=true) / `x != nil` (eq=false).
func nilCompare(info *types.Info, cond ast.Expr) (obj types.Object, eq bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	classify := func(e ast.Expr) (types.Object, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		o := info.Uses[id]
		if _, isNil := o.(*types.Nil); isNil {
			return nil, true
		}
		return o, false
	}
	xo, xn := classify(be.X)
	yo, yn := classify(be.Y)
	switch {
	case xo != nil && yn:
		return xo, be.Op == token.EQL
	case yo != nil && xn:
		return yo, be.Op == token.EQL
	}
	return nil, false
}

// deferReleased lists the objects a deferred call releases: a direct
// Put*, a closure whose body Puts captured buffers, or a put-helper.
func (a *analyzer) deferReleased(call *ast.CallExpr) []types.Object {
	var out []types.Object
	collectArgs := func(c *ast.CallExpr) {
		for _, arg := range c.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := a.pass.Info.Uses[id]; obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	if kind, _ := poolCall(a.pass.Info, call); kind == "put" {
		collectArgs(call)
		return out
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind, _ := poolCall(a.pass.Info, c); kind == "put" {
				collectArgs(c)
			}
			return true
		})
		return out
	}
	if fn := analysis.CalleeFunc(a.pass.Info, call); fn != nil {
		if puts, ok := a.helpers[fn]; ok {
			for i, arg := range call.Args {
				if i < len(puts) && puts[i] {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if obj := a.pass.Info.Uses[id]; obj != nil {
							out = append(out, obj)
						}
					}
				}
			}
		}
	}
	return out
}

// transfer runs one block's statements over state. When report is true,
// double-put and use-after-put findings are emitted (the fixpoint pass
// runs silent so findings come from stable states).
func (a *analyzer) transfer(b *analysis.CFGBlock, state map[types.Object]statusSet, report bool) map[types.Object]statusSet {
	for _, s := range b.Stmts {
		a.transferStmt(s, state, report)
	}
	return state
}

func (a *analyzer) transferStmt(s ast.Stmt, state map[types.Object]statusSet, report bool) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		for _, obj := range a.deferReleased(s.Call) {
			if st, ok := state[obj]; ok {
				state[obj] = shiftDefer(st)
			}
		}
		// Arguments of the deferred call are evaluated now; other
		// tracked uses inside are fine (release happens at exit).
		return

	case *ast.ReturnStmt:
		// Returning a tracked buffer transfers ownership to the caller.
		for _, res := range s.Results {
			a.untrackStored(res, state)
		}
		a.scanUses(s, state, report)
		return

	case *ast.AssignStmt:
		// RHS uses happen first.
		for _, rhs := range s.Rhs {
			a.scanExpr(rhs, state, report)
		}
		// Move semantics: `x = y` (and the swap `v, w = w, v` of power
		// iteration) transfers the pairing obligation to the target
		// variable. A tuple assignment evaluates every RHS before any
		// LHS, so statuses are snapshotted up front.
		type move struct {
			dst types.Object
			st  statusSet
		}
		var moves []move
		moveAt := make(map[int]bool)
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				rid, ok := ast.Unparen(s.Rhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				src := a.pass.Info.Uses[rid]
				if src == nil {
					continue
				}
				st, live := state[src]
				if !live {
					continue
				}
				dst := a.objOf(id)
				if dst == nil {
					continue
				}
				moves = append(moves, move{dst: dst, st: st})
				moveAt[i] = true
				if a.acquired[dst] == nil {
					a.acquired[dst] = a.acquired[src]
				}
				delete(state, src)
			}
		}
		for i, lhs := range s.Lhs {
			if moveAt[i] {
				continue // applied after the loop, post-snapshot
			}
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			var rhs ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				rhs = s.Rhs[i]
			}
			if isIdent {
				obj := a.objOf(id)
				if obj == nil {
					continue
				}
				if _, isAcq := a.acquired[obj]; isAcq && rhs != nil {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
						if kind, _ := poolCall(a.pass.Info, call); kind == "get" {
							// (Re-)acquire through this site. A lazy borrow
							// (`if b == nil { b = Get }`) only runs un-held.
							if st, live := state[obj]; live && st&(held|heldD) != 0 && !mentions(rhs, a.pass.Info, obj) && !a.nilGet[obj] && report && !a.reportedLeak[obj] {
								a.reportedLeak[obj] = true
								a.pass.Reportf(id.Pos(), "workspace buffer %s is overwritten by a new Get while still held: the previous buffer leaks; Put it first", obj.Name())
							}
							if a.deferPuts[obj] {
								state[obj] = heldD
							} else {
								state[obj] = held
							}
							continue
						}
					}
				}
				if st, live := state[obj]; live {
					// Reassignment of a live tracked variable.
					if rhs != nil && mentions(rhs, a.pass.Info, obj) {
						continue // reslice (b = b[:n]): same backing array
					}
					if st&(held|heldD) != 0 && report && !a.reportedLeak[obj] {
						a.reportedLeak[obj] = true
						a.pass.Reportf(id.Pos(), "workspace buffer %s is reassigned while still held: the pooled buffer leaks; Put it before reusing the variable", obj.Name())
					}
					delete(state, obj)
				}
				continue
			}
			// Store into a field/index/map/deref: a buffer stored there
			// (as a value, not an element read) escapes the frame.
			if rhs != nil {
				a.untrackStored(rhs, state)
			}
			a.scanExpr(lhs, state, report)
		}
		for _, mv := range moves {
			if st, live := state[mv.dst]; live && st&(held|heldD) != 0 && report && !a.reportedLeak[mv.dst] {
				a.reportedLeak[mv.dst] = true
				a.pass.Reportf(s.Pos(), "workspace buffer %s is reassigned while still held: the pooled buffer leaks; Put it before reusing the variable", mv.dst.Name())
			}
			state[mv.dst] = mv.st
		}
		return

	case *ast.GoStmt:
		// The goroutine may use or release captured buffers at any time.
		a.untrackIn(s.Call, state)
		return

	case *ast.SendStmt:
		a.untrackStored(s.Value, state)
		a.scanExpr(s.Chan, state, report)
		return

	case *ast.RangeStmt:
		a.scanExpr(s.X, state, report)
		return

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						a.scanExpr(v, state, report)
						if i < len(vs.Names) {
							a.maybeAcquireDecl(vs.Names[i], v, state)
						}
					}
				}
			}
		}
		return

	default:
		a.scanUses(s, state, report)
	}
}

// scanUses walks a statement's expressions for pool events and tracked
// uses (skipping nested function literals — they are analyzed on their
// own, and capture untracks below).
func (a *analyzer) scanUses(n ast.Node, state map[types.Object]statusSet, report bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Captured buffers may live beyond this function's frame.
			a.untrackIn(n.Body, state)
			return false
		case *ast.CallExpr:
			kind, _ := poolCall(a.pass.Info, n)
			if kind == "put" {
				a.applyPut(n, state, report)
				return false // args of the Put are not "uses"
			}
			if fn := analysis.CalleeFunc(a.pass.Info, n); fn != nil {
				if puts, ok := a.helpers[fn]; ok {
					a.applyHelper(n, puts, state, report)
					return false
				}
				if escs, ok := a.escapes[fn]; ok {
					// Ownership transfer: the callee stores these args.
					for i, arg := range n.Args {
						if i < len(escs) && escs[i] {
							a.untrackStored(arg, state)
						}
					}
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isB := a.pass.Info.Uses[id].(*types.Builtin); isB {
					// appending a tracked buffer into a slice escapes it
					for _, arg := range n.Args[1:] {
						a.untrackStored(arg, state)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// &b: the address escapes analysis precision.
				a.untrackIn(n.X, state)
				return false
			}
		case *ast.CompositeLit:
			// A buffer placed (as a value) in a composite literal escapes.
			for _, e := range n.Elts {
				a.untrackStored(e, state)
			}
		case *ast.Ident:
			a.useIdent(n, state, report)
		}
		return true
	})
}

// maybeAcquireDecl handles `var b = ws.GetF64(n)` declarations.
func (a *analyzer) maybeAcquireDecl(name *ast.Ident, value ast.Expr, state map[types.Object]statusSet) {
	call, ok := ast.Unparen(value).(*ast.CallExpr)
	if !ok {
		return
	}
	if kind, _ := poolCall(a.pass.Info, call); kind != "get" {
		return
	}
	obj := a.objOf(name)
	if obj == nil || name.Name == "_" {
		return
	}
	if a.deferPuts[obj] {
		state[obj] = heldD
	} else {
		state[obj] = held
	}
}

func (a *analyzer) scanExpr(e ast.Expr, state map[types.Object]statusSet, report bool) {
	a.scanUses(e, state, report)
}

func (a *analyzer) useIdent(id *ast.Ident, state map[types.Object]statusSet, report bool) {
	obj := a.pass.Info.Uses[id]
	if obj == nil {
		return
	}
	st, ok := state[obj]
	if !ok {
		return
	}
	if st&(released|releasedD) != 0 && report && !a.reportedUse[obj] {
		a.reportedUse[obj] = true
		a.pass.Reportf(id.Pos(), "workspace buffer %s is used after being returned to the pool: the pool may have handed it to another goroutine", obj.Name())
	}
}

func (a *analyzer) applyPut(call *ast.CallExpr, state map[types.Object]statusSet, report bool) {
	for _, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj := a.pass.Info.Uses[id]
		if obj == nil {
			continue
		}
		st, live := state[obj]
		if !live {
			continue
		}
		if st&(released|releasedD) != 0 && report && !a.reportedDouble[obj] {
			a.reportedDouble[obj] = true
			a.pass.Reportf(call.Pos(), "workspace buffer %s may already have been returned to the pool on this path (double Put corrupts the pool's reuse invariants)", obj.Name())
		}
		state[obj] = shiftPut(st)
	}
}

func (a *analyzer) applyHelper(call *ast.CallExpr, puts []bool, state map[types.Object]statusSet, report bool) {
	for i, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj := a.pass.Info.Uses[id]
		if obj == nil {
			continue
		}
		if i < len(puts) && puts[i] {
			if st, live := state[obj]; live {
				if st&(released|releasedD) != 0 && report && !a.reportedDouble[obj] {
					a.reportedDouble[obj] = true
					a.pass.Reportf(call.Pos(), "workspace buffer %s may already have been returned to the pool on this path (double Put corrupts the pool's reuse invariants)", obj.Name())
				}
				state[obj] = shiftPut(st)
			}
		} else {
			a.useIdent(id, state, report)
		}
	}
}

// untrackStored removes from state the objects whose *reference* the
// expression stores somewhere (the ident itself, a reslice of it, its
// address, or a composite carrying it). Element reads (b[i]) do not
// escape the buffer — kernels read and write borrowed buffers
// constantly — so IndexExpr deliberately contributes nothing.
func (a *analyzer) untrackStored(e ast.Expr, state map[types.Object]statusSet) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := a.pass.Info.Uses[e]; obj != nil {
			delete(state, obj)
		}
	case *ast.SliceExpr:
		a.untrackStored(e.X, state) // b[2:] shares the backing array
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			a.untrackStored(e.X, state)
		}
	case *ast.StarExpr:
		a.untrackStored(e.X, state)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			a.untrackStored(elt, state)
		}
	case *ast.KeyValueExpr:
		a.untrackStored(e.Value, state)
	case *ast.FuncLit:
		a.untrackIn(e.Body, state) // captured: any later use is out of view
	}
}

// untrackIn removes every tracked object referenced in n from state:
// ownership has moved somewhere the intraprocedural analysis cannot see,
// so the pairing obligation moves with it.
func (a *analyzer) untrackIn(n ast.Node, state map[types.Object]statusSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := a.pass.Info.Uses[id]; obj != nil {
				delete(state, obj)
			}
		}
		return true
	})
}

func (a *analyzer) objOf(id *ast.Ident) types.Object {
	if obj := a.pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return a.pass.Info.Uses[id]
}

// ---- status algebra ----

func shiftPut(st statusSet) statusSet {
	var out statusSet
	if st&held != 0 {
		out |= released
	}
	if st&heldD != 0 {
		out |= releasedD
	}
	if st&released != 0 {
		out |= released
	}
	if st&releasedD != 0 {
		out |= releasedD
	}
	return out
}

func shiftDefer(st statusSet) statusSet {
	var out statusSet
	if st&held != 0 {
		out |= heldD
	}
	if st&released != 0 {
		out |= releasedD
	}
	out |= st & (heldD | releasedD)
	return out
}

func cloneState(m map[types.Object]statusSet) map[types.Object]statusSet {
	out := make(map[types.Object]statusSet, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mergeState(dst, src map[types.Object]statusSet) map[types.Object]statusSet {
	out := cloneState(dst)
	for k, v := range src {
		out[k] |= v
	}
	return out
}

func sameState(a, b map[types.Object]statusSet) bool {
	if a == nil || len(a) != len(b) {
		return a != nil && len(b) == 0 && len(a) == 0
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// mentions reports whether expr references obj (reslice detection).
func mentions(e ast.Expr, info *types.Info, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X)
	case *ast.IndexListExpr:
		return exprText(e.X)
	}
	return "Get*"
}
