package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// NewErrSink builds the error-sink analyzer for the state packages: on
// checkpoint, recovery, and changelog paths a swallowed error reintroduces
// exactly the silent data loss PR 5 converted panics into errors to
// surface. Three sinks are flagged, flow-sensitively and per function:
//
//   - an error result discarded with _ (either `_ = f()` or the error
//     position of a multi-assign);
//   - a call, deferred call, or go statement whose results include an
//     error that nothing receives;
//   - a local error variable reassigned before its current value was
//     read, or still unread when the function ends.
//
// "Read" is any use of the variable — a comparison, a return, a wrapping
// call, capture by a closure. The walk is one client of the flow engine
// (flow.go); the state is the set of tracked variables whose last
// assignment no path into this point has read (must-pending: a join keeps a
// variable only when every incoming path still has it pending, so a read on
// any live arm counts). An overwrite is reported where it happens. "Never
// checked" is deliberately permissive: an assignment still pending at some
// exit is reported only when no statement anywhere read it, so a check on a
// path that has already returned counts too. At a loop's head and exit a
// variable declared inside the loop is pending when ANY path leaves it
// pending — each iteration gets a fresh one and an unread value truly is
// unread. Struct fields and package variables are out of scope — only
// locals and named results are tracked.
func NewErrSink(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "errsink",
		Doc:  "flags discarded, unchecked, and overwritten-before-check error values on state paths",
	}
	a.Run = func(p *Package) []Diagnostic {
		if len(scope) > 0 && !pathMatches(p.Path, scope) {
			return nil
		}
		var diags []Diagnostic
		forEachFunc(p, func(ftype *ast.FuncType, body *ast.BlockStmt) {
			diags = append(diags, errSinkFunc(a, p, ftype, body)...)
		})
		return diags
	}
	return a
}

// errPending is the flow state: tracked variable → its last assignment,
// unread on every path into this point.
type errPending map[*types.Var]token.Pos

// errFlow is the flow client walking one function body.
type errFlow struct {
	a *Analyzer
	p *Package
	// tracked holds the locals and named results of exact type error that
	// the overwrite/unread checks apply to.
	tracked map[*types.Var]bool
	// checked holds the assignments some statement read.
	checked map[token.Pos]bool
	// unread holds the assignments still pending at some exit.
	unread map[token.Pos]*types.Var
	diags  []Diagnostic
	seen   map[errDiagKey]bool // loop bodies are re-walked
}

type errDiagKey struct {
	pos    token.Pos
	format string
}

// errSinkFunc analyzes one function body. Nested function literals are
// analyzed independently by the caller; here their interiors only count as
// reads of the enclosing function's variables.
func errSinkFunc(a *Analyzer, p *Package, ftype *ast.FuncType, body *ast.BlockStmt) []Diagnostic {
	w := &errFlow{a: a, p: p, tracked: map[*types.Var]bool{}, checked: map[token.Pos]bool{},
		unread: map[token.Pos]*types.Var{}, seen: map[errDiagKey]bool{}}
	if ftype.Results != nil {
		for _, fld := range ftype.Results.List {
			for _, name := range fld.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok && v != nil && errorType(v.Type()) {
					w.tracked[v] = true
				}
			}
		}
	}
	runFlow[errPending](p, w, body, errPending{})
	var unread []token.Pos
	for pos := range w.unread {
		if !w.checked[pos] {
			unread = append(unread, pos)
		}
	}
	sort.Slice(unread, func(i, j int) bool { return unread[i] < unread[j] })
	for _, pos := range unread {
		w.diag(pos, "error assigned to %s is never checked", w.unread[pos].Name())
	}
	return w.diags
}

func (w *errFlow) diag(pos token.Pos, format string, args ...any) {
	if key := (errDiagKey{pos, format}); !w.seen[key] {
		w.seen[key] = true
		w.diags = append(w.diags, w.a.Diag(w.p, pos, format, args...))
	}
}

func (w *errFlow) clone(s errPending) errPending { return maps.Clone(s) }

// join keeps what is pending on both paths; a variable declared inside the
// loop being joined is pending when either path says so.
func (w *errFlow) join(dst, src errPending, loop ast.Stmt) (errPending, bool) {
	changed := false
	inLoop := func(v *types.Var) bool { return loop != nil && loop.Pos() <= v.Pos() && v.Pos() <= loop.End() }
	for v := range dst {
		if _, ok := src[v]; !ok && !inLoop(v) {
			delete(dst, v)
			changed = true
		}
	}
	for v, pos := range src {
		if _, ok := dst[v]; !ok && inLoop(v) {
			dst[v] = pos
			changed = true
		}
	}
	return dst, changed
}

func (w *errFlow) stmt(st ast.Stmt, s errPending, _ bool) errPending {
	switch x := st.(type) {
	case *ast.AssignStmt:
		w.assign(x, s)
	case *ast.DeclStmt:
		w.decl(x, s)
	case *ast.ExprStmt:
		w.reads(x.X, s)
		if call, ok := unparen(x.X).(*ast.CallExpr); ok {
			w.uncheckedCall(call, "call to")
		}
	case *ast.DeferStmt:
		w.reads(x.Call, s)
		w.uncheckedCall(x.Call, "deferred call to")
	case *ast.GoStmt:
		w.reads(x.Call, s)
		w.uncheckedCall(x.Call, "go call to")
	case *ast.ReturnStmt:
		w.reads(x, s)
		if len(x.Results) == 0 {
			// A bare return hands the named results to the caller.
			for v := range w.tracked {
				delete(s, v)
			}
		}
	default:
		// SendStmt, IncDecStmt, EmptyStmt: plain reads.
		w.reads(st, s)
	}
	return s
}

func (w *errFlow) expr(e ast.Expr, s errPending) errPending {
	w.reads(e, s)
	return s
}

func (w *errFlow) cond(e ast.Expr, s errPending) (yes, no errPending) {
	w.reads(e, s)
	return s, w.clone(s)
}

func (w *errFlow) enter(_ ast.Stmt, s errPending) errPending { return s }

func (w *errFlow) exit(s errPending, _ token.Pos) {
	for v, pos := range s {
		w.unread[pos] = v
	}
}

// assign handles = and := statements: blank discards, overwrites of
// pending errors, and new pending assignments.
func (w *errFlow) assign(as *ast.AssignStmt, s errPending) {
	for _, r := range as.Rhs {
		w.reads(r, s)
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return // compound assignment ops never produce errors
	}
	callDesc := ""
	if len(as.Rhs) == 1 {
		if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			callDesc = types.ExprString(call.Fun)
		}
	}
	for i, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			// m[k] = ... reads m and k; a write through a selector or
			// index is never a tracked local.
			w.reads(l, s)
			continue
		}
		if id.Name == "_" {
			if t := w.assignType(as, i); t != nil && errorType(t) {
				if callDesc != "" {
					w.diag(id.Pos(), "error result of %s is discarded", callDesc)
				} else {
					w.diag(id.Pos(), "error value is discarded")
				}
			}
			continue
		}
		// A redeclaration inside a multi-variable := resolves as a use.
		v, fresh := w.p.Info.Defs[id].(*types.Var)
		if !fresh {
			v, _ = w.p.Info.Uses[id].(*types.Var)
		}
		if v == nil || !errorType(v.Type()) {
			continue
		}
		if as.Tok == token.DEFINE {
			w.tracked[v] = true
		}
		if !w.tracked[v] {
			continue // parameter, package variable, or field: out of scope
		}
		// A fresh variable overwrites nothing: what a loop's previous
		// iteration left pending under the same declaration is this
		// assignment again.
		if prev, ok := s[v]; ok && !fresh {
			w.diag(id.Pos(), "%s is reassigned before the error assigned at line %d is checked",
				v.Name(), w.p.Fset.Position(prev).Line)
		}
		if t := w.assignType(as, i); t != nil && isUntypedNil(t) {
			delete(s, v) // explicit reset, nothing left to check
		} else {
			s[v] = id.Pos()
		}
	}
}

// assignType resolves the type flowing into LHS position i.
func (w *errFlow) assignType(as *ast.AssignStmt, i int) types.Type {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if tup, ok := w.p.Info.Types[as.Rhs[0]].Type.(*types.Tuple); ok && i < tup.Len() {
			return tup.At(i).Type()
		}
		return nil
	}
	if i < len(as.Rhs) {
		return w.p.Info.Types[as.Rhs[i]].Type
	}
	return nil
}

// decl handles `var` statements, which can both declare tracked variables
// and leave an initial error pending.
func (w *errFlow) decl(ds *ast.DeclStmt, s errPending) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		w.reads(ds, s)
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			w.reads(val, s)
		}
		for _, name := range vs.Names {
			v, _ := w.p.Info.Defs[name].(*types.Var)
			if v == nil || !errorType(v.Type()) {
				continue
			}
			w.tracked[v] = true
			if len(vs.Values) > 0 {
				s[v] = name.Pos()
			}
		}
	}
}

// uncheckedCall reports a statement-position call whose results include an
// error nothing receives.
func (w *errFlow) uncheckedCall(call *ast.CallExpr, what string) {
	if typeHasError(w.p.Info.Types[call].Type) {
		w.diag(call.Pos(), "%s %s drops its error result", what, types.ExprString(call.Fun))
	}
}

// reads marks every variable used anywhere inside n as read, function-
// literal interiors included: a captured error escapes the straight-line
// view, so the closure must count as a potential check.
func (w *errFlow) reads(n ast.Node, s errPending) {
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if v, ok := w.p.Info.Uses[id].(*types.Var); ok {
				if pos, pending := s[v]; pending {
					w.checked[pos] = true
					delete(s, v)
				}
			}
		}
		return true
	})
}

// typeHasError reports whether t is, or is a tuple containing, the
// built-in error type.
func typeHasError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if errorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return errorType(t)
}

// errorType reports whether t is the built-in error interface.
func errorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isUntypedNil reports whether t is the type of a literal nil.
func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
