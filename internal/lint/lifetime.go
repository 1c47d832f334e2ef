package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// This file assembles the lifetime layer (DESIGN.md §16): the //lint:pooled
// registry (pooldirect.go) feeds the dataflow IR (dataflow.go) and the
// interprocedural summaries (poolsummary.go), and three analyzers report
// over one shared module-cached run:
//
//	poolsafe     use-after-release, double release, leak on an exit path,
//	             release of state still reachable from live operator state,
//	             and //lint:pooled misuse.
//	aliasescape  an alias of a pooled backing escaped (stored, sent,
//	             returned, handed to a goroutine) and the backing was
//	             released anyway.
//	scratchlocal a scratch arena alias outlived the call that borrowed it.

// lifetimeEngine is the shared state of one lifetime run over a module.
type lifetimeEngine struct {
	m     *Module
	reg   *PoolRegistry
	sums  map[*CGNode]*PoolSummary
	diags []Diagnostic
}

// pkgDiag pairs a diagnostic with its package path for scope filtering.
type pkgDiag struct {
	pkg string
	d   Diagnostic
}

// lifetimeResult is the cached output of one lifetime run.
type lifetimeResult struct {
	diags []pkgDiag
}

// computeLifetime runs the whole layer once per module: registry, relevance
// pruning, summary fixpoint, report pass, still-reachable pass.
func computeLifetime(m *Module) *lifetimeResult {
	reg := BuildPoolRegistry(m)
	res := &lifetimeResult{}
	filePkg := map[string]string{}
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			filePkg[p.Fset.Position(f.Pos()).Filename] = p.Path
		}
	}
	add := func(d Diagnostic) {
		res.diags = append(res.diags, pkgDiag{pkg: filePkg[d.Pos.Filename], d: d})
	}
	for _, d := range reg.Bad {
		add(d)
	}
	if reg.empty() {
		return res
	}
	eng := &lifetimeEngine{m: m, reg: reg}
	nodes := relevantNodes(m, reg)
	eng.computeSummaries(nodes)
	for _, n := range nodes {
		w := newWalker(eng, n, nil, true)
		w.analyze()
		eng.stillReachable(n)
	}
	for _, d := range eng.diags {
		add(d)
	}
	return res
}

// lifetimeAnalyzer builds one scope-filtered view over the shared run.
func lifetimeAnalyzer(name, doc string, scope []string) *Analyzer {
	return &Analyzer{
		Name: name,
		Doc:  doc,
		RunModule: func(m *Module) []Diagnostic {
			var out []Diagnostic
			for _, pd := range m.lifetime().diags {
				if pd.d.Analyzer == name && (len(scope) == 0 || pathMatches(pd.pkg, scope)) {
					out = append(out, pd.d)
				}
			}
			return out
		},
	}
}

// NewPoolSafe flags pooled objects used after release, released twice,
// leaked on an exit path, or released while still reachable from live
// operator state, within the scoped packages.
func NewPoolSafe(scope []string) *Analyzer {
	return lifetimeAnalyzer("poolsafe",
		"pooled objects must not be used after release, released twice, leaked, or released while still reachable",
		scope)
}

// NewAliasEscape flags pooled backings released after an alias escaped into
// long-lived state, an emitted value, a channel, or a goroutine.
func NewAliasEscape(scope []string) *Analyzer {
	return lifetimeAnalyzer("aliasescape",
		"aliases of pooled backings must not escape before the backing is released",
		scope)
}

// NewScratchLocal flags scratch arena aliases that outlive the borrowing
// call.
func NewScratchLocal(scope []string) *Analyzer {
	return lifetimeAnalyzer("scratchlocal",
		"scratch arenas must not outlive the call that borrowed them",
		scope)
}

// ---- shared call/pool resolution ----

// poolOfExpr resolves an expression to a declared pool/freelist: a bare
// identifier, a package-qualified variable, or a field selector.
func poolOfExpr(p *Package, reg *PoolRegistry, e ast.Expr) *PoolDecl {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[x]; obj != nil {
			return reg.Pools[obj]
		}
	case *ast.SelectorExpr:
		if sel := p.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			return reg.Pools[sel.Obj()]
		}
		if obj := p.Info.Uses[x.Sel]; obj != nil {
			return reg.Pools[obj]
		}
	}
	return nil
}

// ---- still-reachable pass ----

// stillReachable is the syntactic half of poolsafe's third rule: when a
// release's argument is rooted in non-local state (a receiver field, a
// captured variable, package state), the body must also sever that path —
// a delete/clear, an assignment to a prefix of the path, or a clear/reset
// method on a prefix. Otherwise live operator state keeps pointing at a
// recycled object. Ordering inside the body is deliberately not checked:
// the established idioms both clear-then-release and release-then-delete.
func (eng *lifetimeEngine) stillReachable(n *CGNode) {
	rs := &reachScan{n: n, p: n.Pkg, reg: eng.reg,
		ranges: map[types.Object]ast.Expr{},
		defs:   map[types.Object][]ast.Expr{},
		params: map[types.Object]bool{},
	}
	rs.bindParams()
	type relEvent struct {
		pos ast.Node
		arg ast.Expr
	}
	var rels []relEvent
	walkOwn(n, func(node ast.Node) {
		switch st := node.(type) {
		case *ast.RangeStmt:
			if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
				if obj := rs.objOf(id); obj != nil {
					rs.ranges[obj] = st.X
				}
			}
		case *ast.AssignStmt:
			for i, l := range st.Lhs {
				id, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				obj := rs.objOf(id)
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if len(st.Lhs) == len(st.Rhs) {
					rhs = st.Rhs[i]
				}
				rs.defs[obj] = append(rs.defs[obj], rhs)
			}
			for _, l := range st.Lhs {
				if p, _ := rs.pathOf(l, 0); p != "" {
					rs.cleared = append(rs.cleared, p)
				}
			}
		case *ast.CallExpr:
			rs.scanClearing(st)
			if fn := calledFunc(rs.p, st); fn != nil && eng.reg.Releases[fn.Origin()] && len(st.Args) > 0 {
				rels = append(rels, relEvent{pos: st, arg: st.Args[0]})
			}
			if sel, ok := unparen(st.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" && len(st.Args) == 1 {
				if pd := poolOfExpr(rs.p, eng.reg, sel.X); pd != nil && pd.Kind == roleSyncPool {
					rels = append(rels, relEvent{pos: st, arg: st.Args[0]})
				}
			}
			if builtinName(rs.p, st) == "append" && len(st.Args) > 1 {
				if pd := poolOfExpr(rs.p, eng.reg, st.Args[0]); pd != nil && pd.Kind == roleFreelist {
					for _, a := range st.Args[1:] {
						rels = append(rels, relEvent{pos: st, arg: a})
					}
				}
			}
		}
	})
	seen := map[string]bool{}
	for _, r := range rels {
		path, root := rs.pathOf(r.arg, 0)
		if path == "" || root == nil {
			continue
		}
		if !strings.ContainsAny(path, ".[") {
			continue // a bare value, not a load out of a container
		}
		if rs.isLocal(root) {
			continue // container itself is call-local; it dies with the call
		}
		if rs.clearedPrefix(path) {
			continue
		}
		key := fmt.Sprintf("%d@%s", r.pos.Pos(), path)
		if seen[key] {
			continue
		}
		seen[key] = true
		eng.diags = append(eng.diags, Diagnostic{
			Analyzer: "poolsafe",
			Pos:      rs.p.Fset.Position(r.pos.Pos()),
			Message: fmt.Sprintf(
				"pooled value released while still reachable through %s; delete, clear, or reassign the containing state", path),
		})
	}
}

// reachScan is the per-body state of the still-reachable pass.
type reachScan struct {
	n       *CGNode
	p       *Package
	reg     *PoolRegistry
	ranges  map[types.Object]ast.Expr
	defs    map[types.Object][]ast.Expr
	params  map[types.Object]bool
	cleared []string
}

// bindParams records parameters and the receiver. The map value says
// whether the parameter is pointer-typed: reaching state through a pointer
// param reaches the CALLER's object, while a value param is the callee's
// own copy — releasing out of a value-typed message is an ownership
// handoff, not a dangling reference in live state.
func (rs *reachScan) bindParams() {
	ptr := func(t types.Type) bool {
		_, ok := t.Underlying().(*types.Pointer)
		return ok
	}
	if rs.n.Fn != nil {
		sig := rs.n.Fn.Type().(*types.Signature)
		if r := sig.Recv(); r != nil {
			rs.params[r] = ptr(r.Type())
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			rs.params[p] = ptr(p.Type())
		}
		return
	}
	if rs.n.Lit != nil {
		for _, f := range rs.n.Lit.Type.Params.List {
			for _, name := range f.Names {
				if obj := rs.p.Info.Defs[name]; obj != nil {
					rs.params[obj] = ptr(obj.Type())
				}
			}
		}
	}
}

func (rs *reachScan) objOf(id *ast.Ident) types.Object {
	if obj := rs.p.Info.Defs[id]; obj != nil {
		return obj
	}
	return rs.p.Info.Uses[id]
}

// isLocal reports whether obj is declared inside this body. A pointer
// param or receiver counts as non-local (it aliases the caller's live
// state); a value param is the callee's own copy and counts as local.
func (rs *reachScan) isLocal(obj types.Object) bool {
	if isPtr, ok := rs.params[obj]; ok {
		return !isPtr
	}
	return rs.n.Body.Pos() <= obj.Pos() && obj.Pos() <= rs.n.Body.End()
}

// scanClearing records delete/clear builtins and clear/reset-style method
// calls as severing statements.
func (rs *reachScan) scanClearing(call *ast.CallExpr) {
	if name := builtinName(rs.p, call); (name == "delete" || name == "clear") && len(call.Args) > 0 {
		if p, _ := rs.pathOf(call.Args[0], 0); p != "" {
			rs.cleared = append(rs.cleared, p)
		}
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "clear", "reset", "Clear", "Reset":
			if p, _ := rs.pathOf(sel.X, 0); p != "" {
				rs.cleared = append(rs.cleared, p)
			}
		}
	}
}

// pathOf renders an expression as a normalized access path ("s.versions[*]
// .entries") and returns its root object. Range variables substitute their
// container; single-assignment locals substitute their initializer, so the
// common pop-into-local idiom resolves to the underlying state path.
func (rs *reachScan) pathOf(e ast.Expr, depth int) (string, types.Object) {
	if depth > 6 {
		return "", nil
	}
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return "", nil
		}
		obj := rs.objOf(x)
		if obj == nil {
			return "", nil
		}
		if c, ok := rs.ranges[obj]; ok {
			base, root := rs.pathOf(c, depth+1)
			if base == "" {
				return "", nil
			}
			return base + "[*]", root
		}
		if ds := rs.defs[obj]; len(ds) == 1 && ds[0] != nil && rs.isLocal(obj) {
			if p, root := rs.pathOf(ds[0], depth+1); p != "" {
				return p, root
			}
		}
		return x.Name, obj
	case *ast.SelectorExpr:
		if sel := rs.p.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			base, root := rs.pathOf(x.X, depth+1)
			if base == "" {
				return "", nil
			}
			return base + "." + x.Sel.Name, root
		}
		// Package-qualified variable: pkg.Var is its own root.
		if obj := rs.p.Info.Uses[x.Sel]; obj != nil {
			if _, ok := obj.(*types.Var); ok {
				return render(x), obj
			}
		}
		return "", nil
	case *ast.IndexExpr:
		base, root := rs.pathOf(x.X, depth+1)
		if base == "" {
			return "", nil
		}
		return base + "[*]", root
	case *ast.SliceExpr:
		return rs.pathOf(x.X, depth+1)
	case *ast.StarExpr:
		return rs.pathOf(x.X, depth+1)
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			return rs.pathOf(x.X, depth+1)
		}
	}
	return "", nil
}

// clearedPrefix reports whether some severing statement targets the path or
// a prefix of it at a segment boundary.
func (rs *reachScan) clearedPrefix(path string) bool {
	for _, t := range rs.cleared {
		if t == path || strings.HasPrefix(path, t+".") || strings.HasPrefix(path, t+"[") {
			return true
		}
	}
	return false
}
