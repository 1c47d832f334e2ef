package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewHotAlloc builds the hot-path allocation analyzer: every function
// reachable over static synchronous call edges from a //lint:hotpath root
// must contain no allocating construct. It is the compile-time complement
// to the runtime 0-allocs/op guard (TestKernelAllocs): the benchmark
// proves a particular execution allocation-free, the analyzer proves the
// whole statically reachable region is.
//
// Flagged constructs: make/new, slice and map composite literals,
// address-of composite literals, append (may grow its backing array),
// non-constant string concatenation, string<->[]byte/[]rune conversions,
// function literals and method values (closure allocation), go statements,
// and interface boxing at call sites (a non-pointer-shaped concrete
// argument passed to an interface parameter).
//
// Bounded exemptions, matching the engine's cold/warm-up path idiom:
//
//   - an if-body whose last statement is a call to panic is a cold error
//     path and is not scanned;
//   - calls with no static callee (interface methods, function values) do
//     not extend the hot region — dynamic dispatch bounds the analysis
//     exactly as it does for lockheld-send;
//   - value struct/array composite literals are not flagged (they live in
//     registers or on the stack);
//   - intentional warm-up allocations are suppressed inline with
//     //lint:ignore hotalloc <reason>, keeping them auditable.
func NewHotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "forbids allocating constructs in functions reachable from //lint:hotpath roots",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		g := m.Graph()

		// BFS from the hot roots over synchronous call edges, remembering
		// the discovery edge so each finding can cite its hot path. Roots
		// come from g.Nodes, and each node's Out edges are in source order,
		// so discovery (and therefore reported chains) is deterministic.
		parent := map[*CGNode]*CGEdge{}
		var queue []*CGNode
		for _, n := range g.Nodes {
			if n.Hot {
				parent[n] = nil
				queue = append(queue, n)
			}
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, e := range n.Out {
				if e.Kind == CallGo {
					continue // a new goroutine is not this hot path
				}
				if _, seen := parent[e.Callee]; seen {
					continue
				}
				parent[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}

		diags := append([]Diagnostic(nil), g.Bad...)
		for _, n := range g.Nodes {
			if _, hot := parent[n]; !hot {
				continue
			}
			chain := hotChain(n, parent)
			scanAllocs(n, func(pos token.Pos, what string) {
				d := a.Diag(n.Pkg, pos, "%s in hot function %s (hot path: %s)",
					what, n.DisplayName(), strings.Join(chain, " → "))
				d.Chain = chain
				diags = append(diags, d)
			})
		}
		return diags
	}
	return a
}

// hotChain renders the discovery path from a hot root down to n,
// outermost first.
func hotChain(n *CGNode, parent map[*CGNode]*CGEdge) []string {
	var rev []string
	for {
		rev = append(rev, n.DisplayName())
		e := parent[n]
		if e == nil {
			break
		}
		n = e.Caller
	}
	chain := make([]string, len(rev))
	for i, s := range rev {
		chain[len(rev)-1-i] = s
	}
	return chain
}

// scanAllocs reports every allocating construct in n's body (nested
// literals excluded — they are their own nodes, flagged at their creation
// site), skipping panic-terminated if-bodies (cold error paths).
func scanAllocs(n *CGNode, report func(pos token.Pos, what string)) {
	p := n.Pkg

	// Cold ranges: if-bodies whose last statement panics.
	var cold [][2]token.Pos
	walkOwn(n, func(node ast.Node) {
		ifs, ok := node.(*ast.IfStmt)
		if !ok || len(ifs.Body.List) == 0 {
			return
		}
		if es, ok := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ExprStmt); ok && isPanicCall(p, es.X) {
			cold = append(cold, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		}
	})
	inCold := func(pos token.Pos) bool {
		for _, r := range cold {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}

	// Method-value detection needs to know which selectors are call heads.
	callHeads := map[ast.Expr]bool{}
	// m[string(b)] is a compiler-recognized pattern that does not allocate
	// the string: collect conversions used directly as map-index keys.
	mapIndexConv := map[*ast.CallExpr]bool{}
	walkOwn(n, func(node ast.Node) {
		switch x := node.(type) {
		case *ast.CallExpr:
			callHeads[unparen(x.Fun)] = true
		case *ast.IndexExpr:
			t := p.Info.Types[x.X].Type
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			if conv, ok := unparen(x.Index).(*ast.CallExpr); ok {
				if tv, ok := p.Info.Types[conv.Fun]; ok && tv.IsType() {
					mapIndexConv[conv] = true
				}
			}
		}
	})

	emit := func(pos token.Pos, what string) {
		if !inCold(pos) {
			report(pos, what)
		}
	}

	walkOwn(n, func(node ast.Node) {
		switch x := node.(type) {
		case *ast.FuncLit:
			if x != n.Lit {
				emit(x.Pos(), "function literal allocates a closure")
			}
		case *ast.GoStmt:
			emit(x.Pos(), "go statement allocates a goroutine")
		case *ast.CompositeLit:
			t := p.Info.Types[x].Type
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				emit(x.Pos(), "slice literal allocates")
			case *types.Map:
				emit(x.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					emit(x.Pos(), "address-of composite literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if x.Op != token.ADD {
				return
			}
			tv := p.Info.Types[x]
			if tv.Value != nil {
				return // constant-folded
			}
			if t, ok := tv.Type.(*types.Basic); ok && t.Info()&types.IsString != 0 {
				emit(x.Pos(), "string concatenation allocates")
			}
		case *ast.SelectorExpr:
			if callHeads[x] {
				return
			}
			if sel := p.Info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal {
				emit(x.Pos(), "method value allocates a closure")
			}
		case *ast.CallExpr:
			if mapIndexConv[x] {
				return
			}
			scanCall(p, x, emit)
		}
	})
}

// scanCall flags allocating calls: make/new builtins, append, allocating
// string conversions, and interface boxing of arguments.
func scanCall(p *Package, call *ast.CallExpr, emit func(pos token.Pos, what string)) {
	// Conversions: string <-> []byte/[]rune copy their operand.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			dst := tv.Type
			src := p.Info.Types[call.Args[0]].Type
			if src != nil && allocatingStringConv(dst, src) {
				if cv := p.Info.Types[call.Args[0]]; cv.Value == nil { // constant conversions are static
					emit(call.Pos(), "string conversion allocates")
				}
			}
		}
		return
	}
	if name := builtinName(p, call); name != "" {
		switch name {
		case "make":
			emit(call.Pos(), "make allocates")
		case "new":
			emit(call.Pos(), "new allocates")
		case "append":
			emit(call.Pos(), "append may grow its backing array")
		}
		return
	}

	// Interface boxing: a concrete, non-pointer-shaped, non-constant
	// argument passed to an interface parameter is heap-boxed at the call.
	sigT, ok := p.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sigT.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sigT.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sigT.Variadic() && call.Ellipsis == token.NoPos:
			if sl, isSl := params.At(params.Len() - 1).Type().(*types.Slice); isSl {
				pt = sl.Elem()
			}
		case params.Len() > 0:
			pt = params.At(params.Len() - 1).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // instantiation decides; bounded
		}
		at := p.Info.Types[arg]
		if at.Type == nil || at.IsNil() || at.Value != nil {
			continue // nil and constants convert without a runtime allocation
		}
		if types.IsInterface(at.Type) {
			continue // interface-to-interface conversions don't box
		}
		if _, isTP := at.Type.(*types.TypeParam); isTP {
			continue
		}
		if pointerShaped(at.Type) {
			continue // stored directly in the interface word
		}
		emit(arg.Pos(), "interface boxing of "+at.Type.String()+" allocates")
	}
}

// allocatingStringConv reports whether a conversion dst(src) copies its
// operand: string <-> []byte / []rune in either direction.
func allocatingStringConv(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit directly in an interface
// data word without boxing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// unparen strips parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
