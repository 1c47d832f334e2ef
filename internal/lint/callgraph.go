package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the type-resolved static call graph the interprocedural
// analyzers run on. Nodes are function bodies: every declared function and
// method, and every function literal (literals are analysis units of their
// own — they run with their own lock state and may be hot roots). Edges are
// static calls:
//
//   - package-level functions and qualified pkg.Func calls resolve through
//     go/types object identity;
//   - method calls resolve when the receiver is a concrete type (generic
//     instantiations canonicalize through types.Func.Origin);
//   - immediately invoked function literals resolve to the literal's node.
//
// Calls through function values, struct fields, and interface methods have
// no static callee. They are recorded as CallsUnknown on the caller rather
// than guessed at: the analyzers treat unknown callees as silent (bounded
// analysis — no finding is ever produced through an edge that cannot be
// proven), which is the same trade go vet makes.
//
// Hot-path roots are declared in source with a //lint:hotpath directive: in
// the doc comment of a declared function, or on the line of (or the line
// directly above) a function literal — the latter is how the kernel run
// closures in core.KernelBenchmarks() are annotated.

// CallKind distinguishes how a call site transfers control.
type CallKind uint8

const (
	// CallSync is an ordinary call: the caller blocks until it returns.
	CallSync CallKind = iota
	// CallGo spawns the callee on a new goroutine; it cannot block the
	// caller and does not extend the caller's hot path.
	CallGo
	// CallDefer runs the callee when the caller returns; it still runs on
	// the caller's goroutine (and under any still-held locks).
	CallDefer
)

// CGEdge is one static call edge, anchored at its call site.
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	Pos    token.Pos
	Kind   CallKind
}

// CGNode is one function body in the call graph.
type CGNode struct {
	// Pkg is the package the body lives in.
	Pkg *Package
	// Fn is the declared function object (nil for literals). Generic
	// functions are keyed by their uninstantiated origin.
	Fn *types.Func
	// Lit is the function literal (nil for declared functions).
	Lit *ast.FuncLit
	// Name is the fully qualified render, e.g.
	// "astream/internal/core.(*SharedSelection).OnTuple" or
	// "astream/internal/core.KernelBenchmarks$2$1" for nested literals.
	Name string
	// Body is the function body (never nil; bodyless declarations get no
	// node).
	Body *ast.BlockStmt
	// Pos is the function's position.
	Pos token.Pos
	// Hot marks a //lint:hotpath annotation.
	Hot bool
	// Out lists static call edges in source order.
	Out []*CGEdge
	// In lists incoming edges, sorted by caller name then position.
	In []*CGEdge
	// CallsUnknown records that the body contains at least one call with
	// no static callee (function value or interface method).
	CallsUnknown bool
}

// DisplayName is the short render used in finding messages: the function
// name without its package path ("(*SharedSelection).OnTuple").
func (n *CGNode) DisplayName() string {
	if i := strings.LastIndex(n.Name, "/"); i >= 0 {
		rest := n.Name[i+1:]
		if j := strings.Index(rest, "."); j >= 0 {
			return rest[j+1:]
		}
		return rest
	}
	if j := strings.Index(n.Name, "."); j >= 0 {
		return n.Name[j+1:]
	}
	return n.Name
}

// CallGraph is the static call graph of one module load.
type CallGraph struct {
	// Nodes holds every function body in deterministic order: package
	// path, then file name, then offset.
	Nodes []*CGNode
	// Bad collects //lint:hotpath directives attached to no function: a
	// root that drifted off its literal would silently drop its 0-allocs
	// region. hotalloc reports them.
	Bad []Diagnostic

	byObj map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode
}

// NodeFor returns the node for a declared function (nil when the function
// has no body in the load, e.g. stdlib). Generic instantiations resolve to
// their origin's node.
func (g *CallGraph) NodeFor(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.byObj[fn.Origin()]
}

// NodeForLit returns the node of a function literal.
func (g *CallGraph) NodeForLit(lit *ast.FuncLit) *CGNode { return g.byLit[lit] }

// BuildCallGraph constructs the call graph over every package of a load.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: map[*types.Func]*CGNode{},
		byLit: map[*ast.FuncLit]*CGNode{},
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	// Pass 1: one node per function body. Literals are named after their
	// enclosing node with a $n suffix in source order.
	for _, p := range sorted {
		hot := parseDirectives(p, "hotpath")
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &CGNode{
					Pkg:  p,
					Fn:   fn,
					Name: declName(p, fd, fn),
					Body: fd.Body,
					Pos:  fd.Pos(),
					Hot:  directiveFor(hot, p, fd.Pos(), fd.Doc) != nil,
				}
				g.byObj[fn] = n
				g.Nodes = append(g.Nodes, n)
				g.addLits(p, n, fd.Body, hot)
			}
		}
		g.Bad = append(g.Bad, unattached(hot, "hotalloc", "does not attach to a function or function literal")...)
	}
	g.sortNodes()

	// Pass 2: edges.
	for _, n := range g.Nodes {
		g.addEdges(n)
	}
	for _, n := range g.Nodes {
		sort.SliceStable(n.In, func(i, j int) bool {
			if n.In[i].Caller.Name != n.In[j].Caller.Name {
				return n.In[i].Caller.Name < n.In[j].Caller.Name
			}
			return n.In[i].Pos < n.In[j].Pos
		})
	}
	return g
}

// declName renders the qualified name of a declared function or method.
func declName(p *Package, fd *ast.FuncDecl, fn *types.Func) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return p.Path + "." + fn.Name()
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	// Strip type parameter lists from generic receivers for readability.
	if i := strings.IndexByte(recv, '['); i >= 0 {
		recv = recv[:i] + recv[strings.IndexByte(recv, ']')+1:]
	}
	if strings.HasPrefix(recv, "*") {
		return p.Path + ".(" + recv + ")." + fn.Name()
	}
	return p.Path + "." + recv + "." + fn.Name()
}

// addLits creates nodes for the function literals directly inside body
// (literals nested in other literals recurse with the inner node as
// parent, so names compose: Outer$1$2).
func (g *CallGraph) addLits(p *Package, parent *CGNode, body *ast.BlockStmt, hot []*directive) {
	count := 0
	ast.Inspect(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		count++
		n := &CGNode{
			Pkg:  p,
			Lit:  lit,
			Name: fmt.Sprintf("%s$%d", parent.Name, count),
			Body: lit.Body,
			Pos:  lit.Pos(),
			Hot:  directiveFor(hot, p, lit.Pos(), nil) != nil,
		}
		g.byLit[lit] = n
		g.Nodes = append(g.Nodes, n)
		g.addLits(p, n, lit.Body, hot)
		return false // inner literals handled by the recursion above
	})
}

func (g *CallGraph) sortNodes() {
	sort.Slice(g.Nodes, func(i, j int) bool {
		a, b := g.Nodes[i], g.Nodes[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		pa, pb := a.Pkg.Fset.Position(a.Pos), b.Pkg.Fset.Position(b.Pos)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Offset < pb.Offset
	})
}

// addEdges walks one node's body (excluding nested literals, which are
// their own nodes) resolving every call expression.
func (g *CallGraph) addEdges(n *CGNode) {
	p := n.Pkg
	// Calls that are the direct operand of go/defer get their kind from
	// the statement.
	kinds := map[*ast.CallExpr]CallKind{}
	walkOwn(n, func(node ast.Node) {
		switch st := node.(type) {
		case *ast.GoStmt:
			kinds[st.Call] = CallGo
		case *ast.DeferStmt:
			kinds[st.Call] = CallDefer
		}
	})
	walkOwn(n, func(node ast.Node) {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return
		}
		callee, unknown := g.resolveCall(p, call)
		if unknown {
			n.CallsUnknown = true
			return
		}
		if callee == nil {
			return // builtin, conversion, or function outside the load
		}
		kind := CallSync
		if k, ok := kinds[call]; ok {
			kind = k
		}
		e := &CGEdge{Caller: n, Callee: callee, Pos: call.Pos(), Kind: kind}
		n.Out = append(n.Out, e)
		callee.In = append(callee.In, e)
	})
}

// walkOwn visits every AST node of n's body except the interiors of nested
// function literals (the literal node itself is visited).
func walkOwn(n *CGNode, fn func(ast.Node)) {
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			fn(lit)
			return false
		}
		if node != nil {
			fn(node)
		}
		return true
	})
}

// calleeOf resolves the function expression of a call, looking through
// parentheses and generic instantiation: fun is the stripped expression and
// obj the object it names — a *types.Func (function or method, interface
// methods included), a *types.Builtin, a *types.TypeName (conversion) or a
// *types.Var (function value; for fs[i](…) the indexed table). obj is nil
// when fun names nothing: a function literal, a call result.
func calleeOf(p *Package, call *ast.CallExpr) (fun ast.Expr, obj types.Object) {
	fun = call.Fun
	for {
		switch f := fun.(type) {
		case *ast.ParenExpr:
			fun = f.X
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.Ident:
			return fun, p.Info.Uses[f]
		case *ast.SelectorExpr:
			return fun, p.Info.Uses[f.Sel] // qualified name, method or field
		default:
			return fun, nil
		}
	}
}

// calledFunc returns the *types.Func a call statically names, if any.
func calledFunc(p *Package, call *ast.CallExpr) *types.Func {
	_, obj := calleeOf(p, call)
	fn, _ := obj.(*types.Func)
	return fn
}

// builtinName returns the name of the builtin a call invokes, "" otherwise.
func builtinName(p *Package, call *ast.CallExpr) string {
	_, obj := calleeOf(p, call)
	if b, ok := obj.(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// resolveCall resolves a call expression to its static callee node.
// unknown=true means the callee is a function value or interface method
// that static analysis cannot (and must not pretend to) resolve; both
// return values zero means the call is a builtin, a type conversion, or a
// function with no body in the load.
func (g *CallGraph) resolveCall(p *Package, call *ast.CallExpr) (callee *CGNode, unknown bool) {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil, false // conversion
	}
	fun, obj := calleeOf(p, call)
	switch o := obj.(type) {
	case *types.Func:
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if s := p.Info.Selections[sel]; s != nil && types.IsInterface(s.Recv()) {
				return nil, true // dynamic dispatch
			}
		}
		return g.NodeFor(o), false
	case *types.Builtin, *types.TypeName:
		return nil, false
	case nil:
		switch f := fun.(type) {
		case *ast.FuncLit:
			return g.NodeForLit(f), false
		case *ast.Ident, *ast.SelectorExpr:
			return nil, false // unresolved name
		}
	}
	return nil, true // function-typed variable, parameter, field or result
}
