package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewLeakyGo builds the goroutine-teardown analyzer. Ad-hoc queries come
// and go at runtime (paper §3.1.1), so every long-lived goroutine an
// operator or driver spawns must have a shutdown path: the channel it
// blocks on must be closed somewhere, or the goroutine must watch a
// context / done channel. The analyzer flags `go func() { ... }()`
// launches whose body blocks on a captured channel with none of those
// signals in evidence:
//
//   - a `for range ch` loop is fine (terminates when the channel closes),
//   - a comma-ok receive is fine (the code observes closure),
//   - a select with a default or with multiple cases is fine (assumed to
//     include a cancel arm),
//   - any use of a context.Context in the body is fine,
//   - a close() of the same channel expression in the same file is fine.
func NewLeakyGo() *Analyzer {
	a := &Analyzer{
		Name: "leakygo",
		Doc:  "flags goroutines blocking on a captured channel with no close/context/done signal",
	}
	a.Run = func(p *Package) []Diagnostic {
		var diags []Diagnostic
		for _, f := range p.Files {
			closed := closedChannelExprs(p, f)
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true
				}
				if ch := leakyChannel(p, lit, closed); ch != "" {
					diags = append(diags, a.Diag(p, g.Go,
						"goroutine blocks on captured channel %s with no close, context, or done signal in scope; it leaks on teardown", ch))
				}
				return true
			})
		}
		return diags
	}
	return a
}

// closedChannelExprs collects the rendered argument of every close() call
// in the file.
func closedChannelExprs(p *Package, f *ast.File) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || builtinName(p, call) != "close" {
			return true
		}
		out[types.ExprString(call.Args[0])] = true
		return true
	})
	return out
}

// leakyChannel returns the rendered channel expression a goroutine body
// blocks on with no shutdown signal, or "" when the body looks safe.
func leakyChannel(p *Package, lit *ast.FuncLit, closed map[string]bool) string {
	safe := false
	blocking := "" // first unguarded blocking op's channel
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if safe {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != lit {
				return false // nested goroutine bodies judged separately
			}
		case *ast.SelectStmt:
			cases := 0
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					if cc.Comm == nil {
						hasDefault = true
					} else {
						cases++
					}
				}
			}
			if hasDefault || cases >= 2 {
				safe = true
				return false
			}
		case *ast.RangeStmt:
			if isCapturedChan(p, lit, n.X) {
				safe = true // for range ch ends when the channel closes
				return false
			}
		case *ast.AssignStmt:
			// v, ok := <-ch observes closure.
			if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
				if u, ok := n.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					safe = true
					return false
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isCapturedChan(p, lit, n.X) && blocking == "" {
				blocking = types.ExprString(n.X)
			}
		case *ast.SendStmt:
			if isCapturedChan(p, lit, n.Chan) && blocking == "" {
				blocking = types.ExprString(n.Chan)
			}
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil && obj.Type() != nil {
				if named, ok := obj.Type().(*types.Named); ok {
					o := named.Obj()
					if o.Pkg() != nil && o.Pkg().Path() == "context" && o.Name() == "Context" {
						safe = true // the body can watch ctx.Done()
						return false
					}
				}
			}
		}
		return true
	})
	if safe || blocking == "" || closed[blocking] {
		return ""
	}
	return blocking
}

// isCapturedChan reports whether e is channel-typed and rooted at a
// variable declared outside the function literal (i.e. captured).
func isCapturedChan(p *Package, lit *ast.FuncLit, e ast.Expr) bool {
	t := p.Info.Types[e].Type
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	id := rootIdent(e)
	if id == nil {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return false
	}
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}
