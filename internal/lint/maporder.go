package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// emitPrefixes are call-name prefixes treated as ordered-output emission:
// writing to an encoder, log, stream, or sink from inside a map range makes
// the output order nondeterministic.
var emitPrefixes = []string{"Write", "Encode", "Emit", "Fprint", "Print", "Append", "Deliver", "Push"}

// NewMapOrder builds the determinism analyzer: inside the packages listed
// in scope (exact path or "prefix/..." pattern; empty scope = every
// package), it flags `range` over a map whose body feeds an ordered output
// — an append to an outer slice, a channel send, or an encode/write call —
// unless the function sorts after the loop. Checkpoint encoding, changelog
// emission, and result routing must be byte-identical across runs for
// replay determinism (paper §3.3) and transactional sinks.
func NewMapOrder(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "flags map iteration feeding deterministic outputs without an intervening sort",
	}
	a.Run = func(p *Package) []Diagnostic {
		if len(scope) > 0 && !pathMatches(p.Path, scope) {
			return nil
		}
		var diags []Diagnostic
		forEachFunc(p, func(_ *ast.FuncType, body *ast.BlockStmt) {
			// Sort calls anywhere in this function, by position.
			var sortEnds []ast.Node
			ast.Inspect(body, func(n ast.Node) bool {
				// Note: nested closures are not skipped here — sort.Slice
				// takes a closure, and a sort buried in one still orders
				// data for this function.
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && isSortCall(obj.Pkg().Path(), obj.Name()) {
						sortEnds = append(sortEnds, call)
					}
				}
				return true
			})
			ast.Inspect(body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
					// Nested closures get their own forEachFunc visit;
					// skipping them here avoids duplicate findings.
					return false
				}
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.Info.Types[rng.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				why := emitsOrderedOutput(p, rng)
				if why == "" {
					return true
				}
				for _, sc := range sortEnds {
					if sc.Pos() > rng.End() {
						return true // sorted downstream of the loop
					}
				}
				diags = append(diags, a.Diag(p, rng.For,
					"map iteration order is random but the loop %s; collect and sort before emitting", why))
				return true
			})
		})
		return diags
	}
	return a
}

// isSortCall reports whether pkg.name actually orders data — sort.Search
// and sort.IsSorted inspect without ordering and must not count.
func isSortCall(pkgPath, name string) bool {
	switch pkgPath {
	case "sort":
		return !strings.HasPrefix(name, "Search") && !strings.HasPrefix(name, "IsSorted")
	case "slices":
		return strings.HasPrefix(name, "Sort")
	}
	return false
}

// emitsOrderedOutput reports how a range body feeds an ordered output
// ("" when it does not): appending to a slice declared outside the loop,
// sending on a channel, or calling a write/encode-style function.
func emitsOrderedOutput(p *Package, rng *ast.RangeStmt) string {
	why := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			why = "sends on a channel"
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" && len(n.Args) > 0 && appendTargetOutside(p, n.Args[0], rng) {
					why = "appends to a slice built outside it"
				}
			case *ast.SelectorExpr:
				for _, pre := range emitPrefixes {
					if strings.HasPrefix(fun.Sel.Name, pre) {
						why = "calls " + fun.Sel.Name
						break
					}
				}
			}
		}
		return true
	})
	return why
}

// appendTargetOutside reports whether the first append argument names a
// variable declared outside the range statement.
func appendTargetOutside(p *Package, arg ast.Expr, rng *ast.RangeStmt) bool {
	id := rootIdent(arg)
	if id == nil {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// rootIdent unwraps selectors/indexes to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
