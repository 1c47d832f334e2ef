package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
)

// NewSnapSymmetry builds the snapshot-symmetry analyzer: for every
// Snapshot/Restore pair it reduces both sides to a normalized byte-shape —
// the sequence of fixed-width writes, variable-length writes, repeated
// groups, and conditional groups the function performs — and reports the
// first position where the decode shape diverges from the encode shape.
// A swap of two fields, a width mismatch, or a field read on only one side
// all surface here at vet time instead of as garbage state at recovery.
//
// The reduction understands the module's framing idioms:
//
//   - encode: `append(b, x)` is one byte per argument, `append(b, p...)`
//     is variable-length, binary.LittleEndian.AppendUintN is N/8 bytes;
//     helpers threading a []byte parameter to a []byte result are inlined,
//     as are function-literal payloads passed through parameters (the
//     snapSlicer pattern);
//   - decode: the byte-reader idiom — a struct carrying `b []byte` and
//     `err error` — advances with `r.b = r.b[K:]`, K constant for a
//     fixed-width read, anything else variable-length; functions and
//     methods taking the reader are inlined.
//
// Inlining follows calls into any package of the load, each body resolved
// against its own package's type information, so the module's shared
// writer/reader (internal/wire) is learned from its source like any local
// helper — no package is special-cased.
//
// Loops become repeated groups compared structurally (counts are runtime
// values). An `if` becomes a conditional group, with any reads in its
// init/cond emitted first; a branch that returns after emitting exactly
// the shape the fall-through path starts with is the presence-flag idiom
// and is flattened. Conditionals with else branches, switches, and calls
// through unbound function parameters are opaque: they compare equal only
// to an opaque node on the other side. Calls that do not thread the byte
// slice or the reader cannot move the cursor and are ignored.
func NewSnapSymmetry(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "snapshot-symmetry",
		Doc:  "proves Restore consumes snapshot bytes in the exact shape Snapshot produces them",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		var diags []Diagnostic
		decls := funcDecls(m.Pkgs)
		for _, pair := range findStatePairs(m, scope) {
			encB := &shapeBuilder{p: pair.enc.Pkg, decls: decls, stack: map[ast.Node]bool{}}
			enc := encB.blockShape(pair.enc.Body.List, nil)
			decB := &shapeBuilder{p: pair.dec.Pkg, decls: decls, decode: true, stack: map[ast.Node]bool{}}
			dec := decB.blockShape(pair.dec.Body.List, nil)
			d := diffShapes(enc, dec)
			if d == nil {
				continue
			}
			pos := pair.dec.Fn.Pos()
			if d.dec != nil {
				pos = d.dec.pos
			}
			encDesc := describeShape(d.enc)
			if d.enc != nil {
				encDesc += " (" + shortPos(pair.enc.Pkg, d.enc.pos) + ")"
			}
			diags = append(diags, a.Diag(pair.dec.Pkg, pos,
				"%s decodes %s where %s encodes %s: snapshot framing is asymmetric for %s",
				pair.dec.Fn.Name(), describeShape(d.dec), pair.enc.Fn.Name(), encDesc, pair.name))
		}
		return diags
	}
	return a
}

type shapeKind int

const (
	shapeOp     shapeKind = iota // fixed-width read or write
	shapeVar                     // variable-length bytes
	shapeLoop                    // repeated group
	shapeCond                    // conditional group
	shapeOpaque                  // construct the reduction cannot model
)

// shapeNode is one element of a normalized byte-shape.
type shapeNode struct {
	kind  shapeKind
	width int // shapeOp only
	kids  []*shapeNode
	// terminal marks a conditional whose branch returns, enabling the
	// presence-flag flattening in normalizeShapes.
	terminal bool
	pos      token.Pos
}

// shapeBuilder reduces one side of a pair, inlining the helpers it calls.
type shapeBuilder struct {
	// p is the package whose type information resolves the code being
	// walked; inline switches it to the callee's package for the callee's
	// body.
	p      *Package
	decls  map[types.Object]inlineBody
	decode bool
	// stack guards against recursive helpers: re-entry reduces to opaque.
	stack map[ast.Node]bool
}

// inlineBody is a function declaration or literal that can be spliced into
// a caller's shape, together with the package that declares it.
type inlineBody struct {
	p     *Package
	key   ast.Node // the declaration or literal, for the recursion guard
	ftype *ast.FuncType
	body  *ast.BlockStmt
}

// bindings maps function-typed parameters to the literals bound to them.
type bindings map[types.Object]inlineBody

// funcDecls indexes every function and method declaration of the load by
// its type-checker object, for body lookup when inlining.
func funcDecls(pkgs []*Package) map[types.Object]inlineBody {
	out := map[types.Object]inlineBody{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if obj := p.Info.Defs[fd.Name]; obj != nil {
						out[obj] = inlineBody{p: p, key: fd, ftype: fd.Type, body: fd.Body}
					}
				}
			}
		}
	}
	return out
}

func (sb *shapeBuilder) blockShape(stmts []ast.Stmt, bind bindings) []*shapeNode {
	var out []*shapeNode
	for _, s := range stmts {
		sb.stmtShape(s, bind, &out)
	}
	return normalizeShapes(out)
}

func (sb *shapeBuilder) stmtShape(s ast.Stmt, bind bindings, out *[]*shapeNode) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			sb.exprShape(r, bind, out)
		}
		if sb.decode {
			sb.advanceShape(x, out)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sb.exprShape(v, bind, out)
					}
				}
			}
		}
	case *ast.ExprStmt:
		sb.exprShape(x.X, bind, out)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			sb.exprShape(r, bind, out)
		}
	case *ast.IfStmt:
		if x.Init != nil {
			sb.stmtShape(x.Init, bind, out)
		}
		sb.exprShape(x.Cond, bind, out)
		if x.Else != nil {
			*out = append(*out, &shapeNode{kind: shapeOpaque, pos: x.Pos()})
			return
		}
		kids := sb.blockShape(x.Body.List, bind)
		if len(kids) > 0 {
			*out = append(*out, &shapeNode{
				kind: shapeCond, kids: kids, terminal: endsInReturn(x.Body), pos: x.Pos(),
			})
		}
	case *ast.ForStmt:
		if x.Init != nil {
			sb.stmtShape(x.Init, bind, out)
		}
		sb.exprShape(x.Cond, bind, out)
		stmts := x.Body.List
		if x.Post != nil {
			stmts = append(stmts[:len(stmts):len(stmts)], x.Post)
		}
		if kids := sb.blockShape(stmts, bind); len(kids) > 0 {
			*out = append(*out, &shapeNode{kind: shapeLoop, kids: kids, pos: x.Pos()})
		}
	case *ast.RangeStmt:
		sb.exprShape(x.X, bind, out)
		if kids := sb.blockShape(x.Body.List, bind); len(kids) > 0 {
			*out = append(*out, &shapeNode{kind: shapeLoop, kids: kids, pos: x.Pos()})
		}
	case *ast.BlockStmt:
		for _, inner := range x.List {
			sb.stmtShape(inner, bind, out)
		}
	case *ast.LabeledStmt:
		sb.stmtShape(x.Stmt, bind, out)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		*out = append(*out, &shapeNode{kind: shapeOpaque, pos: x.Pos()})
	case *ast.SendStmt:
		sb.exprShape(x.Chan, bind, out)
		sb.exprShape(x.Value, bind, out)
		// GoStmt and DeferStmt run off the serial encode/decode path and
		// are ignored, like go edges in reachability.
	}
}

// exprShape walks an expression in evaluation order, emitting shape nodes
// for the byte-moving calls it contains.
func (sb *shapeBuilder) exprShape(e ast.Expr, bind bindings, out *[]*shapeNode) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		sb.callShape(x, bind, out)
	case *ast.FuncLit:
		// Literal bodies count only where invoked, through a binding.
	case *ast.ParenExpr:
		sb.exprShape(x.X, bind, out)
	case *ast.UnaryExpr:
		sb.exprShape(x.X, bind, out)
	case *ast.StarExpr:
		sb.exprShape(x.X, bind, out)
	case *ast.BinaryExpr:
		sb.exprShape(x.X, bind, out)
		sb.exprShape(x.Y, bind, out)
	case *ast.SelectorExpr:
		sb.exprShape(x.X, bind, out)
	case *ast.IndexExpr:
		sb.exprShape(x.X, bind, out)
		sb.exprShape(x.Index, bind, out)
	case *ast.SliceExpr:
		sb.exprShape(x.X, bind, out)
		sb.exprShape(x.Low, bind, out)
		sb.exprShape(x.High, bind, out)
		sb.exprShape(x.Max, bind, out)
	case *ast.TypeAssertExpr:
		sb.exprShape(x.X, bind, out)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			sb.exprShape(el, bind, out)
		}
	case *ast.KeyValueExpr:
		sb.exprShape(x.Value, bind, out)
	}
}

func (sb *shapeBuilder) callShape(call *ast.CallExpr, bind bindings, out *[]*shapeNode) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		sb.exprShape(sel.X, bind, out)
	}
	for _, arg := range call.Args {
		sb.exprShape(arg, bind, out)
	}
	_, obj := calleeOf(sb.p, call)
	if !sb.decode {
		if b, ok := obj.(*types.Builtin); ok && b.Name() == "append" &&
			len(call.Args) > 0 && byteSliceType(sb.typeOf(call.Args[0])) {
			if call.Ellipsis != token.NoPos {
				*out = append(*out, &shapeNode{kind: shapeVar, pos: call.Pos()})
			} else if len(call.Args) > 1 {
				*out = append(*out, &shapeNode{kind: shapeOp, width: len(call.Args) - 1, pos: call.Pos()})
			}
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
			switch fn.Name() {
			case "AppendUint16":
				*out = append(*out, &shapeNode{kind: shapeOp, width: 2, pos: call.Pos()})
				return
			case "AppendUint32":
				*out = append(*out, &shapeNode{kind: shapeOp, width: 4, pos: call.Pos()})
				return
			case "AppendUint64":
				*out = append(*out, &shapeNode{kind: shapeOp, width: 8, pos: call.Pos()})
				return
			}
		}
	}
	switch o := obj.(type) {
	case *types.Func:
		if decl, ok := sb.decls[o]; ok && sb.inlinable(o) {
			sb.inline(decl, call, bind, out)
		}
	case *types.Var:
		if lit, ok := bind[o]; ok {
			sb.inline(lit, call, bind, out)
		} else if sig, ok := o.Type().Underlying().(*types.Signature); ok && sb.threadsState(sig) {
			// A call through an unbound function value could move the
			// cursor arbitrarily; refuse to guess.
			*out = append(*out, &shapeNode{kind: shapeOpaque, pos: call.Pos()})
		}
	}
}

// inlinable reports whether a called function participates in the framing:
// on the encode side it threads a []byte parameter to a []byte result, on
// the decode side it takes the byte-reader as receiver or parameter.
func (sb *shapeBuilder) inlinable(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sb.decode && sig.Recv() != nil && readerStruct(sig.Recv().Type()) {
		return true
	}
	return sb.threadsState(sig)
}

func (sb *shapeBuilder) threadsState(sig *types.Signature) bool {
	if sb.decode {
		for i := 0; i < sig.Params().Len(); i++ {
			if readerStruct(sig.Params().At(i).Type()) {
				return true
			}
		}
		return false
	}
	var param, result bool
	for i := 0; i < sig.Params().Len(); i++ {
		param = param || byteSliceType(sig.Params().At(i).Type())
	}
	for i := 0; i < sig.Results().Len(); i++ {
		result = result || byteSliceType(sig.Results().At(i).Type())
	}
	return param && result
}

// inline splices a callee's shape into the caller, binding any function
// literals (or already-bound parameters) the call passes along. The call's
// arguments belong to the caller's package, the callee's parameters and
// body to its own.
func (sb *shapeBuilder) inline(fn inlineBody, call *ast.CallExpr, bind bindings, out *[]*shapeNode) {
	if sb.stack[fn.key] {
		*out = append(*out, &shapeNode{kind: shapeOpaque, pos: call.Pos()})
		return
	}
	inner := bindings{}
	i := 0
	for _, fld := range fn.ftype.Params.List {
		for _, name := range fld.Names {
			if i < len(call.Args) {
				switch arg := unparen(call.Args[i]).(type) {
				case *ast.FuncLit:
					inner[fn.p.Info.Defs[name]] = inlineBody{p: sb.p, key: arg, ftype: arg.Type, body: arg.Body}
				case *ast.Ident:
					if lit, ok := bind[sb.p.Info.Uses[arg]]; ok {
						inner[fn.p.Info.Defs[name]] = lit
					}
				}
			}
			i++
		}
	}
	caller := sb.p
	sb.p = fn.p
	sb.stack[fn.key] = true
	kids := sb.blockShape(fn.body.List, inner)
	delete(sb.stack, fn.key)
	sb.p = caller
	// Anchor spliced nodes at the call site: a mismatch against `r.u32()`
	// should point at the Restore line that called it, not at the shared
	// reader helper's interior.
	anchorShapes(kids, call.Pos())
	*out = append(*out, kids...)
}

// anchorShapes moves a spliced shape, nested groups included, to pos: the
// callee's interior may belong to another package's files.
func anchorShapes(list []*shapeNode, pos token.Pos) {
	for _, n := range list {
		n.pos = pos
		anchorShapes(n.kids, pos)
	}
}

// advanceShape recognizes the reader's cursor movement: `r.b = r.b[K:]`.
func (sb *shapeBuilder) advanceShape(as *ast.AssignStmt, out *[]*shapeNode) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return
	}
	sel, ok := as.Lhs[0].(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "b" || !readerStruct(sb.typeOf(sel.X)) {
		return
	}
	sl, ok := unparen(as.Rhs[0]).(*ast.SliceExpr)
	if !ok || sl.Low == nil {
		return
	}
	if tv, ok := sb.p.Info.Types[sl.Low]; ok && tv.Value != nil {
		if w, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			*out = append(*out, &shapeNode{kind: shapeOp, width: int(w), pos: as.Pos()})
			return
		}
	}
	*out = append(*out, &shapeNode{kind: shapeVar, pos: as.Pos()})
}

func (sb *shapeBuilder) typeOf(e ast.Expr) types.Type {
	return sb.p.Info.Types[e].Type
}

// readerStruct reports whether t is (a pointer to) the byte-reader idiom: a
// struct carrying the remaining input in `b []byte` and a sticky `err`.
func readerStruct(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	var hasB, hasErr bool
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		switch {
		case f.Name() == "b" && byteSliceType(f.Type()):
			hasB = true
		case f.Name() == "err" && errorType(f.Type()):
			hasErr = true
		}
	}
	return hasB && hasErr
}

func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// normalizeShapes flattens the presence-flag idiom: a conditional branch
// that returns after emitting exactly what the fall-through path emits next
// (encode `if v { return append(b, 1) }; return append(b, 0)`, or a nil
// store writing just its absence flag) adds no framing of its own.
func normalizeShapes(list []*shapeNode) []*shapeNode {
	for changed := true; changed; {
		changed = false
		for i, n := range list {
			if n.kind == shapeCond && n.terminal && shapePrefix(n.kids, list[i+1:]) {
				list = append(list[:i], list[i+1:]...)
				changed = true
				break
			}
		}
	}
	return list
}

func shapePrefix(kids, rest []*shapeNode) bool {
	if len(kids) > len(rest) {
		return false
	}
	for i := range kids {
		if !shapeEqual(kids[i], rest[i]) {
			return false
		}
	}
	return true
}

func shapeEqual(a, b *shapeNode) bool {
	if a.kind != b.kind || a.width != b.width || len(a.kids) != len(b.kids) {
		return false
	}
	for i := range a.kids {
		if !shapeEqual(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}

// shapeDiff is the first point of divergence; a nil side means that shape
// ended while the other continued.
type shapeDiff struct {
	enc, dec *shapeNode
}

func diffShapes(enc, dec []*shapeNode) *shapeDiff {
	for i := 0; i < len(enc) || i < len(dec); i++ {
		var e, d *shapeNode
		if i < len(enc) {
			e = enc[i]
		}
		if i < len(dec) {
			d = dec[i]
		}
		if e == nil || d == nil {
			return &shapeDiff{enc: e, dec: d}
		}
		if e.kind != d.kind || e.width != d.width {
			return &shapeDiff{enc: e, dec: d}
		}
		if e.kind == shapeLoop || e.kind == shapeCond {
			if sub := diffShapes(e.kids, d.kids); sub != nil {
				return sub
			}
		}
	}
	return nil
}

func describeShape(n *shapeNode) string {
	if n == nil {
		return "nothing (the shape ends)"
	}
	switch n.kind {
	case shapeOp:
		return fmt.Sprintf("a %d-byte field", n.width)
	case shapeVar:
		return "variable-length bytes"
	case shapeLoop:
		return "a repeated group"
	case shapeCond:
		return "a conditional group"
	default:
		return "an opaque construct"
	}
}

func shortPos(p *Package, pos token.Pos) string {
	pp := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(pp.Filename), pp.Line)
}
