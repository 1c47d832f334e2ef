package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is snapcover's substrate: discovery of Snapshot/Restore pairs,
// the //lint:ephemeral field annotation, and receiver-field dataflow over
// the module call graph.
//
// A *state pair* is a named struct type together with its serialization
// couple:
//
//   - an encode root: a method named Snapshot or OnBarrier whose single
//     result is []byte (OnBarrier is how spe.Logic implementations emit
//     their barrier snapshot);
//   - a decode root: a method Restore([]byte) error, or a package-level
//     constructor whose name ends in "FromSnapshot" returning (*T, error).
//
// Once state goes durable, a field missing from either side of a pair is
// permanent corruption discovered only at recovery time, so fields are
// accounted for explicitly: serialized, repopulated, or annotated
//
//	//lint:ephemeral <reason>
//	//lint:ephemeral derived <reason>
//
// on the field's line or alone on the line directly above. The plain form
// declares a scratch field (buffers, freelists, constructor configuration)
// that recovery legitimately rebuilds from scratch. The "derived" form
// declares a field computed from serialized state; it must be repopulated
// by a function statically reachable from the decode root, and snapcover
// verifies that. The reason is mandatory, exactly as for //lint:ignore.

// statePair is one discovered Snapshot/Restore couple.
type statePair struct {
	pkg  *Package
	name string // the struct type's name, for messages
	typ  *types.Named
	enc  *CGNode // Snapshot() []byte or OnBarrier(...) []byte
	dec  *CGNode // Restore([]byte) error or <X>FromSnapshot([]byte) (*T, error)
}

// byteSliceType reports whether t is []byte.
func byteSliceType(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// errorType reports whether t is the built-in error interface.
func errorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// namedRecv returns the named type behind a method's receiver (pointer
// receivers dereferenced), or nil for plain functions.
func namedRecv(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// findStatePairs discovers every state pair declared in the packages
// matching scope (empty scope: every package), in deterministic order.
func findStatePairs(m *Module, scope []string) []*statePair {
	g := m.Graph()
	encs := map[*types.Named]*CGNode{}
	decs := map[*types.Named]*CGNode{}
	for _, n := range g.Nodes {
		if n.Fn == nil {
			continue
		}
		if len(scope) > 0 && !pathMatches(n.Pkg.Path, scope) {
			continue
		}
		sig := n.Fn.Type().(*types.Signature)
		switch {
		case (n.Fn.Name() == "Snapshot" || n.Fn.Name() == "OnBarrier") &&
			sig.Results().Len() == 1 && byteSliceType(sig.Results().At(0).Type()):
			if recv := namedRecv(n.Fn); recv != nil {
				// Prefer Snapshot when a type has both encode spellings.
				if prev, ok := encs[recv]; !ok || prev.Fn.Name() != "Snapshot" {
					encs[recv] = n
				}
			}
		case n.Fn.Name() == "Restore" &&
			sig.Params().Len() == 1 && byteSliceType(sig.Params().At(0).Type()) &&
			sig.Results().Len() == 1 && errorType(sig.Results().At(0).Type()):
			if recv := namedRecv(n.Fn); recv != nil {
				decs[recv] = n
			}
		case strings.HasSuffix(n.Fn.Name(), "FromSnapshot") && sig.Recv() == nil &&
			sig.Results().Len() == 2 && errorType(sig.Results().At(1).Type()):
			t := sig.Results().At(0).Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				decs[named] = n
			}
		}
	}
	var pairs []*statePair
	for recv, enc := range encs {
		dec, ok := decs[recv]
		if !ok {
			continue
		}
		if _, ok := recv.Underlying().(*types.Struct); !ok {
			continue
		}
		pairs = append(pairs, &statePair{
			pkg:  enc.Pkg,
			name: recv.Obj().Name(),
			typ:  recv,
			enc:  enc,
			dec:  dec,
		})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].pkg.Path != pairs[j].pkg.Path {
			return pairs[i].pkg.Path < pairs[j].pkg.Path
		}
		return pairs[i].name < pairs[j].name
	})
	return pairs
}

// reachableFrom returns every node reachable from root over synchronous and
// deferred call edges (go edges excluded: a spawned goroutine is not part
// of the serialization path).
func reachableFrom(root *CGNode) map[*CGNode]bool {
	seen := map[*CGNode]bool{root: true}
	queue := []*CGNode{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if e.Kind == CallGo || seen[e.Callee] {
				continue
			}
			seen[e.Callee] = true
			queue = append(queue, e.Callee)
		}
	}
	return seen
}

// fieldTouches collects every struct field object referenced anywhere in
// the given node set: selector reads and writes, and composite-literal
// field keys (the decode side's `&T{f: ...}` construction idiom). Bodies
// are scanned whole, nested literals included: a payload closure invoked
// through a function value has no static call edge, but its field touches
// still belong to the enclosing serialization path (conservative in the
// right direction — coverage is never under-reported through a closure).
func fieldTouches(nodes map[*CGNode]bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for n := range nodes {
		p := n.Pkg
		ast.Inspect(n.Body, func(node ast.Node) bool {
			switch x := node.(type) {
			case *ast.SelectorExpr:
				if sel := p.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok {
						out[v] = true
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := x.Key.(*ast.Ident); ok {
					if v, ok := p.Info.Uses[key].(*types.Var); ok && v.IsField() {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// ephemeralReason interprets a //lint:ephemeral directive's text: whether
// it is the "derived" form, and the reason that follows.
func ephemeralReason(d *directive) (derived bool, reason string) {
	if rest, ok := strings.CutPrefix(d.text, "derived"); ok && (rest == "" || rest[0] == ' ' || rest[0] == ':') {
		return true, strings.TrimSpace(strings.TrimPrefix(rest, ":"))
	}
	return false, d.text
}
