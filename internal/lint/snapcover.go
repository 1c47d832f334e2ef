package lint

import "go/types"

// NewSnapCover builds the snapshot field-coverage analyzer: for every
// Snapshot/Restore pair (see statepair.go) declared in a scoped package,
// each field of the state struct must be accounted for on both sides of
// the serialization boundary —
//
//   - serialized: referenced by the encode root or any function statically
//     reachable from it (field-level dataflow over the call-graph, so a
//     helper like snapSlicer(b, j.sides[k], ...) covers the field it is
//     handed);
//   - repopulated: referenced by the decode root or any function reachable
//     from it (assignments, composite-literal keys, and reads all count —
//     a Restore that validates a configured field against the snapshot is
//     as deliberate as one that overwrites it);
//   - or annotated //lint:ephemeral <reason> (scratch state recovery may
//     rebuild from nothing) / //lint:ephemeral derived <reason> (state
//     computed from serialized fields — the snapshot side is waived, but
//     the field must still be repopulated by a function reachable from the
//     decode root, and that is verified).
//
// Contradictory annotations are findings too: an ephemeral field that the
// encode path does serialize means either the annotation or the encoder is
// lying, and once snapshots go durable that disagreement is permanent
// corruption. Fields of empty struct types (spe.BaseLogic embeds) carry no
// state and are skipped. A field whose type (by value or pointer) is a named,
// non-empty struct declared in a scoped package is audited field by field and
// reported as Outer.inner.field, unless the field carries an annotation of
// its own (which then covers the whole struct) or the type is itself a state
// pair (audited under its own name).
func NewSnapCover(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "snapcover",
		Doc:  "proves every state-struct field is serialized by Snapshot, repopulated by Restore, or annotated //lint:ephemeral",
	}
	a.RunModule = func(m *Module) []Diagnostic {
		var diags []Diagnostic
		ephByPkg := map[*Package][]*directive{}
		for _, p := range m.Pkgs {
			if len(scope) > 0 && !pathMatches(p.Path, scope) {
				continue
			}
			ephByPkg[p] = nil
			for _, d := range parseDirectives(p, "ephemeral") {
				if _, reason := ephemeralReason(d); reason == "" {
					diags = append(diags, d.missingReason(a.Name))
				} else {
					ephByPkg[p] = append(ephByPkg[p], d)
				}
			}
		}
		pairs := findStatePairs(m, scope)
		// scoped resolves a type-checker package to its loaded, in-scope
		// Package; paired holds the types audited as pairs of their own.
		scoped := map[*types.Package]*Package{}
		for p := range ephByPkg {
			scoped[p.Types] = p
		}
		paired := map[*types.Named]bool{}
		for _, pair := range pairs {
			paired[pair.typ] = true
		}
		for _, pair := range pairs {
			encTouch := fieldTouches(reachableFrom(pair.enc))
			decTouch := fieldTouches(reachableFrom(pair.dec))
			// audit checks the fields of one struct declared in pkg; path
			// names it from the state type down, onPath holds the nested
			// types being descended (a recursive type is audited once).
			var audit func(pkg *Package, strct *types.Struct, path string, onPath map[*types.Named]bool)
			audit = func(pkg *Package, strct *types.Struct, path string, onPath map[*types.Named]bool) {
				for i := 0; i < strct.NumFields(); i++ {
					f := strct.Field(i)
					if emptyStruct(f.Type()) {
						continue
					}
					dir := directiveFor(ephByPkg[pkg], pkg, f.Pos(), nil)
					// An unannotated field holding a struct declared in scope
					// is state of this pair, field by field: "touched" for the
					// whole struct would hide a nested field the encoder
					// skips, and leave nested annotations attached to nothing.
					if inner := nestedState(f.Type()); dir == nil && inner != nil &&
						scoped[inner.Obj().Pkg()] != nil && !paired[inner] && !onPath[inner] {
						onPath[inner] = true
						audit(scoped[inner.Obj().Pkg()], inner.Underlying().(*types.Struct), path+"."+f.Name(), onPath)
						delete(onPath, inner)
						continue
					}
					serialized, repopulated := encTouch[f], decTouch[f]
					switch {
					case dir == nil:
						if !serialized {
							diags = append(diags, a.Diag(pkg, f.Pos(),
								"field %s.%s is not serialized by %s and not annotated //lint:ephemeral",
								path, f.Name(), pair.enc.Fn.Name()))
						}
						if !repopulated {
							diags = append(diags, a.Diag(pkg, f.Pos(),
								"field %s.%s is not repopulated by %s and not annotated //lint:ephemeral",
								path, f.Name(), pair.dec.Fn.Name()))
						}
					case serialized:
						diags = append(diags, a.Diag(pkg, f.Pos(),
							"field %s.%s is annotated //lint:ephemeral but %s serializes it; drop the annotation or the encoding",
							path, f.Name(), pair.enc.Fn.Name()))
					default:
						if derived, _ := ephemeralReason(dir); derived && !repopulated {
							diags = append(diags, a.Diag(pkg, f.Pos(),
								"field %s.%s is annotated //lint:ephemeral derived but no function reachable from %s repopulates it",
								path, f.Name(), pair.dec.Fn.Name()))
						}
					}
				}
			}
			audit(pair.pkg, pair.typ.Underlying().(*types.Struct), pair.name, map[*types.Named]bool{pair.typ: true})
		}
		// A directive attached to nothing is a typo or a field that moved;
		// report it so annotations cannot rot. Packages are visited in the
		// module's deterministic order.
		for _, p := range m.Pkgs {
			diags = append(diags, unattached(ephByPkg[p], a.Name, "does not annotate a field of any Snapshot/Restore state type")...)
		}
		return diags
	}
	return a
}

// nestedState returns the named, non-empty, non-generic struct type a field
// of type T or *T holds, or nil. (An instantiated generic's field objects are
// not the ones selector expressions on other instantiations resolve to, so
// its fields cannot be audited one by one.)
func nestedState(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.TypeArgs().Len() > 0 || n.Obj().Pkg() == nil {
		return nil
	}
	if s, ok := n.Underlying().(*types.Struct); !ok || s.NumFields() == 0 {
		return nil
	}
	return n
}

// emptyStruct reports whether t is a struct type with no fields (a pure
// marker/mixin like spe.BaseLogic).
func emptyStruct(t types.Type) bool {
	s, ok := t.Underlying().(*types.Struct)
	return ok && s.NumFields() == 0
}
