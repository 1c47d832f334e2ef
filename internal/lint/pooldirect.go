package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file parses the //lint:pooled directive, the declaration side of the
// lifetime layer (DESIGN.md §16). The directive declares the recycled-memory
// surfaces the poolsafe / aliasescape / scratchlocal analyzers track:
//
//	//lint:pooled pool <reason>      on a sync.Pool variable or field:
//	                                 .Get() acquires, .Put(x) releases.
//	//lint:pooled freelist <reason>  on a slice-typed field or variable:
//	                                 an element read (f[i]) acquires,
//	                                 append(f, x) releases x back.
//	//lint:pooled scratch <reason>   on a field: a per-call borrow — aliases
//	                                 must not outlive the borrowing call.
//	//lint:pooled acquire <reason>   on a function: its results are pooled.
//	//lint:pooled release <reason>   on a function: its first argument is
//	                                 released back to a pool.
//
// The directive goes on the declaration's line, alone on the line directly
// above it, or (for functions) anywhere in the doc comment — the same
// placement rules as //lint:ignore and //lint:hotpath. The reason is
// mandatory. Helper endpoints (getVal/putVal-style wrappers) usually need no
// explicit acquire/release annotation: touching an annotated pool or
// freelist inside a function body derives its summary interprocedurally.

// poolRole is the declared role of one //lint:pooled directive.
type poolRole uint8

const (
	roleSyncPool poolRole = iota
	roleFreelist
	roleScratch
	roleAcquire
	roleRelease
)

var poolRoleNames = map[string]poolRole{
	"pool":     roleSyncPool,
	"freelist": roleFreelist,
	"scratch":  roleScratch,
	"acquire":  roleAcquire,
	"release":  roleRelease,
}

// PoolDecl is one declared pool or freelist.
type PoolDecl struct {
	Obj  types.Object // the sync.Pool var, or the freelist field/var
	Name string       // identifier, for messages
	Kind poolRole     // roleSyncPool or roleFreelist
}

// ScratchDecl is one declared scratch field.
type ScratchDecl struct {
	Obj  types.Object
	Name string
}

// PoolRegistry is the module-wide set of declared pooled surfaces.
type PoolRegistry struct {
	Pools    map[types.Object]*PoolDecl
	Scratch  map[types.Object]*ScratchDecl
	Acquires map[*types.Func]bool
	Releases map[*types.Func]bool
	// Bad collects directive-misuse findings (missing reason, unknown role,
	// role/declaration mismatch, directive attached to nothing). They are
	// reported by poolsafe so misannotations cannot silently disable the
	// layer.
	Bad []Diagnostic
}

func (r *PoolRegistry) empty() bool {
	return len(r.Pools) == 0 && len(r.Scratch) == 0 &&
		len(r.Acquires) == 0 && len(r.Releases) == 0
}

// collectPooled interprets every //lint:pooled directive in a package.
// Malformed directives are reported immediately; well-formed ones are
// returned for attachment.
func collectPooled(p *Package) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var bad []Diagnostic
	for _, d := range parseDirectives(p, "pooled") {
		word, reason := d.split()
		switch _, ok := poolRoleNames[word]; {
		case !ok:
			bad = append(bad, Diagnostic{
				Analyzer: "poolsafe",
				Pos:      d.pos,
				Message:  "//lint:pooled directive needs a role: pool, freelist, scratch, acquire, or release",
			})
		case reason == "":
			bad = append(bad, d.missingReason("poolsafe"))
		default:
			dirs = append(dirs, d)
		}
	}
	return dirs, bad
}

// roleOf returns the role a well-formed //lint:pooled directive declares.
func roleOf(d *directive) poolRole {
	word, _ := d.split()
	return poolRoleNames[word]
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isSlice reports whether t's underlying type is a slice.
func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// BuildPoolRegistry discovers every //lint:pooled declaration in the module
// and validates role/declaration agreement.
func BuildPoolRegistry(m *Module) *PoolRegistry {
	reg := &PoolRegistry{
		Pools:    map[types.Object]*PoolDecl{},
		Scratch:  map[types.Object]*ScratchDecl{},
		Acquires: map[*types.Func]bool{},
		Releases: map[*types.Func]bool{},
	}
	for _, p := range m.Pkgs {
		dirs, bad := collectPooled(p)
		reg.Bad = append(reg.Bad, bad...)
		if len(dirs) == 0 {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					reg.attachFunc(p, dirs, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							reg.attachValue(p, dirs, sp)
						case *ast.TypeSpec:
							if st, ok := sp.Type.(*ast.StructType); ok {
								reg.attachFields(p, dirs, st)
							}
						}
					}
				}
			}
		}
		reg.Bad = append(reg.Bad, unattached(dirs, "poolsafe", "does not attach to a declaration")...)
	}
	return reg
}

func (r *PoolRegistry) misuse(pos token.Position, msg string) {
	r.Bad = append(r.Bad, Diagnostic{Analyzer: "poolsafe", Pos: pos, Message: msg})
}

// attachFunc attaches an acquire/release directive to a function decl.
func (r *PoolRegistry) attachFunc(p *Package, dirs []*directive, fd *ast.FuncDecl) {
	d := directiveFor(dirs, p, fd.Pos(), fd.Doc)
	if d == nil {
		return
	}
	fn, _ := p.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	switch role := roleOf(d); role {
	case roleAcquire:
		if sig.Results().Len() == 0 {
			r.misuse(d.pos, "//lint:pooled acquire on a function with no results")
			return
		}
		r.Acquires[fn] = true
	case roleRelease:
		if sig.Params().Len() == 0 {
			r.misuse(d.pos, "//lint:pooled release on a function with no parameters")
			return
		}
		r.Releases[fn] = true
	default:
		r.misuse(d.pos, "//lint:pooled "+roleName(role)+" cannot annotate a function (want acquire or release)")
	}
}

// attachValue attaches pool/freelist directives to package-level variables.
func (r *PoolRegistry) attachValue(p *Package, dirs []*directive, sp *ast.ValueSpec) {
	for _, name := range sp.Names {
		d := directiveFor(dirs, p, name.Pos(), nil)
		if d == nil {
			continue
		}
		obj := p.Info.Defs[name]
		if obj == nil {
			continue
		}
		r.attachObj(d, obj, name.Name)
	}
}

// attachFields attaches pool/freelist/scratch directives to struct fields.
func (r *PoolRegistry) attachFields(p *Package, dirs []*directive, st *ast.StructType) {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			d := directiveFor(dirs, p, name.Pos(), nil)
			if d == nil {
				continue
			}
			obj := p.Info.Defs[name]
			if obj == nil {
				continue
			}
			r.attachObj(d, obj, name.Name)
		}
	}
}

// attachObj validates one directive against the declared object's type and
// records it.
func (r *PoolRegistry) attachObj(d *directive, obj types.Object, name string) {
	switch role := roleOf(d); role {
	case roleSyncPool:
		if !isSyncPool(obj.Type()) {
			r.misuse(d.pos, "//lint:pooled pool on a non-sync.Pool declaration")
			return
		}
		r.Pools[obj] = &PoolDecl{Obj: obj, Name: name, Kind: roleSyncPool}
	case roleFreelist:
		if !isSlice(obj.Type()) {
			r.misuse(d.pos, "//lint:pooled freelist on a non-slice declaration")
			return
		}
		r.Pools[obj] = &PoolDecl{Obj: obj, Name: name, Kind: roleFreelist}
	case roleScratch:
		r.Scratch[obj] = &ScratchDecl{Obj: obj, Name: name}
	default:
		r.misuse(d.pos, "//lint:pooled "+roleName(role)+" cannot annotate a variable or field (want pool, freelist, or scratch)")
	}
}

func roleName(role poolRole) string {
	switch role {
	case roleSyncPool:
		return "pool"
	case roleFreelist:
		return "freelist"
	case roleScratch:
		return "scratch"
	case roleAcquire:
		return "acquire"
	default:
		return "release"
	}
}
