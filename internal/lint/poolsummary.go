package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// PoolSummary is the interprocedural half of the lifetime layer: what one
// function body does to pooled memory, derived by running the dataflow IR
// in summary mode. Summaries let helper wrappers (getVal/putVal, takeX,
// recycleX) participate without annotation — a call site applies the
// callee's summary instead of giving up at the boundary.
type PoolSummary struct {
	// Releases[i]: parameter i is released back to a pool on some path.
	Releases []bool
	// Escapes[i]: parameter i is stored into non-local memory on some path.
	Escapes []bool
	// Acquires: some return hands out a pooled object.
	Acquires bool
	// ScratchRet: some return hands out an alias of this scratch surface.
	ScratchRet *ScratchDecl
}

func (s *PoolSummary) setReleases(i int) {
	for len(s.Releases) <= i {
		s.Releases = append(s.Releases, false)
	}
	s.Releases[i] = true
}

func (s *PoolSummary) setEscapes(i int) {
	for len(s.Escapes) <= i {
		s.Escapes = append(s.Escapes, false)
	}
	s.Escapes[i] = true
}

// fingerprint is the change-detection render for the summary fixpoint.
func (s *PoolSummary) fingerprint() string {
	name := ""
	if s.ScratchRet != nil {
		name = s.ScratchRet.Name
	}
	return fmt.Sprintf("%v|%v|%v|%s", s.Releases, s.Escapes, s.Acquires, name)
}

// relevantNodes returns the call-graph nodes the lifetime layer must
// analyze: bodies that touch a declared pool, freelist, scratch surface, or
// annotated endpoint, plus (transitively) everything that calls them.
// Everything else cannot produce a pooled or scratch cell and is skipped.
func relevantNodes(m *Module, reg *PoolRegistry) []*CGNode {
	g := m.Graph()
	relevant := map[*CGNode]bool{}
	var seeds []*CGNode
	for _, n := range g.Nodes {
		if nodeTouchesPools(n, reg) {
			relevant[n] = true
			seeds = append(seeds, n)
		}
	}
	// Callers of relevant nodes are relevant: they may receive pooled
	// values or have arguments released through the callee's summary.
	work := seeds
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range n.In {
			if !relevant[e.Caller] {
				relevant[e.Caller] = true
				work = append(work, e.Caller)
			}
		}
	}
	var out []*CGNode
	for _, n := range g.Nodes {
		if relevant[n] {
			out = append(out, n)
		}
	}
	return out
}

// nodeTouchesPools reports whether a body mentions any registered pooled
// surface or annotated endpoint.
func nodeTouchesPools(n *CGNode, reg *PoolRegistry) bool {
	found := false
	walkOwn(n, func(node ast.Node) {
		if found {
			return
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return
		}
		obj := n.Pkg.Info.Uses[id]
		if obj == nil {
			obj = n.Pkg.Info.Defs[id]
		}
		if obj == nil {
			return
		}
		if reg.Pools[obj] != nil || reg.Scratch[obj] != nil {
			found = true
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			if reg.Acquires[fn.Origin()] || reg.Releases[fn.Origin()] {
				found = true
			}
		}
	})
	return found
}

// computeSummaries runs the dataflow walker in silent summary mode over the
// relevant nodes to a fixpoint, so wrapper chains (putVal → append →
// freelist) resolve to release/acquire effects at their call sites.
func (eng *lifetimeEngine) computeSummaries(nodes []*CGNode) {
	eng.sums = map[*CGNode]*PoolSummary{}
	for _, n := range nodes {
		eng.sums[n] = &PoolSummary{}
	}
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, n := range nodes {
			sum := eng.sums[n]
			before := sum.fingerprint()
			w := newWalker(eng, n, sum, false)
			w.analyze()
			if sum.fingerprint() != before {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}
