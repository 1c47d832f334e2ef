package core

import (
	"sort"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
)

// This file is the shared selection's predicate index (DESIGN.md §14): the
// compiled evaluation plan that replaces the naive per-entry scan in
// SharedSelection.OnTuple while producing bit-identical query-sets. One
// index is compiled per query-table version at OnChangelog/Restore time
// (control path, allocation allowed); classification (hot path) then runs
// in three steps:
//
//  1. always-true predicates are a precomputed bitset OR — zero evaluation;
//  2. structurally equal predicates (canonical-form dedup) share one node
//     that fans its result into every subscriber slot via a bitset OR, and
//     every node is dispatched on the tuple's value of its access
//     constraint — its equality if it has one, else its narrowest interval:
//     exact points through a hash map, intervals through a sorted stabbing
//     index. A node whose access constraint is not its whole predicate
//     verifies the residual on a hit, so a tuple touches the nodes pinned
//     to its own values instead of a list that grows with the query count;
//  3. entries whose predicates cannot be canonicalized (out-of-range field —
//     the only way a predicate can panic data-dependently) stay on the
//     guarded per-entry path so panic isolation and quarantine attribution
//     are preserved exactly.
//
// Always-false predicates are excluded from evaluation entirely.

// SelIndexStats summarizes one compiled index's composition (tests, QoS,
// benchmarks). Entries = AlwaysTrue + AlwaysFalse + Deduped + Fallback +
// Nodes, and Nodes = EqDispatch + RangeDispatch.
type SelIndexStats struct {
	Entries       int // live predicate entries in the version
	Nodes         int // deduplicated canonical predicates
	AlwaysTrue    int // entries satisfied by every tuple (bitset OR, no eval)
	AlwaysFalse   int // contradictory entries excluded from evaluation
	Deduped       int // entries folded into an existing node's fan-out
	EqDispatch    int // nodes served by the per-field point hash
	RangeDispatch int // nodes served by the interval-stabbing index
	Verified      int // dispatched nodes that check a residual on a hit
	// Lattice is 0 for every index this code can build: every node is
	// dispatched. The field remains only because cmd/ledger reports it as
	// selection.index_lattice; a benchmark-only PR retires both together.
	Lattice  int
	Fallback int // entries kept on the guarded per-entry path
}

// Add accumulates o into s (per-stream aggregation).
func (s *SelIndexStats) Add(o SelIndexStats) {
	s.Entries += o.Entries
	s.Nodes += o.Nodes
	s.AlwaysTrue += o.AlwaysTrue
	s.AlwaysFalse += o.AlwaysFalse
	s.Deduped += o.Deduped
	s.EqDispatch += o.EqDispatch
	s.RangeDispatch += o.RangeDispatch
	s.Verified += o.Verified
	s.Lattice += o.Lattice
	s.Fallback += o.Fallback
}

// selNode is one deduplicated canonical predicate and its fan-out: the
// query-set bits of every entry whose predicate canonicalized to this form.
type selNode struct {
	canon expr.Canonical
	bits  bitset.Bits
	// verify marks a node whose access constraint is not its whole
	// predicate (further constraints, or holes): a dispatch hit fans the
	// bits only if canon.Match confirms the rest.
	verify bool
}

// ivIndex is a static interval-stabbing index: intervals sorted by Lo with
// an implicit balanced BST (midpoint recursion) augmented by the subtree's
// maximum Hi. stab visits O(log n + matches) nodes for the workload's
// one-sided intervals (general two-sided worst case O(matches · log n)).
type ivIndex struct {
	lo, hi []int64
	// maxHi[m] is the maximum hi over the subtree whose midpoint is m in
	// the stab recursion.
	maxHi []int64
	node  []int32
}

// fieldDispatch routes one tuple column to the nodes whose access constraint
// is on that column.
type fieldDispatch struct {
	// eq maps an exact access point to the nodes pinned to it.
	eq map[int64][]int32
	iv ivIndex
}

// selIndex is the compiled classification plan for one selVersion.
type selIndex struct {
	// always is the union of every always-true entry's slot bit.
	always bitset.Bits
	nodes  []selNode
	// dispatch[0] serves the tuple key, dispatch[f+1] payload field f.
	dispatch [event.NumFields + 1]fieldDispatch
	// fallback indexes (into the version's entry table) the entries that
	// must evaluate through the guarded per-entry path.
	fallback []int32
	stats    SelIndexStats
}

// accessFieldMax is the uniform-domain assumption for estimating which of a
// node's interval constraints accepts the fewest tuples; it matches the
// workload generator's default field domain. Only the node's placement
// depends on it, never results.
const accessFieldMax = 1000

// accessConstraint picks the constraint a node is dispatched on: an equality
// if it has one, else the interval with the smallest estimated accepted
// fraction. Constraints are sorted by field, so ties go to the lowest field
// and the build is deterministic.
func accessConstraint(c *expr.Canonical) *expr.FieldConstraint {
	best, bestSel := &c.Constraints[0], 2.0
	for i := range c.Constraints {
		fc := &c.Constraints[i]
		if fc.Iv.Lo == fc.Iv.Hi {
			return fc
		}
		if sel := fc.Selectivity(accessFieldMax); sel < bestSel {
			best, bestSel = fc, sel
		}
	}
	return best
}

// buildSelIndex compiles a version's entry table into an index from its
// entries' compiled forms, so no predicate is canonicalized here. Control
// path: runs at changelog/restore time, never per tuple.
func buildSelIndex(entries []selEntry) *selIndex {
	ix := &selIndex{}
	ix.stats.Entries = len(entries)
	byKey := make(map[string]int32, len(entries))
	for i := range entries {
		e := &entries[i]
		canon := e.form.canon
		if e.form.err != nil {
			// Non-canonicalizable (out-of-range field): the only predicate
			// class that can panic, so it keeps its per-entry isolation
			// boundary and exact quarantine attribution.
			ix.fallback = append(ix.fallback, int32(i))
			ix.stats.Fallback++
			continue
		}
		if canon.False {
			ix.stats.AlwaysFalse++
			continue
		}
		if canon.AlwaysTrue() {
			ix.always.Set(e.slot)
			ix.stats.AlwaysTrue++
			continue
		}
		if ni, ok := byKey[e.form.key]; ok {
			ix.nodes[ni].bits.Set(e.slot)
			ix.stats.Deduped++
			continue
		}
		ni := int32(len(ix.nodes))
		var bits bitset.Bits
		bits.Set(e.slot)
		ix.nodes = append(ix.nodes, selNode{canon: canon, bits: bits})
		byKey[e.form.key] = ni
	}
	ix.stats.Nodes = len(ix.nodes)

	// Register every node under its access constraint's field. Every node
	// has at least one constraint (always-true forms were taken above).
	for ni := range ix.nodes {
		n := &ix.nodes[ni]
		fc := accessConstraint(&n.canon)
		if len(n.canon.Constraints) > 1 || len(fc.Holes) > 0 {
			n.verify = true
			ix.stats.Verified++
		}
		d := &ix.dispatch[fc.Field+1]
		if fc.Iv.Lo == fc.Iv.Hi {
			if d.eq == nil {
				d.eq = make(map[int64][]int32)
			}
			d.eq[fc.Iv.Lo] = append(d.eq[fc.Iv.Lo], int32(ni))
			ix.stats.EqDispatch++
		} else {
			d.iv.lo = append(d.iv.lo, fc.Iv.Lo)
			d.iv.hi = append(d.iv.hi, fc.Iv.Hi)
			d.iv.node = append(d.iv.node, int32(ni))
			ix.stats.RangeDispatch++
		}
	}
	for f := range ix.dispatch {
		ix.dispatch[f].iv.build()
	}
	return ix
}

// build finalizes the stabbing index: co-sorts the interval arrays by
// (Lo, Hi, node) and computes the subtree-max augmentation along the same
// midpoint decomposition stab descends.
func (iv *ivIndex) build() {
	if len(iv.node) == 0 {
		return
	}
	sort.Sort((*ivSorter)(iv))
	iv.maxHi = make([]int64, len(iv.node))
	iv.fillMax(0, len(iv.node)-1)
}

func (iv *ivIndex) fillMax(l, r int) int64 {
	if l > r {
		return minInt64
	}
	m := int(uint(l+r) >> 1)
	mx := iv.hi[m]
	if v := iv.fillMax(l, m-1); v > mx {
		mx = v
	}
	if v := iv.fillMax(m+1, r); v > mx {
		mx = v
	}
	iv.maxHi[m] = mx
	return mx
}

const minInt64 = -1 << 63

// ivSorter co-sorts the parallel interval arrays.
type ivSorter ivIndex

func (s *ivSorter) Len() int { return len(s.node) }
func (s *ivSorter) Less(i, j int) bool {
	if s.lo[i] != s.lo[j] {
		return s.lo[i] < s.lo[j]
	}
	if s.hi[i] != s.hi[j] {
		return s.hi[i] < s.hi[j]
	}
	return s.node[i] < s.node[j]
}
func (s *ivSorter) Swap(i, j int) {
	s.lo[i], s.lo[j] = s.lo[j], s.lo[i]
	s.hi[i], s.hi[j] = s.hi[j], s.hi[i]
	s.node[i], s.node[j] = s.node[j], s.node[i]
}

// classify computes the tuple's query-set into qs: the indexed equivalent
// of evaluating every entry in turn, bit-identical by construction (and
// property-tested against exactly that scan).
// Allocation-free in steady state.
func (ix *selIndex) classify(s *SharedSelection, v *selVersion, t *event.Tuple, qs *bitset.Bits) {
	qs.OrInPlace(ix.always)
	for f := 0; f < len(ix.dispatch); f++ {
		d := &ix.dispatch[f]
		if d.eq == nil && len(d.iv.node) == 0 {
			continue
		}
		var val int64
		if f == 0 {
			val = t.Key
		} else {
			val = t.Fields[f-1]
		}
		if d.eq != nil {
			for _, ni := range d.eq[val] {
				if n := &ix.nodes[ni]; !n.verify || n.canon.Match(t) {
					qs.OrInPlace(n.bits)
				}
			}
		}
		if len(d.iv.node) > 0 {
			d.iv.stab(ix.nodes, 0, len(d.iv.node)-1, val, t, qs)
		}
	}
	for _, ei := range ix.fallback {
		e := &v.entries[ei]
		if s.evalEntry(e, t) {
			qs.Set(e.slot)
		}
	}
}

// stab fans the bits of every node whose access interval contains v (and
// whose residual, if any, accepts t) within the subtree [l, r] of the
// midpoint decomposition. The subtree-max prunes regions whose every
// interval ends below v; the Lo sort order prunes a subtree whose first
// interval starts above v, and right subtrees once Lo exceeds v.
func (iv *ivIndex) stab(nodes []selNode, l, r int, v int64, t *event.Tuple, qs *bitset.Bits) {
	for l <= r && iv.lo[l] <= v {
		m := int(uint(l+r) >> 1)
		if iv.maxHi[m] < v {
			return
		}
		if m > l {
			iv.stab(nodes, l, m-1, v, t, qs)
		}
		if iv.lo[m] > v {
			return
		}
		if iv.hi[m] >= v {
			if n := &nodes[iv.node[m]]; !n.verify || n.canon.Match(t) {
				qs.OrInPlace(n.bits)
			}
		}
		l = m + 1
	}
}
