package core

import (
	"math"
	"math/bits"
	"slices"

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
//  1. always-true predicates are a precomputed bitset OR — zero evaluation —
//     and always-false ones are excluded from evaluation entirely;
//  2. structurally equal predicates (canonical-form dedup) share one node
//     that fans its result into every subscriber slot via a bitset OR, and
//     every node is dispatched on the tuple's value of its access
//     constraint — its equality if it has one, else its narrowest interval:
//     exact points through a hash map, intervals through the column's cut
//     table. A node whose access constraint is not its whole predicate
//     verifies the residual on a hit, so a tuple's cost follows the nodes
//     pinned to its own values, not a list that grows with the query count;
//  3. entries whose predicates cannot be canonicalized (out-of-range field —
//     the only way a predicate can panic data-dependently) stay on the
//     guarded per-entry path so panic isolation and quarantine attribution
//     are preserved exactly.

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
	RangeDispatch int // nodes served by the per-column cut tables
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

// fieldDispatch routes one tuple column to the nodes whose access constraint
// is on it: exact points through a hash map, intervals through a cut table.
type fieldDispatch struct {
	field int // expr.KeyField or a payload field index
	// eq maps an exact access point to the nodes pinned to it.
	eq map[int64][]int32
	cutTable
}

// cutTable serves a column's interval-dispatched nodes in one probe. The
// sorted cuts split the int64 domain into segments, each from its cut to the
// next: cuts[0] is MinInt64 and every other cut is a node's Lo or Hi+1, so
// every value of a segment is covered by the same nodes. Memory is
// O(segments × words): per segment, the OR of the covering unverified nodes'
// slot bits, and a bitset naming the covering verified nodes. A column with
// no interval node has one segment, and its lookup ORs an empty set.
type cutTable struct {
	cuts []int64
	hits []bitset.Bits // per segment: the covering unverified nodes' slots
	// check[i] indexes into verified the verified nodes covering segment i.
	check    []bitset.Bits
	verified []int32
}

// selIndex is the compiled classification plan for one selVersion.
type selIndex struct {
	// always is the union of every always-true entry's slot bit.
	always bitset.Bits
	nodes  []selNode
	// cols holds only the columns some node is dispatched on.
	cols []fieldDispatch
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
		byKey[e.form.key] = int32(len(ix.nodes))
		ix.nodes = append(ix.nodes, selNode{canon: canon, bits: bitset.FromIndexes(e.slot)})
	}
	ix.stats.Nodes = len(ix.nodes)

	// Register every node under its access constraint's column: col[0] is
	// the tuple key, col[f+1] payload field f.
	var col [event.NumFields + 1]fieldDispatch
	var ranged [event.NumFields + 1][]int32
	for ni := range ix.nodes {
		n := &ix.nodes[ni]
		fc := accessConstraint(&n.canon)
		if len(n.canon.Constraints) > 1 || len(fc.Holes) > 0 {
			n.verify = true
			ix.stats.Verified++
		}
		d := &col[fc.Field+1]
		if fc.Iv.Lo == fc.Iv.Hi {
			if d.eq == nil {
				d.eq = make(map[int64][]int32)
			}
			d.eq[fc.Iv.Lo] = append(d.eq[fc.Iv.Lo], int32(ni))
			ix.stats.EqDispatch++
		} else {
			ranged[fc.Field+1] = append(ranged[fc.Field+1], int32(ni))
			ix.stats.RangeDispatch++
		}
	}
	for f := range col {
		if col[f].eq != nil || ranged[f] != nil {
			col[f].field = f - 1
			col[f].build(ix.nodes, ranged[f])
			ix.cols = append(ix.cols, col[f])
		}
	}
	return ix
}

// build compiles the column's range nodes into its cut table: the cuts, then
// every segment's sets in one sweep. A node's bits (a verified node's: its
// index into verified) switch on at its Lo and off at its Hi+1, if any.
func (c *cutTable) build(nodes []selNode, ranged []int32) {
	c.cuts = []int64{math.MinInt64}
	for _, ni := range ranged {
		iv := accessConstraint(&nodes[ni].canon).Iv
		c.cuts = append(c.cuts, iv.Lo)
		if iv.Hi != math.MaxInt64 {
			c.cuts = append(c.cuts, iv.Hi+1)
		}
	}
	slices.Sort(c.cuts)
	c.cuts = slices.Compact(c.cuts)
	n := len(c.cuts) + 1 // switch row n-1 is past the last segment: it is never read
	hitOn, hitOff := make([]bitset.Bits, n), make([]bitset.Bits, n)
	chkOn, chkOff := make([]bitset.Bits, n), make([]bitset.Bits, n)
	for _, ni := range ranged {
		nd, iv := &nodes[ni], accessConstraint(&nodes[ni].canon).Iv
		from, to := c.seg(iv.Lo), n-1
		if iv.Hi != math.MaxInt64 {
			to = c.seg(iv.Hi + 1)
		}
		on, off, b := hitOn, hitOff, nd.bits
		if nd.verify {
			on, off, b = chkOn, chkOff, bitset.FromIndexes(len(c.verified))
			c.verified = append(c.verified, ni)
		}
		on[from].OrInPlace(b)
		off[to].OrInPlace(b)
	}
	c.hits, c.check = sweep(hitOn, hitOff), sweep(chkOn, chkOff)
}

// sweep turns switches into per-segment sets: on[i] and off[i] hold the bits
// that start and stop at segment i. Nodes' bits are disjoint, so switching
// one node off clears no other's.
func sweep(on, off []bitset.Bits) []bitset.Bits {
	sets := make([]bitset.Bits, len(on)-1)
	var run bitset.Bits
	for i := range sets {
		run.OrInPlace(on[i])
		run.AndNotInPlace(off[i])
		sets[i] = run.Clone()
	}
	return sets
}

// seg returns the segment holding v, the last cut ≤ v, in log2(len(cuts))
// rounds whatever v is. A round compares without a branch, which the
// compiler keeps for an index feeding a load: the sign-flipped subtraction
// borrows iff v < the cut.
func (c *cutTable) seg(v int64) int {
	i, n := 0, len(c.cuts)
	for n > 1 {
		half := n >> 1
		_, lt := bits.Sub64(uint64(v)^1<<63, uint64(c.cuts[i+half])^1<<63, 0)
		i += half & int(lt-1)
		n -= half
	}
	return i
}

// classify computes the tuple's query-set into qs, bit-identical to the
// per-entry scan (property-tested) and allocation-free: per column, a hash
// probe, a segment search, an OR, and a Match per verified node covering it.
func (ix *selIndex) classify(s *SharedSelection, v *selVersion, t *event.Tuple, qs *bitset.Bits) {
	qs.OrInPlace(ix.always)
	for ci := range ix.cols {
		d := &ix.cols[ci]
		val := t.Key
		if d.field != expr.KeyField {
			val = t.Fields[d.field]
		}
		if d.eq != nil {
			for _, ni := range d.eq[val] {
				if n := &ix.nodes[ni]; !n.verify || n.canon.Match(t) {
					qs.OrInPlace(n.bits)
				}
			}
		}
		seg := d.seg(val)
		qs.OrInPlace(d.hits[seg])
		if len(d.verified) == 0 {
			continue
		}
		ck := d.check[seg]
		for w := range ck.WordCount() {
			for word := ck.Word(w); word != 0; word &= word - 1 {
				if n := &ix.nodes[d.verified[w<<6|bits.TrailingZeros64(word)]]; n.canon.Match(t) {
					qs.OrInPlace(n.bits)
				}
			}
		}
	}
	for _, ei := range ix.fallback {
		e := &v.entries[ei]
		if s.evalEntry(e, t) {
			qs.Set(e.slot)
		}
	}
}
