package core

import (
	"math/bits"

	"astream/internal/bitset"
	"astream/internal/event"
)

// qsIndex maps an open aggregation slice's query-sets, of any width, to its
// groups: an open-addressed table (linear probing, at most half full) keyed by
// a hash of the set's significant words, a hit confirmed by Bits.Equal. order
// lists the groups as inserted; no output of the seal depends on that order.
type qsIndex struct {
	slots []qsSlot
	shift uint // 64 - log2(len(slots)): a hash's top bits pick its first slot
	order []*aggGroup
}

// qsSlot is one table slot; a nil group marks it empty.
type qsSlot struct {
	h uint64
	g *aggGroup
}

// fibMul is Fibonacci hashing's multiplier: a product's top bits pick a bucket.
const fibMul = 0x9E3779B97F4A7C15

// qsHash hashes qs's significant words, so a set hashes alike in any
// representation or backing length, as Bits.Equal compares it.
func qsHash(qs bitset.Bits) uint64 {
	var h uint64
	for i, n := 0, qs.WordCount(); i < n; i++ {
		h = (h ^ qs.Word(i)) * fibMul
	}
	return h
}

// reset empties the index for reuse, keeping its table's and list's size.
func (x *qsIndex) reset() {
	clear(x.slots)
	clear(x.order)
	x.order = x.order[:0]
}

// get returns the group for qs, or nil. Allocation-free.
func (x *qsIndex) get(qs bitset.Bits) *aggGroup {
	if len(x.slots) == 0 {
		return nil
	}
	h := qsHash(qs)
	for i := h >> x.shift; ; i = (i + 1) & uint64(len(x.slots)-1) {
		if s := &x.slots[i]; s.g == nil || s.h == h && s.g.qs.Equal(qs) {
			return s.g
		}
	}
}

// put adds g, whose query-set x does not hold yet. Called once per distinct
// query-set (cold path); the table doubles before it passes half full.
func (x *qsIndex) put(g *aggGroup) {
	if 2*(len(x.order)+1) > len(x.slots) {
		// amortized: the table grows to the widest slice's group count once
		x.slots = make([]qsSlot, max(8, 2*len(x.slots)))
		x.shift = uint(64 - bits.TrailingZeros(uint(len(x.slots))))
		for _, o := range x.order {
			x.insert(o)
		}
	}
	x.insert(g)
	// amortized: a recycled index keeps its list's capacity
	x.order = append(x.order, g)
}

// insert places g in the first empty slot of its probe sequence.
func (x *qsIndex) insert(g *aggGroup) {
	h := qsHash(g.qs)
	i := h >> x.shift
	for x.slots[i].g != nil {
		i = (i + 1) & uint64(len(x.slots)-1)
	}
	x.slots[i] = qsSlot{h: h, g: g}
}

// pairRow is one row of a slice pair's join, held by reference: the
// positions of the two tuples in their stores and the intersected query-set.
// The joined tuple itself is built where it leaves the operator (§3.2.2:
// tuples are saved once and copied only on the way out).
type pairRow struct {
	l, r uint32
	qs   bitset.Bits
}

// slicePair is the cached join of a left store with one right store. ln and
// rn are the two stores' tuple counts when the rows were computed: a store
// that has taken a tuple since — one behind the watermark but not behind its
// side's eviction mark — no longer matches, and the pair is joined again.
type slicePair struct {
	ln, rn int
	rows   []pairRow
}

// sliceStore holds the tuples of one slice on one side of a shared join as
// one flat list: a join is a windowed aggregate whose accumulator is the
// tuple list. Every tuple is saved once, in tuples; its index there is its
// position, the name the key index and the cached pair rows know it by.
// Positions never change.
type sliceStore struct {
	tuples []event.Tuple
	// heads and next are the key index, built the first time the store is
	// probed and then kept: heads[bucket(key)] is the position last chained
	// into the key's hash bucket, next[p] the one chained there before p, -1
	// ends a chain. len(heads) is a power of two, more than twice the tuples
	// it was built over. Derived from tuples, so not in the snapshot: a
	// restored store rebuilds it on demand.
	heads, next []int32
	// pairs caches, on a left store, its join with each right store by that
	// slice's ID (the computation history of §3.1.4). Derived from the two
	// stores' tuples, and like the index not snapshotted.
	pairs map[uint64]slicePair
}

// Add inserts a tuple (saved once — no copies inside a slice, paper §3.2.2).
// Steady state allocates nothing: the appends are amortized.
func (s *sliceStore) Add(t event.Tuple) {
	p := uint32(len(s.tuples))
	s.tuples = append(s.tuples, t)
	switch {
	case s.heads == nil:
	case len(s.tuples) <= len(s.heads):
		// A late tuple: the index takes it, at the end, where a rebuild
		// would put it.
		s.next = append(s.next, 0)
		s.link(p)
	default:
		// The index is full: it is rebuilt when the store is next probed.
		s.heads, s.next = nil, nil
	}
}

// bucket is key's slot in heads (Fibonacci hashing).
func (s *sliceStore) bucket(key int64) int {
	return int(uint64(key) * fibMul >> (64 - bits.Len(uint(len(s.heads)-1))))
}

// link puts position p at the head of its bucket's chain.
func (s *sliceStore) link(p uint32) {
	b := s.bucket(s.tuples[p].Key)
	s.next[p] = s.heads[b]
	s.heads[b] = int32(p)
}

// index builds the key index if the store has none, linking positions in
// list order, so a chain's order is a function of the stored content.
func (s *sliceStore) index() {
	if s.heads != nil {
		return
	}
	s.heads = make([]int32, 1<<bits.Len(uint(2*len(s.tuples))))
	for b := range s.heads {
		s.heads[b] = -1
	}
	s.next = make([]int32, len(s.tuples))
	for p := range s.tuples {
		s.link(uint32(p))
	}
}

// joinStores appends to rows one row for every key-equal pair of a's and b's
// tuples whose query-sets intersect under mask; the row carries qsA ∩ qsB ∩
// mask. This is the slice ⋈ slice kernel: the smaller store is probed, tuple by
// tuple, into the other's standing key index. Probe order and chain order are
// functions of the stored content, so row order is too. tmp is the caller's
// intersection scratch.
func joinStores(a, b *sliceStore, mask bitset.Bits, tmp *bitset.Bits, rows []pairRow) []pairRow {
	if len(a.tuples) == 0 || len(b.tuples) == 0 || mask.IsEmpty() {
		return rows
	}
	probe, build := a, b
	if len(b.tuples) < len(a.tuples) {
		probe, build = b, a
	}
	build.index()
	for p := range probe.tuples {
		if probe.tuples[p].QuerySet.Intersects(mask) {
			rows = build.matches(&probe.tuples[p], uint32(p), probe == b, mask, tmp, rows)
		}
	}
	return rows
}

// matches appends a row for every tuple of s that joins pt, the tuple at
// position p of the probing store — the right-hand one if probeRight.
func (s *sliceStore) matches(pt *event.Tuple, p uint32, probeRight bool, mask bitset.Bits, tmp *bitset.Bits, rows []pairRow) []pairRow {
	for q := s.heads[s.bucket(pt.Key)]; q >= 0; q = s.next[q] {
		if s.tuples[q].Key != pt.Key {
			continue
		}
		pt.QuerySet.AndInto(s.tuples[q].QuerySet, tmp)
		tmp.AndInPlace(mask)
		if tmp.IsEmpty() {
			continue
		}
		// first sight of a pair: a query-set beyond 64 slots owns its spill, narrower ones are inline
		row := pairRow{l: uint32(q), r: p, qs: tmp.Clone()}
		if !probeRight {
			row.l, row.r = p, uint32(q)
		}
		// appends into the caller's reused buffer; grows only to the high-water mark
		rows = append(rows, row)
	}
	return rows
}

// Len returns the number of stored tuples.
func (s *sliceStore) Len() int { return len(s.tuples) }
