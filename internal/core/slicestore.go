package core

import (
	"math/bits"
	"sort"

	"astream/internal/bitset"
	"astream/internal/event"
)

// StoreMode selects how a slice stores its tuples (paper §3.1.4, §3.2.3).
type StoreMode uint8

const (
	// StoreAdaptive starts grouped and switches to a flat list when the
	// average group size drops below two — the paper's heuristic: with
	// many concurrent queries the number of distinct query-sets explodes
	// and most groups hold a single tuple.
	StoreAdaptive StoreMode = iota
	// StoreGrouped always groups tuples by query-set.
	StoreGrouped
	// StoreList always keeps a flat list.
	StoreList
)

func (m StoreMode) String() string {
	switch m {
	case StoreAdaptive:
		return "adaptive"
	case StoreGrouped:
		return "grouped"
	case StoreList:
		return "list"
	default:
		return "store?"
	}
}

// adaptiveSwitchThreshold is the mean-group-size below which an adaptive
// store degenerates to a list (paper: "if the average is less than two").
const adaptiveSwitchThreshold = 2.0

// minTuplesForSwitch avoids flapping on nearly-empty slices.
const minTuplesForSwitch = 16

// qsIndex maps canonical query-set keys to group payloads. Lookups on the
// hot path are allocation-free: single-word query-sets (≤64 slots) index a
// uint64 map directly; wider sets encode into a reused scratch buffer and
// use the compiler's m[string(buf)] no-alloc map access. The group list is
// kept in canonical key order incrementally (binary insert on the rare
// group-creation path) so every iteration over groups — join kernels, store
// flattening, window firing — is deterministic without per-emission sorts.
type qsIndex[G any] struct {
	byWord map[uint64]*G
	byStr  map[string]*G
	order  []*G
	keys   []bitset.Key // parallel to order, ascending by Key.Less
	// flat and ends, when non-nil, hold the groups' query-sets back to back:
	// the significant words of order[i]'s set are flat[ends[i-1]:ends[i]]. A
	// walk over every set then reads one array instead of chasing a pointer
	// per group. The owner lays them out once the index has stopped growing
	// (sealSets); put drops them.
	flat   []uint64
	ends   []int32
	keyBuf []byte //lint:pooled scratch reused key-encoding scratch buffer
}

func newQSIndex[G any]() *qsIndex[G] {
	//lint:ignore hotalloc cold: one index per slice payload, created when the slice first sees data
	return &qsIndex[G]{byWord: make(map[uint64]*G), byStr: make(map[string]*G)}
}

func (x *qsIndex[G]) len() int { return len(x.order) }

// get returns the group for qs, or nil. Allocation-free.
func (x *qsIndex[G]) get(qs bitset.Bits) *G {
	if w, ok := qs.KeyWord(); ok {
		return x.byWord[w]
	}
	x.keyBuf = qs.AppendKeyBytes(x.keyBuf[:0])
	return x.byStr[string(x.keyBuf)]
}

// put inserts the group under qs's canonical key, keeping order sorted.
// Called once per distinct query-set (cold path); allocates the string key
// for wide sets here and only here.
func (x *qsIndex[G]) put(qs bitset.Bits, g *G) {
	x.flat = nil
	k := qs.Key()
	if k.S == "" {
		x.byWord[k.W] = g
	} else {
		x.byStr[k.S] = g
	}
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(x.keys), func(i int) bool { return k.Less(x.keys[i]) })
	//lint:ignore hotalloc cold: put runs once per distinct query-set group
	x.keys = append(x.keys, bitset.Key{})
	copy(x.keys[i+1:], x.keys[i:])
	x.keys[i] = k
	//lint:ignore hotalloc cold: put runs once per distinct query-set group
	x.order = append(x.order, nil)
	copy(x.order[i+1:], x.order[i:])
	x.order[i] = g
}

// tupleGroup is one query-set group inside a grouped slice store: the
// positions of its tuples, in arrival order. Grouping lets the join skip whole
// groups whose query-sets cannot intersect.
type tupleGroup struct {
	qs  bitset.Bits
	pos []uint32
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

// sliceStore holds the tuples of one slice on one side of a shared join.
// Every tuple is saved once, in tuples; its index there is its position, the
// name the groups, the key index and the cached pair rows know it by.
// Positions survive growth and regrouping; degenerate reassigns them.
type sliceStore struct {
	mode    StoreMode
	grouped bool
	groups  *qsIndex[tupleGroup] // nil when list mode
	tuples  []event.Tuple
	// heads and next are the key index, built the first time the store is
	// probed and then kept: heads[bucket(key)] is the position last chained
	// into the key's hash bucket, next[p] the one chained there before p, -1
	// ends a chain. len(heads) is a power of two, more than twice the tuples
	// it was built over. Derived from tuples, so not in the snapshot: a
	// restored store, like one whose layout changed, rebuilds it on demand.
	heads, next []int32
	// pairs caches, on a left store, its join with each right store by that
	// slice's ID (the computation history of §3.1.4). Derived from the two
	// stores' tuples, and like the index neither snapshotted nor kept across
	// a layout change.
	pairs map[uint64]slicePair
}

func newSliceStore(mode StoreMode) *sliceStore {
	s := &sliceStore{mode: mode}
	if mode != StoreList {
		s.grouped = true
		s.groups = newQSIndex[tupleGroup]()
	}
	return s
}

// Add inserts a tuple (saved once — no copies inside a slice, paper §3.2.2).
// Steady state allocates nothing: group lookup is key-scratch based and the
// appends are amortized.
//
//lint:hotpath
func (s *sliceStore) Add(t event.Tuple) {
	p := uint32(len(s.tuples))
	//lint:ignore hotalloc the store owns the tuples; growth is amortized over the slice's lifetime
	s.tuples = append(s.tuples, t)
	switch {
	case s.heads == nil:
	case !s.grouped && len(s.tuples) <= len(s.heads):
		// A late tuple: a list's index takes it, at the end, where a rebuild
		// would put it.
		//lint:ignore hotalloc late tuple into an indexed store; growth is amortized like the tuples'
		s.next = append(s.next, 0)
		s.link(p)
	default:
		// The index is full, or — a grouped store chains positions group by
		// group — would hold this tuple out of place: it is rebuilt when the
		// store is next probed.
		s.heads, s.next = nil, nil
	}
	if !s.grouped {
		return
	}
	s.group(p)
	if s.mode == StoreAdaptive && len(s.tuples) >= minTuplesForSwitch &&
		float64(len(s.tuples)) < adaptiveSwitchThreshold*float64(s.groups.len()) {
		s.degenerate()
	}
}

// group files position p under its tuple's query-set.
func (s *sliceStore) group(p uint32) {
	qs := s.tuples[p].QuerySet
	g := s.groups.get(qs)
	if g == nil {
		//lint:ignore hotalloc cold: runs once per distinct query-set group per slice
		g = &tupleGroup{qs: qs.Clone()}
		s.groups.put(g.qs, g)
	}
	//lint:ignore hotalloc per-group positions; growth is amortized over the slice's lifetime
	g.pos = append(g.pos, p)
}

// bucket is key's slot in heads (Fibonacci hashing).
func (s *sliceStore) bucket(key int64) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> (64 - bits.Len(uint(len(s.heads)-1))))
}

// link puts position p at the head of its bucket's chain.
func (s *sliceStore) link(p uint32) {
	b := s.bucket(s.tuples[p].Key)
	s.next[p] = s.heads[b]
	s.heads[b] = int32(p)
}

// index builds the key index if the store has none. Positions are linked in
// the order a probe of this store walks them — group by group, or down the
// list — so a chain's order is a function of the stored content.
func (s *sliceStore) index() {
	if s.heads != nil {
		return
	}
	//lint:ignore hotalloc once per slice: the index stands until the slice is evicted
	s.heads = make([]int32, 1<<bits.Len(uint(2*len(s.tuples))))
	for b := range s.heads {
		s.heads[b] = -1
	}
	//lint:ignore hotalloc once per slice: the index stands until the slice is evicted
	s.next = make([]int32, len(s.tuples))
	if !s.grouped {
		for p := range s.tuples {
			s.link(uint32(p))
		}
		return
	}
	for _, g := range s.groups.order {
		for _, p := range g.pos {
			s.link(p)
		}
	}
}

// joinStores appends to rows one row for every key-equal pair of a's and b's
// tuples whose query-sets intersect under mask; the row carries qsA ∩ qsB ∩
// mask. This is the slice ⋈ slice kernel: the smaller store is probed, tuple by
// tuple, into the other's standing key index, and where the probing store has
// groups their query-sets prune it wholesale (paper §3.1.4). Probe order and
// chain order are functions of the stored content, so row order is too. tmp
// is the caller's intersection scratch.
//
//lint:hotpath
func joinStores(a, b *sliceStore, mask bitset.Bits, tmp *bitset.Bits, rows []pairRow) []pairRow {
	if len(a.tuples) == 0 || len(b.tuples) == 0 || mask.IsEmpty() {
		return rows
	}
	probe, build := a, b
	if len(b.tuples) < len(a.tuples) {
		probe, build = b, a
	}
	build.index()
	if !probe.grouped {
		for p := range probe.tuples {
			if probe.tuples[p].QuerySet.Intersects(mask) {
				rows = build.matches(&probe.tuples[p], uint32(p), probe == b, mask, tmp, rows)
			}
		}
		return rows
	}
	for _, g := range probe.groups.order {
		if g.qs.Intersects(mask) {
			for _, p := range g.pos {
				rows = build.matches(&probe.tuples[p], p, probe == b, mask, tmp, rows)
			}
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
		//lint:ignore hotalloc first sight of a pair: a query-set beyond 64 slots owns its spill, narrower ones are inline
		row := pairRow{l: uint32(q), r: p, qs: tmp.Clone()}
		if !probeRight {
			row.l, row.r = p, uint32(q)
		}
		//lint:ignore hotalloc appends into the caller's reused buffer; grows only to the high-water mark
		rows = append(rows, row)
	}
	return rows
}

// regroup rebuilds the query-set groups of a list-mode store (the inverse
// marker transition of §3.2.3, taken when the active query count drops back
// under the threshold). Positions stay; the key index, whose chains follow
// the layout, goes.
func (s *sliceStore) regroup() {
	if s.grouped {
		return
	}
	s.groups = newQSIndex[tupleGroup]()
	s.grouped = true
	s.heads, s.next = nil, nil
	for p := range s.tuples {
		s.group(uint32(p))
	}
}

// setMode switches the store's layout to match a session marker (§3.2.3). The
// marker reaches every store of both sides, so each dropping the pairs it
// holds drops every pair whose rows a moved tuple, or a changed probe order,
// would contradict.
func (s *sliceStore) setMode(m StoreMode) {
	s.mode = m
	s.pairs = nil
	switch m {
	case StoreList:
		s.degenerate()
	case StoreGrouped:
		s.regroup()
	}
}

// degenerate flattens a grouped store into list mode (the marker-triggered
// data-structure change of §3.2.3 applies this to all slices at once). The
// tuples are rewritten group by group in canonical key order — a pure
// function of the stored content, so flattening is replay-deterministic — and
// that moves them: the key index goes, and so must every pair cached over the
// store (setMode, or the tuple count when an adaptive store flattens itself).
func (s *sliceStore) degenerate() {
	if !s.grouped {
		return
	}
	//lint:ignore hotalloc marker transition: rebuilding the layout is a one-off O(n) event, not steady state
	list := make([]event.Tuple, 0, len(s.tuples))
	for _, g := range s.groups.order {
		for _, p := range g.pos {
			//lint:ignore hotalloc appends within the exact capacity reserved above
			list = append(list, s.tuples[p])
		}
	}
	s.tuples = list
	s.groups = nil
	s.grouped = false
	s.heads, s.next = nil, nil
}

// Len returns the number of stored tuples.
func (s *sliceStore) Len() int { return len(s.tuples) }

// Grouped reports whether the store is currently in grouped mode.
func (s *sliceStore) Grouped() bool { return s.grouped }

// GroupCount returns the number of query-set groups (0 in list mode).
func (s *sliceStore) GroupCount() int {
	if s.groups == nil {
		return 0
	}
	return s.groups.len()
}
