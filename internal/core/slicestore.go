package core

import (
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

// tupleGroup is one query-set group inside a grouped slice store. Grouping
// lets the join skip whole groups whose query-sets cannot intersect.
type tupleGroup struct {
	qs     bitset.Bits
	tuples []event.Tuple
}

// sliceStore holds the tuples of one slice on one side of a shared join.
type sliceStore struct {
	mode    StoreMode
	grouped bool
	groups  *qsIndex[tupleGroup] // nil when list mode
	list    []event.Tuple
	count   int
}

func newSliceStore(mode StoreMode) *sliceStore {
	s := &sliceStore{mode: mode}
	switch mode {
	case StoreList:
		s.grouped = false
	default:
		s.grouped = true
		s.groups = newQSIndex[tupleGroup]()
	}
	return s
}

// Add inserts a tuple (saved once — no copies inside a slice, paper §3.2.2).
// Steady state allocates nothing: group lookup is key-scratch based and the
// per-group tuple append is amortized.
//
//lint:hotpath
func (s *sliceStore) Add(t event.Tuple) {
	s.count++
	if !s.grouped {
		//lint:ignore hotalloc list-mode store owns the tuples; growth is amortized over the slice's lifetime
		s.list = append(s.list, t)
		return
	}
	g := s.groups.get(t.QuerySet)
	if g == nil {
		//lint:ignore hotalloc cold: runs once per distinct query-set group per slice
		g = &tupleGroup{qs: t.QuerySet.Clone()}
		s.groups.put(g.qs, g)
	}
	//lint:ignore hotalloc per-group tuple storage; growth is amortized over the slice's lifetime
	g.tuples = append(g.tuples, t)
	if s.mode == StoreAdaptive && s.count >= minTuplesForSwitch &&
		float64(s.count) < adaptiveSwitchThreshold*float64(s.groups.len()) {
		s.degenerate()
	}
}

// regroup rebuilds the query-set groups of a list-mode store (the inverse
// marker transition of §3.2.3, taken when the active query count drops back
// under the threshold).
func (s *sliceStore) regroup() {
	if s.grouped {
		return
	}
	s.groups = newQSIndex[tupleGroup]()
	s.grouped = true
	list := s.list
	s.list = nil
	s.count = 0
	for _, t := range list {
		s.Add(t)
	}
}

// setMode switches the store's layout to match a session marker (§3.2.3).
func (s *sliceStore) setMode(m StoreMode) {
	s.mode = m
	switch m {
	case StoreList:
		s.degenerate()
	case StoreGrouped:
		s.regroup()
	}
}

// degenerate flattens a grouped store into list mode (the marker-triggered
// data-structure change of §3.2.3 applies this to all slices at once).
// Groups flatten in canonical key order — a pure function of the stored
// content, so flattening is replay-deterministic.
func (s *sliceStore) degenerate() {
	if !s.grouped {
		return
	}
	//lint:ignore hotalloc marker transition: rebuilding the layout is a one-off O(n) event, not steady state
	s.list = make([]event.Tuple, 0, s.count)
	for _, g := range s.groups.order {
		//lint:ignore hotalloc appends within the exact capacity reserved above
		s.list = append(s.list, g.tuples...)
	}
	s.groups = nil
	s.grouped = false
}

// Len returns the number of stored tuples.
func (s *sliceStore) Len() int { return s.count }

// Grouped reports whether the store is currently in grouped mode.
func (s *sliceStore) Grouped() bool { return s.grouped }

// GroupCount returns the number of query-set groups (0 in list mode).
func (s *sliceStore) GroupCount() int {
	if s.groups == nil {
		return 0
	}
	return s.groups.len()
}

// joinEntry is one build-side tuple in the kernel's hash index. qs points at
// the owning group's query-set (stable for the duration of the kernel) so no
// bitset is copied during the build.
type joinEntry struct {
	t    *event.Tuple
	qs   *bitset.Bits
	next int32 // previous entry with the same key, -1 terminates
}

// joinScratch is the reusable state of the slice ⋈ slice kernel. One
// instance lives on each SharedJoin; after warm-up the kernel allocates
// nothing per pair: the hash index map is cleared (not rebuilt), the entry
// arena is truncated (capacity retained), and the query-set intersection is
// computed in a scratch bitset.
type joinScratch struct {
	heads   map[int64]int32 //lint:pooled scratch cleared hash-index scratch
	entries []joinEntry     //lint:pooled scratch truncated entry-arena scratch
	qsTmp   bitset.Bits     //lint:pooled scratch query-set intersection scratch
}

// join produces joined tuples for every key-equal pair whose query-sets
// intersect under mask, appending results (which carry qsA ∩ qsB ∩ mask) to
// *out. This is the slice ⋈ slice kernel: the smaller side is hash-indexed,
// group-level query-set tests prune non-intersecting groups wholesale
// (paper §3.1.4). Iteration follows the stores' canonical group order, so
// result order is a pure function of the stored content.
//
//lint:hotpath
func (js *joinScratch) join(a, b *sliceStore, mask bitset.Bits, out *[]event.JoinedTuple) {
	if a.count == 0 || b.count == 0 || mask.IsEmpty() {
		return
	}
	build, probe := a, b
	swapped := false
	if b.count < a.count {
		build, probe = b, a
		swapped = true
	}
	if js.heads == nil {
		//lint:ignore hotalloc warm-up: the scratch hash index is built once and reused across joins
		js.heads = make(map[int64]int32, build.count)
	} else {
		for k := range js.heads {
			delete(js.heads, k)
		}
	}
	js.entries = js.entries[:0]

	// Build: index every mask-relevant build-side tuple by key.
	if build.grouped {
		for _, g := range build.groups.order {
			if !g.qs.Intersects(mask) {
				continue
			}
			for i := range g.tuples {
				js.addEntry(&g.tuples[i], &g.qs)
			}
		}
	} else {
		for i := range build.list {
			t := &build.list[i]
			if !t.QuerySet.Intersects(mask) {
				continue
			}
			js.addEntry(t, &t.QuerySet)
		}
	}
	if len(js.entries) == 0 {
		return
	}

	// Probe group-wise so the group-level query-set test still prunes work.
	if probe.grouped {
		for _, g := range probe.groups.order {
			if !g.qs.Intersects(mask) {
				continue
			}
			for i := range g.tuples {
				js.probeOne(&g.tuples[i], g.qs, mask, swapped, out)
			}
		}
	} else {
		for i := range probe.list {
			pt := &probe.list[i]
			if !pt.QuerySet.Intersects(mask) {
				continue
			}
			js.probeOne(pt, pt.QuerySet, mask, swapped, out)
		}
	}
}

func (js *joinScratch) addEntry(t *event.Tuple, qs *bitset.Bits) {
	e := joinEntry{t: t, qs: qs, next: -1}
	if h, ok := js.heads[t.Key]; ok {
		e.next = h
	}
	//lint:ignore hotalloc appends into scratch capacity retained across joins; grows only to the high-water mark
	js.entries = append(js.entries, e)
	js.heads[t.Key] = int32(len(js.entries) - 1)
}

// probeOne joins one probe-side tuple against the build index.
func (js *joinScratch) probeOne(pt *event.Tuple, pqs bitset.Bits, mask bitset.Bits, swapped bool, out *[]event.JoinedTuple) {
	h, ok := js.heads[pt.Key]
	if !ok {
		return
	}
	for idx := h; idx >= 0; {
		e := &js.entries[idx]
		idx = e.next
		if !e.qs.Intersects(pqs) {
			continue
		}
		js.qsTmp.CopyFrom(*e.qs)
		js.qsTmp.AndInPlace(pqs)
		js.qsTmp.AndInPlace(mask)
		if js.qsTmp.IsEmpty() {
			continue
		}
		jt := event.JoinedTuple{Key: pt.Key, QuerySet: js.qsTmp.Clone()}
		left, right := e.t, pt
		if swapped {
			left, right = pt, e.t
		}
		jt.Left = left.Fields
		jt.Right = right.Fields
		jt.Time = left.Time
		if right.Time > jt.Time {
			jt.Time = right.Time
		}
		jt.IngestNanos = left.IngestNanos
		if right.IngestNanos > jt.IngestNanos {
			jt.IngestNanos = right.IngestNanos
		}
		//lint:ignore hotalloc appends into the caller's reused output slice; grows only to the high-water mark
		*out = append(*out, jt)
	}
}
