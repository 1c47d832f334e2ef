package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// aggVal is the shared partial aggregate for one (query-set group, key): all
// the per-field statistics any query's aggregate can be finalized from, so
// every query sharing the group shares a single update per tuple
// (paper §3.1.5: tuples are folded into intermediate results and discarded).
type aggVal struct {
	Count       int64
	Sum         [event.NumFields]int64
	Min         [event.NumFields]int64
	Max         [event.NumFields]int64
	IngestNanos int64 // freshest contributor
}

func (v *aggVal) reset() {
	v.Count = 0
	v.IngestNanos = 0
	for i := range v.Min {
		v.Sum[i] = 0
		v.Min[i] = 1<<63 - 1
		v.Max[i] = -1 << 63
	}
}

func (v *aggVal) fold(t *event.Tuple) {
	v.Count++
	for i, f := range t.Fields {
		v.Sum[i] += f
		if f < v.Min[i] {
			v.Min[i] = f
		}
		if f > v.Max[i] {
			v.Max[i] = f
		}
	}
	if t.IngestNanos > v.IngestNanos {
		v.IngestNanos = t.IngestNanos
	}
}

func (v *aggVal) merge(o *aggVal) {
	v.Count += o.Count
	for i := range v.Sum {
		v.Sum[i] += o.Sum[i]
		if o.Min[i] < v.Min[i] {
			v.Min[i] = o.Min[i]
		}
		if o.Max[i] > v.Max[i] {
			v.Max[i] = o.Max[i]
		}
	}
	if o.IngestNanos > v.IngestNanos {
		v.IngestNanos = o.IngestNanos
	}
}

// finalizeCountSum computes the query-visible value of the count/sum family
// from a (count, sum) pair. Both slice-partial finalize and session harvest
// route through it so truncation rules (integer Avg, empty-count zero)
// cannot diverge when aggregate functions are added.
func finalizeCountSum(fn sqlstream.AggFunc, count, sum int64) int64 {
	switch fn {
	case sqlstream.AggCount:
		return count
	case sqlstream.AggAvg:
		if count == 0 {
			return 0
		}
		return sum / count
	default:
		return sum
	}
}

// finalize computes the query-visible value.
func (v *aggVal) finalize(fn sqlstream.AggFunc, field int) int64 {
	switch fn {
	case sqlstream.AggCount:
		return finalizeCountSum(fn, v.Count, 0)
	case sqlstream.AggSum, sqlstream.AggAvg:
		return finalizeCountSum(fn, v.Count, v.Sum[field])
	case sqlstream.AggMin:
		return v.Min[field]
	case sqlstream.AggMax:
		return v.Max[field]
	default:
		return 0
	}
}

// aggGroup is a query-set group of an open slice: its per-key partials are
// byKey's, and keys and vals list them so walking a group never touches the
// map. A group is recycled whole, map and lists emptied, when its slice is
// sealed or evicted.
type aggGroup struct {
	qs    bitset.Bits
	byKey map[int64]*aggVal
	keys  []int64
	vals  []*aggVal // parallel to keys
}

// add gives the group partial v for key.
func (g *aggGroup) add(key int64, v *aggVal) {
	g.byKey[key] = v
	// amortized: a recycled group's lists keep their capacity; they grow once per first-seen key
	g.keys = append(g.keys, key)
	g.vals = append(g.vals, v)
}

// aggIndex is one slice's partials. While the slice is open they sit in the
// query-set groups of open. Sealing (DESIGN.md §15) replaces the groups by
// slot classes — the slots every group of the slice either contains together
// or excludes together — each holding one row per key any of those groups
// has, merged over them: from then on the rows are the slice's only storage.
type aggIndex struct {
	open *qsIndex // nil while sealed
	// classes[c] ends class c's slots in slots and its rows in rows. Classes
	// are ordered by smallest slot, a class's slots ascend and its rows
	// ascend by key.
	classes []aggClass
	slots   []int32
	rows    []aggRow
}

// aggClass is where one class's slots and rows end.
type aggClass struct {
	slotEnd, rowEnd int32
}

// classSlots returns class c's slots.
func (x *aggIndex) classSlots(c int) []int32 {
	from := int32(0)
	if c > 0 {
		from = x.classes[c-1].slotEnd
	}
	return x.slots[from:x.classes[c].slotEnd]
}

// classRows returns class c's rows.
func (x *aggIndex) classRows(c int) []aggRow {
	from := int32(0)
	if c > 0 {
		from = x.classes[c-1].rowEnd
	}
	return x.rows[from:x.classes[c].rowEnd]
}

// aggRow is one key's merged partial: a class's in a sealed slice, a block's
// window result in a fire.
type aggRow struct {
	key int64
	v   aggVal
}

// aggPart is one partial of a slice being sealed, its group named by position.
type aggPart struct {
	group int32
	v     *aggVal
}

// keyChain is one distinct key of a slice being sealed and its last partial;
// sealScratch.next chains the partials of the key.
type keyChain struct {
	key  int64
	head int32
}

// cmpKeyChain orders chains by key.
func cmpKeyChain(p, q keyChain) int { return cmp.Compare(p.key, q.key) }

// cmpGroupSets orders groups by their query-sets' first words.
func cmpGroupSets(g, h *aggGroup) int { return cmp.Compare(g.qs.Word(0), h.qs.Word(0)) }

// aggWindow is the window the aggregation fires for q: a complex query
// aggregates its join's output over its second window.
func aggWindow(q *Query) window.Spec {
	if q.Kind == KindComplex {
		return q.AggWindow
	}
	return q.Window
}

// insertSortedInt64 inserts v into ascending s, keeping it sorted (no-op if
// already present).
func insertSortedInt64(s []int64, v int64) []int64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	// session path: sorted-times slice growth is amortized per new session element
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// SharedAggregation is the shared windowed aggregation operator (§3.1.5).
// Port 0 carries selected stream-0 tuples (arity-1 aggregations); port k ≥ 1
// carries the output of join stage k-1 (complex queries of arity k+1).
// Tuples fold into per-query-set partial aggregates of their slice and are
// then discarded; window results combine slice partials.
type SharedAggregation struct {
	spe.BaseLogic
	// win drives the slice ring (per-slice partials in slice.aggs) and the
	// windowed queries. Its epochs carry the per-port and session slot
	// masks: slot reuse makes a bare slot ambiguous (the same bit can mean
	// "aggregation input" in one epoch and "join input of a complex query"
	// in the next), and resolving the masks against the tuple's event-time
	// removes the ambiguity, as the shared selection resolves its predicate
	// table.
	win     windowOp
	router  *Router
	metrics *OpMetrics

	// Steady-state scratch (owned by the instance goroutine): query-set
	// intersection temporaries, the seal's, and the fire path's equivalence
	// blocks and result rows.
	qsTmp     bitset.Bits // per-tuple query-set intersection scratch
	lateRows  []int32     // the rows of a sealed slice one tuple folds into
	sealTmp   sealScratch // the seal's slot partition, class numbering and key chains
	caps      []fireCap   // per-cap-group slot mask, per-slice relation and slot table, parallel to the trigger's cap groups
	blocks    partition   // the trigger's queries partitioned into equivalence blocks
	blockRows [][]aggRow  // per block, its window result ascending by key; the buffers are reused across fires
	rowTmp    []aggRow    // merge output, swapped with the block rows it replaces
	members   []int32     // per effective (slice, class), the trigger queries in it, back to back
	met       []metPair   // (slice, class) pairs pass one found effective for some cap group
	valPool   []*aggVal   // recycled aggVal backings
	valSlab   []aggVal    // slab chunk fresh partials are carved from; they recycle through valPool
	rowPool   [][]aggRow  // recycled row backings
	groupPool []*aggGroup // emptied groups, map and lists at the size they grew to
	openPool  []*qsIndex  // emptied group indexes of sealed or evicted slices
	indexPool []*aggIndex // evicted slices' indexes, their class and slot lists at the size they grew to
}

// fireCap is one cap group's side of a fire. Slots are unique within a cap
// group (a slot's previous tenant was deleted under an older cap), so slotQ
// resolves every slot of an effective membership, which is masked to mask.
type fireCap struct {
	mask  bitset.Bits // slots of the cap group's queries; empty when the cap is compacted away
	rel   bitset.Bits // Rel(epoch of the slice being walked, cap) ∧ mask
	slotQ []int32     // slot → trigger query index
}

// metPair names one effective (slice, class) pair of a fire — the slice by
// its offset in the extent's slice run — and its queries, members[from:to].
type metPair struct {
	slice, class, from, to int32
}

// partition is exact partition refinement by count and move. Elements are
// small integers placed in parts by of; a refine round splits every part the
// round's set cuts — some members inside, some outside — moving the inside
// ones to a new part, in two walks over the set: count each met part's inside
// members, then move them where the count fell short of the part's size.
// Elements share a part exactly when no set of the rounds tells them apart,
// and a round costs the set's size: nothing is hashed or compared pairwise.
// The seal partitions a slice's slots by its groups' query-sets; the fire
// partitions a trigger's queries by their effective memberships.
type partition struct {
	of    []int32 // element → part
	parts []part
	round uint64  // bumped per round: a part took part in the current one iff its stamp equals it
	cut   []int32 // parts met by the current refine round
}

// part is one part of a partition.
type part struct {
	size  int32 // member elements
	hits  int32 // members met by refine round `round`
	split int32 // part those members move to in that round, -1 while whole
	round uint64
}

// add appends an empty part expecting size elements; the caller places them.
func (p *partition) add(size int32) int32 {
	// amortized: the part list grows to the widest partition once
	p.parts = append(p.parts, part{size: size, split: -1})
	return int32(len(p.parts) - 1)
}

// place grows of to cover element e and puts e in part pt.
func (p *partition) place(e, pt int32) {
	for int(e) >= len(p.of) {
		// amortized: the element table grows to the widest element once
		p.of = append(p.of, -1)
	}
	p.of[e] = pt
}

// refine is one refinement round by set, a list of distinct placed elements.
func (p *partition) refine(set []int32) {
	p.round++
	p.cut = p.cut[:0]
	for _, e := range set {
		pt := &p.parts[p.of[e]]
		if pt.round != p.round {
			pt.round, pt.hits = p.round, 0
			// amortized: met-part scratch grows to the widest partition once
			p.cut = append(p.cut, p.of[e])
		}
		pt.hits++
	}
	cut := false
	for _, b := range p.cut {
		p.parts[b].split = -1
		if hits := p.parts[b].hits; hits < p.parts[b].size {
			nb := p.add(hits) // may move p.parts
			p.parts[b].size -= hits
			p.parts[b].split = nb
			cut = true
		}
	}
	if !cut {
		return
	}
	for _, e := range set {
		if nb := p.parts[p.of[e]].split; nb >= 0 {
			p.of[e] = nb
		}
	}
}

// first reports whether part b is met for the first time in the current
// round, and stamps it; a caller marking parts bumps round to open a round.
func (p *partition) first(b int32) bool {
	if p.parts[b].round == p.round {
		return false
	}
	p.parts[b].round = p.round
	return true
}

// sealScratch is the seal's scratch, reused across seals.
type sealScratch struct {
	parts    partition       // the slice's slots partitioned into classes
	union    bitset.Bits     // every slot of any group
	slots    []int32         // the union's slots, ascending
	members  []int32         // every group's slots, back to back
	memEnd   []int32         // per group, where its slots end in members
	classOf  []int32         // part → class, classes numbered by smallest slot
	cls      []int32         // per group, the classes it contains, back to back
	clsEnd   []int32         // per group, where its classes end in cls
	at       []int32         // per class, its next slot or row
	seen     []int32         // per class, a stamp: the last group listing it, then the last key ordinal giving it a row
	keyAt    map[int64]int32 // key → its chain while chaining
	chains   []keyChain      // per distinct key, at keyAt[key]; then ascending by key
	partials []aggPart       // every partial of the slice, group by group
	next     []int32         // per partial, the key's partial before it, -1 for none
}

// NewSharedAggregation constructs the logic for one instance.
func NewSharedAggregation(ports int, lateness event.Time, router *Router, m *OpMetrics) *SharedAggregation {
	return &SharedAggregation{
		win:     newWindowOp(lateness, ports, aggWindow, newSlicer()),
		router:  router,
		metrics: m,
	}
}

// aggPortOf returns the input port whose tuples feed q's aggregation, or -1
// when q is not an aggregation consumer.
func aggPortOf(q *Query) int {
	switch q.Kind {
	case KindAggregation:
		return 0
	case KindComplex:
		return q.Arity - 1
	default:
		return -1
	}
}

// OnChangelog updates active queries, epochs, and the table. A changelog
// cuts the slices, and opens an epoch with its own slot masks, only if it
// creates or deletes a windowed query.
func (a *SharedAggregation) OnChangelog(payload any, at event.Time, _ *spe.Emitter) {
	msg := payload.(*ChangelogMsg)
	cut := a.win.queries.markDeleted(msg.CL, at)
	for _, c := range msg.CL.Created {
		q := msg.Defs[c.Query]
		if q == nil {
			continue
		}
		if port := aggPortOf(q); port >= 0 && port < a.win.ports {
			lq := a.win.queries.admit(q, c.Slot, at)
			lq.port = port
			if lq.spec.Kind == window.Session {
				lq.sessions = make(map[int64]*window.SessionState)
			}
			cut = true
		}
	}
	a.win.addEpoch(msg.CL, at, cut)
}

// aggSlabLen is the number of partials in one slab chunk: 240 × 136 B fills
// the 32 KiB size class to within 128 B.
const aggSlabLen = 240

// getVal pops a recycled partial or carves a fresh one from the newest slab.
// Partials are never freed individually — they cycle between slices and the
// freelist — so slabs cost nothing in lifetime and save
// the per-object size-class rounding and GC bookkeeping of ~100 k separate
// pointer-free objects.
func (a *SharedAggregation) getVal() *aggVal {
	var v *aggVal
	if n := len(a.valPool); n > 0 {
		v = a.valPool[n-1]
		a.valPool = a.valPool[:n-1]
	} else {
		if len(a.valSlab) == 0 {
			// amortized: one chunk per aggSlabLen first-seen (group, key) pairs; steady state reuses pooled values
			a.valSlab = make([]aggVal, aggSlabLen)
		}
		v = &a.valSlab[0]
		a.valSlab = a.valSlab[1:]
	}
	v.reset()
	return v
}

func (a *SharedAggregation) putVal(v *aggVal) {
	// amortized: freelist grows to the steady-state partial count once
	a.valPool = append(a.valPool, v)
}

// takeGroup returns an empty group for qs: a recycled one, its map and key
// list at the size an earlier slice's group grew them to, or a fresh one.
func (a *SharedAggregation) takeGroup(qs bitset.Bits) *aggGroup {
	var g *aggGroup
	if n := len(a.groupPool) - 1; n >= 0 {
		g = a.groupPool[n]
		a.groupPool[n] = nil
		a.groupPool = a.groupPool[:n]
	} else {
		g = &aggGroup{byKey: make(map[int64]*aggVal)}
	}
	g.qs.CopyFrom(qs)
	return g
}

// takeIndex returns an empty index for a slice: recycled, or fresh. It is
// sealed (no open groups) until the caller opens it.
func (a *SharedAggregation) takeIndex() *aggIndex {
	if n := len(a.indexPool) - 1; n >= 0 {
		x := a.indexPool[n]
		a.indexPool[n] = nil
		a.indexPool = a.indexPool[:n]
		return x
	}
	return &aggIndex{}
}

// openIndex gives x an empty group index, recycled or fresh.
func (a *SharedAggregation) openIndex(x *aggIndex) {
	if n := len(a.openPool) - 1; n >= 0 {
		x.open = a.openPool[n]
		a.openPool[n] = nil
		a.openPool = a.openPool[:n]
		return
	}
	// cold: one index per open slice, recycled through openPool
	x.open = &qsIndex{}
}

// dropGroups recycles x's open groups and their index, x's partials having
// been returned already; x is sealed afterwards.
func (a *SharedAggregation) dropGroups(x *aggIndex) {
	for _, g := range x.open.order {
		clear(g.byKey)
		clear(g.vals)
		g.keys, g.vals = g.keys[:0], g.vals[:0]
		// amortized: the freelist grows to the steady-state group count once
		a.groupPool = append(a.groupPool, g)
	}
	x.open.reset()
	// amortized: the freelist grows to the steady-state open slice count once
	a.openPool = append(a.openPool, x.open)
	x.open = nil
}

// dropIndex recycles an evicted slice's index with everything it holds.
func (a *SharedAggregation) dropIndex(x *aggIndex) {
	if x.open != nil {
		for _, g := range x.open.order {
			for _, v := range g.vals {
				a.putVal(v)
			}
		}
		a.dropGroups(x)
	}
	a.dropRows(x)
	// amortized: the freelist grows to the steady-state slice count once
	a.indexPool = append(a.indexPool, x)
}

// takeRows returns n rows: the smallest recycled backing large enough, else
// a fresh one of exactly n, dropping a recycled backing too small for it so
// the freelist cannot fill with them. No spare room: a recycled backing waits
// idle for the next seal, and spare room in every live one would cost more
// heap than the rare fresh backing.
func (a *SharedAggregation) takeRows(n int) []aggRow {
	best := -1
	for i, rows := range a.rowPool {
		if cap(rows) >= n && (best < 0 || cap(rows) < cap(a.rowPool[best])) {
			best = i
		}
	}
	last := len(a.rowPool) - 1
	if best >= 0 {
		rows := a.rowPool[best]
		a.rowPool[best] = a.rowPool[last]
		a.rowPool[last] = nil
		a.rowPool = a.rowPool[:last]
		return rows[:n]
	}
	if last >= 0 {
		a.rowPool[last] = nil
		a.rowPool = a.rowPool[:last]
	}
	// the seal: one backing per slice until eviction or an unseal recycles it
	return make([]aggRow, n)
}

// dropRows recycles x's class rows and empties its class layout.
func (a *SharedAggregation) dropRows(x *aggIndex) {
	if x.rows != nil {
		// amortized: the freelist grows to the steady-state count of backings awaiting reuse once
		a.rowPool = append(a.rowPool, x.rows[:0])
	}
	x.rows = nil
	x.classes, x.slots = x.classes[:0], x.slots[:0]
}

// OnTuple folds the tuple into slice partials (and serves session windows
// directly), masked to the port's queries of the epoch in effect at the
// tuple's time. Steady state allocates nothing: the masked query-set lands
// in a scratch bitset, group lookup is key-scratch based, and per-key
// partials come from the freelist.
func (a *SharedAggregation) OnTuple(port int, t event.Tuple, _ *spe.Emitter) {
	ep := a.win.sides[0].epochAt(t.Time)
	if port >= len(ep.portMasks) {
		return
	}
	t.QuerySet.AndInto(ep.portMasks[port], &a.qsTmp)
	if a.qsTmp.IsEmpty() {
		return
	}
	if t.Time < a.win.evictedThru[0] {
		atomic.AddUint64(&a.metrics.Late, 1)
		return
	}
	// Session-window queries keep per-key data-driven state.
	if a.qsTmp.Intersects(ep.sessMask) {
		for _, aq := range a.win.queries.ordered {
			if aq.sessions == nil || !a.qsTmp.Test(aq.slot) || t.Time < aq.since || t.Time >= aq.until {
				continue
			}
			ss := aq.sessions[t.Key]
			if ss == nil {
				ss = window.NewSessionState(aq.spec.Gap)
				aq.sessions[t.Key] = ss
				aq.sessKeys = insertSortedInt64(aq.sessKeys, t.Key)
			}
			ss.Add(t.Time, a.valueOf(aq, &t))
		}
		a.qsTmp.AndNotInPlace(ep.sessMask)
		if a.qsTmp.IsEmpty() {
			return
		}
	}
	sl := a.win.writeSlice(0, t.Time)
	if sl.aggs == nil {
		sl.aggs = a.takeIndex()
		a.openIndex(sl.aggs)
	}
	a.fold(sl.aggs, &t)
}

// fold folds t, its masked query-set in qsTmp, into slice index x: into the
// group of qsTmp, or — a tuple into a sealed slice, late or into a slice a
// snapshot sealed — into the class rows in place when it can (foldSealed),
// else into the group after unsealing the slice.
func (a *SharedAggregation) fold(x *aggIndex, t *event.Tuple) {
	if x.open == nil {
		if a.foldSealed(x, t) {
			return
		}
		a.unseal(x)
	}
	g := x.open.get(a.qsTmp)
	if g == nil {
		g = a.takeGroup(a.qsTmp)
		x.open.put(g)
	}
	v := g.byKey[t.Key]
	if v == nil {
		v = a.getVal()
		g.add(t.Key, v)
	}
	v.fold(t)
}

func (a *SharedAggregation) valueOf(aq *liveQuery, t *event.Tuple) int64 {
	if aq.q.Agg == sqlstream.AggCount || aq.q.AggField < 0 {
		return 1
	}
	return t.Fields[aq.q.AggField]
}

// OnWatermark triggers windows ending in (lastWM, wm], harvests closed
// sessions, and evicts expired slices.
func (a *SharedAggregation) OnWatermark(wm event.Time, _ *spe.Emitter) {
	if wm <= a.win.lastWM {
		return
	}
	a.win.collectTriggers(wm)
	for _, tr := range a.win.trig.list {
		a.fireWindow(tr.ext, tr.queries)
	}
	a.retire(wm)
}

// retire finishes a watermark once its windows have fired: session harvest,
// then the driver's purge, eviction and compaction.
func (a *SharedAggregation) retire(wm event.Time) {
	// Session harvest, in (slot, key) order for deterministic emission;
	// sessKeys is maintained sorted so no per-watermark key sort.
	for _, aq := range a.win.queries.ordered {
		if aq.sessions == nil {
			continue
		}
		keys := aq.sessKeys
		kept := keys[:0]
		for _, key := range keys {
			ss := aq.sessions[key]
			for _, cs := range ss.Harvest(wm) {
				if cs.Extent.End > aq.until {
					continue // session outlived the query
				}
				atomic.AddUint64(&a.metrics.AggOut, 1)
				val := finalizeCountSum(aq.q.Agg, cs.Count, cs.Sum)
				a.router.Deliver(Result{
					QueryID:   aq.q.ID,
					Kind:      aq.q.Kind,
					Window:    cs.Extent,
					Key:       key,
					Value:     val,
					EventTime: cs.Extent.End,
				})
			}
			if ss.Open() == 0 {
				delete(aq.sessions, key)
			} else {
				kept = append(kept, key)
			}
		}
		aq.sessKeys = kept
	}

	// Evicted slices return their index, with its partials and groups or its
	// rows, to the freelists.
	a.win.retire(wm, func(_ int, sl *slice) {
		if x := sl.aggs; x != nil {
			sl.aggs = nil
			a.dropIndex(x)
		}
	})
}

// emitRows delivers one query's window rows, ascending by key.
func (a *SharedAggregation) emitRows(aq *liveQuery, ext window.Extent, rows []aggRow) {
	atomic.AddUint64(&a.metrics.AggOut, uint64(len(rows)))
	for i := range rows {
		r := &rows[i]
		a.router.Deliver(Result{
			QueryID:     aq.q.ID,
			Kind:        aq.q.Kind,
			Window:      ext,
			Key:         r.key,
			Value:       r.v.finalize(aq.q.Agg, aq.q.AggField),
			EventTime:   ext.End,
			IngestNanos: r.v.IngestNanos,
		})
	}
}

// fireWindow combines slice partials for one window extent and emits one row
// per (query, key) in (slot, ID, key) order; queries arrive in (slot, ID)
// order. It runs two passes (DESIGN.md §15). The first walks the extent's
// (slice, class) pairs, sealing the slices it meets: for every pair it lists
// the queries of any cap group the class is effective for, and refines the
// queries into equivalence blocks by that list. After it, a block lies in at
// most one class of any slice. The second merges each effective pair's rows
// into each block it covers. Work and row memory scale with blocks and
// classes, not queries and groups; a lone query is a lone block and the fire
// is the plain per-slice scan.
func (a *SharedAggregation) fireWindow(ext window.Extent, queries []*liveQuery) {
	ring := a.win.sides[0]
	lo, hi := ring.overlappingRange(ext)
	if lo == hi {
		return
	}
	groups := a.win.capGroups(queries)
	bp := &a.blocks
	bp.parts = bp.parts[:0]
	for qi := range queries {
		bp.place(int32(qi), -1)
	}

	for len(a.caps) < len(groups) {
		// amortized: cap scratch grows to the widest trigger's cap-group count once
		a.caps = append(a.caps, fireCap{})
	}
	for ci, cg := range groups {
		fc := &a.caps[ci]
		fc.mask.Reset()
		if cg.cap < a.win.table.Base() {
			// Every slice as old as this cap is gone: nothing left to emit.
			continue
		}
		// All of the cap group's queries start in one block.
		blk := bp.add(int32(len(cg.idxs)))
		for _, qi := range cg.idxs {
			slot := queries[qi].slot
			fc.mask.Set(slot)
			for len(fc.slotQ) <= slot {
				// amortized: slot table grows to the widest slot once
				fc.slotQ = append(fc.slotQ, 0)
			}
			fc.slotQ[slot] = int32(qi)
			bp.of[qi] = blk
		}
	}
	// Pass one. A class's members for one cap group are its slots in the
	// group's rel, resolved to queries; blocks never span cap groups, so one
	// round over every cap group's members refines each group by its own.
	a.met, a.members = a.met[:0], a.members[:0]
	for si, sl := range ring.slices[lo:hi] {
		if sl.aggs == nil || !a.relate(sl, groups) {
			continue
		}
		x := sl.aggs
		a.seal(x)
		for c := range x.classes {
			from := len(a.members)
			for ci := range groups {
				fc := &a.caps[ci]
				if fc.rel.IsEmpty() {
					continue
				}
				for _, s := range x.classSlots(c) {
					if fc.rel.Test(int(s)) {
						// amortized: member scratch grows to the widest trigger's member count once
						a.members = append(a.members, fc.slotQ[s])
					}
				}
			}
			if to := len(a.members); to > from {
				bp.refine(a.members[from:to])
				// amortized: met-pair scratch grows to the widest trigger's pair count once
				a.met = append(a.met, metPair{slice: int32(si), class: int32(c), from: int32(from), to: int32(to)})
			}
		}
	}
	// Pass two. A block lies wholly inside or wholly outside a pair's
	// members, so the first member met decides and the round stamp skips the
	// rest: each pair's rows merge into each block it covers once.
	for len(a.blockRows) < len(bp.parts) {
		// amortized: row buffer list grows to the widest trigger's block count once
		a.blockRows = append(a.blockRows, nil)
	}
	for b := range bp.parts {
		a.blockRows[b] = a.blockRows[b][:0]
	}
	for _, m := range a.met {
		rows := ring.slices[lo+int(m.slice)].aggs.classRows(int(m.class))
		bp.round++
		for _, qi := range a.members[m.from:m.to] {
			if b := bp.of[qi]; bp.first(b) {
				a.mergeRows(b, rows)
			}
		}
	}

	for qi, aq := range queries {
		if b := bp.of[qi]; b >= 0 {
			a.emitRows(aq, ext, a.blockRows[b])
		}
	}
}

// mergeRows merges src, a class's rows, into block b's, both ascending by
// key. Into an empty block it is a copy; while every key of src is the
// block's already it is in place; from the first that is not, the rest goes
// through rowTmp, which then swaps with the block's buffer, so both stay
// allocated across fires.
func (a *SharedAggregation) mergeRows(b int32, src []aggRow) {
	dst := a.blockRows[b]
	if len(dst) == 0 {
		a.blockRows[b] = resize(dst, len(src))
		copy(a.blockRows[b], src)
		return
	}
	i := 0
	for j := range src {
		for i < len(dst) && dst[i].key < src[j].key {
			i++
		}
		if i < len(dst) && dst[i].key == src[j].key {
			dst[i].v.merge(&src[j].v)
			i++
			continue
		}
		out := resize(a.rowTmp, len(dst)+len(src)-j)
		k := copy(out, dst[:i])
		for ; i < len(dst) && j < len(src); k++ {
			switch {
			case dst[i].key < src[j].key:
				out[k] = dst[i]
				i++
			case dst[i].key > src[j].key:
				out[k] = src[j]
				j++
			default:
				out[k] = dst[i]
				out[k].v.merge(&src[j].v)
				i, j = i+1, j+1
			}
		}
		k += copy(out[k:], dst[i:])
		k += copy(out[k:], src[j:])
		a.blockRows[b], a.rowTmp = out[:k], dst[:0]
		return
	}
}

// relate loads every cap group's rel for sl — the group's slots live from
// sl's epoch through its cap — and reports whether any group has one.
func (a *SharedAggregation) relate(sl *slice, groups []capGroup) (any bool) {
	for ci, cg := range groups {
		fc := &a.caps[ci]
		if fc.mask.IsEmpty() {
			fc.rel.Reset()
			continue
		}
		rel := a.win.table.Rel(sl.epoch, cg.cap)
		rel.AndInto(fc.mask, &fc.rel)
		any = any || !fc.rel.IsEmpty()
	}
	return any
}

// resize returns s at length n: on its own backing when that is large
// enough, else on a fresh one. The contents are the caller's to write.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		// amortized: scratch grows to the widest use once
		return make([]T, n)
	}
	return s[:n]
}

// appendSlots appends qs's slots to dst, ascending.
func appendSlots(dst []int32, qs bitset.Bits) []int32 {
	for wi, nw := 0, qs.WordCount(); wi < nw; wi++ {
		for w := qs.Word(wi); w != 0; w &= w - 1 {
			// appends into the caller's scratch; grows to the widest set once
			dst = append(dst, int32(wi*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// seal lays an open slice out for the fires over it, once: the first fire
// after the watermark closed it, or a snapshot before that, finds it open.
// It partitions the slice's slots into classes by refinement over its
// groups' query-sets — O(Σ popcount), the coarsest partition in which every
// group is a union of classes — numbers the classes by smallest slot, walks
// the partials key by key and gives each class one row per key any group
// containing it has, merging those groups' partials. Then every partial,
// group and the group index go back to the freelists: the rows are the
// storage. A tuple the rows cannot take unseals the slice (unseal), and the
// next fire or snapshot seals it again.
func (a *SharedAggregation) seal(x *aggIndex) {
	o := x.open
	if o == nil {
		return
	}
	// Any order would do, but over sorted groups a key's partials, which the
	// rows merge group by group, meet neighbours that share most classes.
	slices.SortFunc(o.order, cmpGroupSets)
	st := &a.sealTmp
	p := &st.parts
	p.parts = p.parts[:0]
	st.union.Reset()
	for _, g := range o.order {
		st.union.OrInPlace(g.qs)
	}
	st.slots = appendSlots(st.slots[:0], st.union)
	all := p.add(int32(len(st.slots)))
	for _, s := range st.slots {
		p.place(s, all)
	}
	st.members, st.memEnd = st.members[:0], resize(st.memEnd, len(o.order))
	for gi, g := range o.order {
		from := len(st.members)
		st.members = appendSlots(st.members, g.qs)
		p.refine(st.members[from:])
		st.memEnd[gi] = int32(len(st.members))
	}

	// Number the classes by smallest slot and lay their slots out ascending.
	st.classOf = resize(st.classOf, len(p.parts))
	for i := range st.classOf {
		st.classOf[i] = -1
	}
	nc := 0
	for _, s := range st.slots {
		if pt := p.of[s]; st.classOf[pt] < 0 {
			st.classOf[pt] = int32(nc)
			nc++
		}
	}
	x.classes, x.slots = resize(x.classes, nc), resize(x.slots, len(st.slots))
	st.at, st.seen = resize(st.at, nc), resize(st.seen, nc)
	clear(x.classes)
	clear(st.seen)
	for _, s := range st.slots {
		x.classes[st.classOf[p.of[s]]].slotEnd++
	}
	end := int32(0)
	for c := range x.classes {
		st.at[c] = end
		end += x.classes[c].slotEnd
		x.classes[c].slotEnd = end
	}
	for _, s := range st.slots {
		c := st.classOf[p.of[s]]
		x.slots[st.at[c]] = s
		st.at[c]++
	}

	// Each group's classes, found through its slots: a group holds whole
	// classes, and the seen stamp lists each once.
	st.cls, st.clsEnd = resize(st.cls, len(st.members)), resize(st.clsEnd, len(o.order))
	n, from := 0, int32(0)
	for gi, to := range st.memEnd {
		for _, s := range st.members[from:to] {
			if c := st.classOf[p.of[s]]; st.seen[c] != int32(gi+1) {
				st.seen[c] = int32(gi + 1)
				st.cls[n] = c
				n++
			}
		}
		from = to
		st.clsEnd[gi] = int32(n)
	}

	// Chain the partials by key — one probe of a reused map each — and order
	// the distinct keys. Walking the chains in key order visits the partials
	// key by key, the order of groups within a key being one merging ignores:
	// a first walk counts each class's rows, one per key it meets, a second
	// fills them.
	if st.keyAt == nil {
		// cold: the seal's key table is made once and cleared per seal
		st.keyAt = make(map[int64]int32)
	}
	clear(st.keyAt)
	n = 0
	for _, g := range o.order {
		n += len(g.keys)
	}
	st.chains, st.partials, st.next = st.chains[:0], resize(st.partials, n), resize(st.next, n)
	n = 0
	for gi, g := range o.order {
		for j, key := range g.keys {
			k, ok := st.keyAt[key]
			if !ok {
				k = int32(len(st.chains))
				st.keyAt[key] = k
				// amortized: seal scratch grows to the widest slice's key count once
				st.chains = append(st.chains, keyChain{key: key, head: -1})
			}
			st.next[n], st.chains[k].head = st.chains[k].head, int32(n)
			st.partials[n] = aggPart{group: int32(gi), v: g.vals[j]}
			n++
		}
	}
	slices.SortFunc(st.chains, cmpKeyChain)
	clear(st.seen)
	for i, ch := range st.chains {
		ord := int32(i + 1)
		for pi := ch.head; pi >= 0; pi = st.next[pi] {
			for _, c := range st.groupClasses(st.partials[pi].group) {
				if st.seen[c] != ord {
					st.seen[c] = ord
					x.classes[c].rowEnd++
				}
			}
		}
	}
	end = 0
	for c := range x.classes {
		st.at[c] = end
		end += x.classes[c].rowEnd
		x.classes[c].rowEnd = end
	}
	x.rows = a.takeRows(int(end))
	for i, ch := range st.chains {
		ord := int32(len(st.chains) + i + 1)
		for pi := ch.head; pi >= 0; pi = st.next[pi] {
			v := st.partials[pi].v
			for _, c := range st.groupClasses(st.partials[pi].group) {
				if st.seen[c] != ord {
					st.seen[c] = ord
					r := &x.rows[st.at[c]]
					r.key, r.v = ch.key, *v
					st.at[c]++
				} else {
					x.rows[st.at[c]-1].v.merge(v)
				}
			}
		}
	}
	for _, pt := range st.partials {
		a.putVal(pt.v)
	}
	a.dropGroups(x)
}

// groupClasses returns the classes group gi of the slice being sealed holds.
func (st *sealScratch) groupClasses(gi int32) []int32 {
	from := int32(0)
	if gi > 0 {
		from = st.clsEnd[gi-1]
	}
	return st.cls[from:st.clsEnd[gi]]
}

// foldSealed folds t — its masked query-set in qsTmp — into a sealed slice's
// rows in place and reports true when every class qsTmp touches lies inside
// it and has a row for t's key: then qsTmp is a union of classes, a group of
// it would not change the partition, and the rows it would add to are
// exactly those. It reports false, having folded nothing, otherwise: a slot
// of no class, a class qsTmp cuts, a key new to a class.
func (a *SharedAggregation) foldSealed(x *aggIndex, t *event.Tuple) bool {
	a.lateRows = a.lateRows[:0]
	covered := 0
	for c := range x.classes {
		slots := x.classSlots(c)
		in := 0
		for _, s := range slots {
			if a.qsTmp.Test(int(s)) {
				in++
			}
		}
		if in == 0 {
			continue
		}
		if in < len(slots) {
			return false
		}
		rows := x.classRows(c)
		i, ok := slices.BinarySearchFunc(rows, t.Key, cmpRowKey)
		if !ok {
			return false
		}
		covered += in
		// amortized: late-fold scratch grows to the widest slice's class count once
		a.lateRows = append(a.lateRows, x.classes[c].rowEnd-int32(len(rows)-i))
	}
	if covered != a.qsTmp.Count() {
		return false
	}
	for _, ri := range a.lateRows {
		x.rows[ri].v.fold(t)
	}
	return true
}

// cmpRowKey orders a row against a key.
func cmpRowKey(r aggRow, key int64) int { return cmp.Compare(r.key, key) }

// unseal reopens a sealed slice for a tuple its rows cannot take: each class
// becomes an open group whose query-set is the class's slots, holding one
// partial per row, and the rows go back to the freelist. Sealing again, with
// whatever groups tuples add meanwhile, gives what never sealing would have:
// every original group was a union of classes, so refining by the classes
// instead of by those groups separates exactly the same slots, the new
// groups refine both alike, and a final class inside class c lies in an
// original group iff c does, so its rows merge the same partials — c's rows
// already merged them — plus the new groups' (aggVal merges commute).
func (a *SharedAggregation) unseal(x *aggIndex) {
	a.openIndex(x)
	for c := range x.classes {
		set := &a.sealTmp.union
		set.Reset()
		for _, s := range x.classSlots(c) {
			set.Set(int(s))
		}
		g := a.takeGroup(*set)
		for _, r := range x.classRows(c) {
			v := a.getVal()
			*v = r.v
			g.add(r.key, v)
		}
		x.open.put(g)
	}
	a.dropRows(x)
}

// fireBench drives one window fire for the benchmark harness: trigger
// collection plus the fire itself, without OnWatermark's harvest/purge/evict
// bookkeeping, so per-op cost is the fire path. Fires all registered
// time-window queries.
func (a *SharedAggregation) fireBench(ext window.Extent) {
	a.win.trig.reset()
	for _, aq := range a.win.queries.ordered {
		if aq.spec.IsTimeBased() && ext.End <= aq.until {
			a.win.trig.add(ext, aq)
		}
	}
	for _, tr := range a.win.trig.list {
		a.fireWindow(tr.ext, tr.queries)
	}
}

// ActiveQueries reports registered aggregation queries (tests/metrics).
func (a *SharedAggregation) ActiveQueries() int { return len(a.win.queries.ordered) }

// LiveSlices reports the live slice count (tests/metrics).
func (a *SharedAggregation) LiveSlices() int { return a.win.sides[0].liveSlices() }
