package core

import (
	"cmp"
	"fmt"
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

// aggGroup is a query-set group inside one slice. While the slice is open
// its per-key partials are byKey's, and keys lists them so walking a group
// never iterates the map; sealing moves the partials into the slice's run
// and drops both (DESIGN.md §15).
type aggGroup struct {
	qs    bitset.Bits
	byKey map[int64]*aggVal
	keys  []int64
	pos   int32 // position in the slice's order, kept while the slice is sealed
}

// aggIndex is one slice's partials: its query-set groups, and once a fire
// has sealed the slice the run that holds their partials instead of the
// groups' maps.
type aggIndex struct {
	qsIndex[aggGroup]
	// run, non-nil while sealed, is every partial of the slice ordered by
	// (key, group position): the order pass two of a fire reads.
	run []aggPart
}

// aggPart is one partial of a sealed slice.
type aggPart struct {
	key   int64
	group int32
	v     *aggVal
}

// cmpPart orders a run by key, then group position.
func cmpPart(p, q aggPart) int {
	if c := cmp.Compare(p.key, q.key); c != 0 {
		return c
	}
	return cmp.Compare(p.group, q.group)
}

func newAggIndex() *aggIndex {
	//lint:ignore hotalloc cold: one index per slice, created when the slice first sees data
	return &aggIndex{qsIndex: qsIndex[aggGroup]{byWord: make(map[uint64]*aggGroup), byStr: make(map[string]*aggGroup)}}
}

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
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	//lint:ignore hotalloc session path: sorted-times slice growth is amortized per new session element
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// SharedAggregation is the shared windowed aggregation operator (§3.1.5).
// Port 0 carries raw stream-0 tuples (arity-1 aggregations and selections);
// port k ≥ 1 carries the output of join stage k-1 (complex queries of arity
// k+1). Tuples fold into query-set-grouped partial aggregates per slice and
// are then discarded; window results combine slice partials.
type SharedAggregation struct {
	spe.BaseLogic
	ports int
	// win drives the slice ring (per-slice partials in slice.aggs) and the
	// windowed queries; selection holds the selection queries, terminal at
	// port 0, which need a lifetime but no window.
	win       windowOp
	selection queryTable
	// maskVersions holds the per-port/selection/session slot masks,
	// versioned by event-time. Slot reuse makes a bare slot ambiguous (the
	// same bit can mean "aggregation input" in one epoch and "join input
	// of a complex query" in the next); resolving masks against the
	// tuple's event-time removes the ambiguity, exactly as the shared
	// selection resolves its predicate table.
	maskVersions []maskVersion
	//lint:ephemeral constructor wiring (result router)
	router *Router
	//lint:ephemeral constructor wiring (metrics sink)
	metrics *OpMetrics

	// Incremental-snapshot bookkeeping (OnBarrierDelta): per-slice fold
	// counts captured at the last snapshot, the changelog epoch that
	// snapshot held, and the current delta-chain length. All of it
	// describes snapshots already taken, never live state — a recovered
	// instance is freshly constructed, so snapFolds starts nil and the
	// first delta-mode snapshot after recovery is always full.
	//lint:ephemeral snapshot bookkeeping; nil forces the next delta-mode snapshot to be full
	snapFolds map[uint64]uint64
	//lint:ephemeral snapshot bookkeeping paired with snapFolds
	snapTableSeq uint64
	//lint:ephemeral snapshot bookkeeping paired with snapFolds
	sinceFull int
	//lint:ephemeral snapshot encoding scratch
	tblScratch []byte //lint:pooled scratch table-delta encode buffer recycled across barriers

	// Steady-state scratch (owned by the instance goroutine): query-set
	// intersection temporaries and the fire path's equivalence blocks and
	// partial-aggregate storage.
	//lint:ephemeral per-tuple scratch
	qsTmp bitset.Bits //lint:pooled scratch per-tuple query-set intersection scratch
	//lint:ephemeral per-trigger scratch
	caps []fireCap //lint:pooled scratch per-cap-group slot mask, per-slice relation and slot table, parallel to the trigger's cap groups
	//lint:ephemeral per-trigger scratch
	effTmp bitset.Bits //lint:pooled scratch per-(slice, group, cap group) effective-membership scratch
	//lint:ephemeral per-trigger scratch
	met []metPair //lint:pooled scratch (slice, group) pairs pass one found effective for some cap group
	//lint:ephemeral per-trigger scratch
	blkOf []int32 //lint:pooled scratch trigger query index → equivalence block
	//lint:ephemeral per-trigger scratch
	blocks []fireBlock //lint:pooled scratch per-trigger equivalence blocks and their result rows
	//lint:ephemeral per-trigger scratch
	cutTmp []int32 //lint:pooled scratch blocks met by one refinement round
	//lint:ephemeral per-trigger scratch
	covers []int32 //lint:pooled scratch the blocks each effective (slice, group) pair merges into, back to back
	//lint:ephemeral per-trigger scratch
	spans []blockSpan //lint:pooled scratch per (merged slice, group position): its range of covers
	//lint:ephemeral per-trigger scratch
	cursors []runCursor //lint:pooled scratch the merged slices' unread runs
	//lint:ephemeral fire-path round counter, bumped per (slice, group) visit: a block took part in the current round iff its stamp equals it
	round uint64
	//lint:ephemeral freelist, refills through steady-state recycling
	valPool []*aggVal //lint:pooled freelist recycled aggVal backings
	//lint:ephemeral unissued tail of the newest aggVal slab; getVal carves from it when the freelist is empty
	valSlab []aggVal //lint:pooled freelist slab chunk fresh partials are carved from; they recycle through valPool
	//lint:ephemeral freelist, refills as sealed slices are evicted or unsealed
	runPool [][]aggPart //lint:pooled freelist recycled run backings
	//lint:ephemeral freelist, refills as slices are sealed or evicted
	mapPool []map[int64]*aggVal //lint:pooled freelist emptied group maps, at the size they grew to
	//lint:ephemeral freelist, parallel to mapPool
	keysPool [][]int64 //lint:pooled freelist emptied group key lists, parallel to mapPool
}

// fireBlock is one query-equivalence block of a fire: the queries of one cap
// group whose effective membership (group query-set ∧ Rel(slice epoch, cap) ∧
// the cap group's slot mask) coincides on every (slice, group) of the
// trigger's slice run. Their window results are built from the same
// partials, so the block merges each of them once into one row per key that
// every member finalizes from. Pass two visits keys in ascending order, so
// rows are appended sorted and a partial merges into the last one or starts
// the next.
type fireBlock struct {
	size  int32    // member queries
	hits  int32    // members met by refinement round `round`
	split int32    // block those members move to in that round, -1 while whole
	round uint64   // last round (refinement, or pass two's cover listing) that touched the block
	rows  []aggRow // the window's result for the block's members, ascending by key
}

// aggRow is one key's window result in a block.
type aggRow struct {
	key int64
	v   aggVal
}

// blockSpan is the range of covers one (slice, group) pair merges into;
// empty for a group no cap group is effective in.
type blockSpan struct {
	from, to int32
}

// runCursor is one merged slice's unread run in pass two; spans[base+g] is
// the block range of the slice's group g.
type runCursor struct {
	run  []aggPart
	base int32
}

// fireCap is one cap group's side of a fire. Slots are unique within a cap
// group (a slot's previous tenant was deleted under an older cap), so slotQ
// resolves every bit of an effective membership, which is masked to mask.
type fireCap struct {
	mask  bitset.Bits // slots of the cap group's queries; empty when the cap is compacted away
	rel   bitset.Bits // Rel(epoch of the slice being walked, cap) ∧ mask
	slotQ []int32     // slot → trigger query index
}

// metPair names one (slice, group) pair of a fire: the slice by its offset
// in the extent's slice run, the group by its position in the slice's order.
type metPair struct {
	slice, group int32
}

// maskVersion is the slot-mask table in effect from a given event-time.
type maskVersion struct {
	from      event.Time
	portMasks []bitset.Bits
	selMask   bitset.Bits
	sessMask  bitset.Bits
}

// NewSharedAggregation constructs the logic for one instance.
func NewSharedAggregation(ports int, lateness event.Time, router *Router, m *OpMetrics) *SharedAggregation {
	return &SharedAggregation{
		ports:        ports,
		win:          newWindowOp(lateness, aggWindow, newSlicer()),
		selection:    newQueryTable(aggWindow),
		maskVersions: []maskVersion{{from: event.MinTime, portMasks: make([]bitset.Bits, ports)}},
		router:       router,
		metrics:      m,
	}
}

// masksAt returns the mask table in effect at event-time t.
func (a *SharedAggregation) masksAt(t event.Time) *maskVersion {
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(a.maskVersions), func(i int) bool { return a.maskVersions[i].from > t }) - 1
	if i < 0 {
		i = 0
	}
	return &a.maskVersions[i]
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

// OnChangelog updates active queries, port masks, epochs, and the table.
func (a *SharedAggregation) OnChangelog(payload any, at event.Time, _ *spe.Emitter) {
	msg := payload.(*ChangelogMsg)
	a.win.queries.markDeleted(msg.CL, at)
	a.selection.markDeleted(msg.CL, at)
	for _, c := range msg.CL.Created {
		q := msg.Defs[c.Query]
		if q == nil {
			continue
		}
		switch port := aggPortOf(q); {
		case q.Kind == KindSelection:
			a.selection.admit(q, c.Slot, at)
		case port >= 0 && port < a.ports:
			lq := a.win.queries.admit(q, c.Slot, at)
			lq.port = port
			if lq.spec.Kind == window.Session {
				lq.sessions = make(map[int64]*window.SessionState)
			}
		}
	}
	// Append a new mask version effective from this changelog's time,
	// built from the queries running after it (pending-deleted queries
	// keep their bits in OLDER versions, where in-flight pre-deletion
	// tuples resolve).
	mv := maskVersion{from: at, portMasks: make([]bitset.Bits, a.ports)}
	for _, lq := range a.win.queries.ordered {
		if lq.until == event.MaxTime {
			mv.portMasks[lq.port].Set(lq.slot)
			if lq.sessions != nil {
				mv.sessMask.Set(lq.slot)
			}
		}
	}
	for _, sq := range a.selection.ordered {
		if sq.until == event.MaxTime {
			mv.selMask.Set(sq.slot)
		}
	}
	a.maskVersions = append(a.maskVersions, mv)
	a.win.addEpoch(msg.CL, at)
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
			//lint:ignore hotalloc amortized: one chunk per aggSlabLen first-seen (group, key) pairs; steady state reuses pooled values
			a.valSlab = make([]aggVal, aggSlabLen)
		}
		v = &a.valSlab[0]
		a.valSlab = a.valSlab[1:]
	}
	v.reset()
	return v
}

func (a *SharedAggregation) putVal(v *aggVal) {
	//lint:ignore hotalloc amortized: freelist grows to the steady-state partial count once
	a.valPool = append(a.valPool, v)
}

// newGroup returns a group for qs holding a map and key list from takeMaps.
func (a *SharedAggregation) newGroup(qs bitset.Bits) *aggGroup {
	//lint:ignore hotalloc cold: runs once per first-seen query-set group per slice
	g := &aggGroup{qs: qs.Clone()}
	a.takeMaps(g)
	return g
}

// takeMaps gives g an emptied map and key list from the freelists, or fresh
// ones: sealed and evicted slices give theirs back, so an open group starts
// at the size earlier ones grew to, and every group that takes maps, new or
// unsealed, drains the freelists that sealing fills.
func (a *SharedAggregation) takeMaps(g *aggGroup) {
	if n := len(a.mapPool) - 1; n >= 0 {
		g.byKey, g.keys = a.mapPool[n], a.keysPool[n]
		a.mapPool[n], a.keysPool[n] = nil, nil
		a.mapPool, a.keysPool = a.mapPool[:n], a.keysPool[:n]
		return
	}
	//lint:ignore hotalloc cold: a group map is recycled across slices once allocated
	g.byKey = make(map[int64]*aggVal)
}

// dropMaps empties g's map and key list into the freelists.
func (a *SharedAggregation) dropMaps(g *aggGroup) {
	clear(g.byKey)
	//lint:ignore hotalloc amortized: freelists grow to the steady-state group count once
	a.mapPool = append(a.mapPool, g.byKey)
	//lint:ignore hotalloc amortized: freelists grow to the steady-state group count once
	a.keysPool = append(a.keysPool, g.keys[:0])
	g.byKey, g.keys = nil, nil
}

// takeRun returns an empty run backing with room for n partials: the
// smallest recycled one large enough, else a fresh one of exactly n,
// dropping a recycled backing too small for it, so the freelist cannot fill
// with them. No spare room: a recycled run waits idle for the next seal, and
// spare room in every live one cost more heap than the rare fresh backing.
func (a *SharedAggregation) takeRun(n int) []aggPart {
	best := -1
	for i, run := range a.runPool {
		if cap(run) >= n && (best < 0 || cap(run) < cap(a.runPool[best])) {
			best = i
		}
	}
	last := len(a.runPool) - 1
	if best >= 0 {
		run := a.runPool[best]
		a.runPool[best] = a.runPool[last]
		a.runPool[last] = nil
		a.runPool = a.runPool[:last]
		return run[:0]
	}
	if last >= 0 {
		a.runPool[last] = nil
		a.runPool = a.runPool[:last]
	}
	//lint:ignore hotalloc the seal: one backing per slice until eviction recycles them
	return make([]aggPart, 0, n)
}

// putRun recycles a sealed slice's run backing; its partials have been
// moved or returned already.
func (a *SharedAggregation) putRun(run []aggPart) {
	clear(run)
	//lint:ignore hotalloc amortized: freelist grows to the steady-state count of runs awaiting reuse once
	a.runPool = append(a.runPool, run[:0])
}

// OnTuple folds the tuple into slice partials (and serves selection queries
// and session windows directly). Steady state allocates nothing: the masked
// query-set lands in a scratch bitset, group lookup is key-scratch based, and
// per-key partials come from the freelist.
//
//lint:hotpath
func (a *SharedAggregation) OnTuple(port int, t event.Tuple, _ *spe.Emitter) {
	mv := a.masksAt(t.Time)
	// Selection queries: terminal, stateless, port 0 only.
	if port == 0 && t.QuerySet.Intersects(mv.selMask) {
		for _, sq := range a.selection.ordered {
			if t.QuerySet.Test(sq.slot) && t.Time >= sq.since && t.Time < sq.until {
				a.router.Deliver(Result{
					QueryID:     sq.q.ID,
					Kind:        KindSelection,
					Tuple:       t,
					EventTime:   t.Time,
					IngestNanos: t.IngestNanos,
				})
			}
		}
	}
	if port >= len(mv.portMasks) {
		return
	}
	t.QuerySet.AndInto(mv.portMasks[port], &a.qsTmp)
	if a.qsTmp.IsEmpty() {
		return
	}
	if t.Time < a.win.evictedThru[0] {
		atomic.AddUint64(&a.metrics.Late, 1)
		return
	}
	// Session-window queries keep per-key data-driven state.
	if a.qsTmp.Intersects(mv.sessMask) {
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
		a.qsTmp.AndNotInPlace(mv.sessMask)
		if a.qsTmp.IsEmpty() {
			return
		}
	}
	sl := a.win.sides[0].sliceFor(t.Time)
	if sl.aggs == nil {
		sl.aggs = newAggIndex()
	}
	x := sl.aggs
	g := x.get(a.qsTmp)
	if x.run != nil {
		// A tuple into a sealed slice (late, or into a slice a snapshot
		// sealed) folds in place when its partial exists; one that needs a
		// new partial or group unseals the slice.
		if g != nil {
			if i, ok := slices.BinarySearchFunc(x.run, aggPart{key: t.Key, group: g.pos}, cmpPart); ok {
				x.run[i].v.fold(&t)
				sl.folds++
				return
			}
		}
		a.unseal(x)
	}
	if g == nil {
		g = a.newGroup(a.qsTmp)
		x.put(g.qs, g)
	}
	v := g.byKey[t.Key]
	if v == nil {
		v = a.getVal()
		g.byKey[t.Key] = v
		//lint:ignore hotalloc cold: runs once per first-seen key within a group
		g.keys = append(g.keys, t.Key)
	}
	v.fold(&t)
	sl.folds++
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

	// Evicted slices return their partials, and a sealed one its run, to the
	// freelists.
	a.win.retire(wm, func(_ int, sl *slice) {
		x := sl.aggs
		if x == nil {
			return
		}
		sl.aggs = nil
		if x.run != nil {
			for _, p := range x.run {
				a.putVal(p.v)
			}
			a.putRun(x.run)
			x.run = nil
			return
		}
		for _, g := range x.order {
			for _, key := range g.keys {
				a.putVal(g.byKey[key])
			}
			a.dropMaps(g)
		}
	})
	a.selection.purge(wm)
	// Prune mask versions no in-flight tuple can reference.
	horizon := wm - a.win.lateness
	i := sort.Search(len(a.maskVersions), func(i int) bool { return a.maskVersions[i].from > horizon }) - 1
	if i > 0 {
		a.maskVersions = append(a.maskVersions[:0], a.maskVersions[i:]...)
	}
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
// (slice, group) pairs, every cap group taking its round at each pair: it
// seals the slices, reads their query-sets and partitions each cap group's
// queries into equivalence blocks by exact refinement over the effective
// memberships. The second lists, once per pair that was effective, the
// blocks it covers, then walks the slices' runs in lockstep by key, merging
// each partial into the current row of each of its blocks. Work and row
// memory scale with blocks, not queries; a lone query is a lone block and
// the fire is the plain per-slice scan.
func (a *SharedAggregation) fireWindow(ext window.Extent, queries []*liveQuery) {
	ring := a.win.sides[0]
	lo, hi := ring.overlappingRange(ext)
	if lo == hi {
		return
	}
	groups := a.win.capGroups(queries)
	a.blocks = a.blocks[:0]
	a.blkOf = a.blkOf[:0]
	for range queries {
		//lint:ignore hotalloc amortized: block index grows to the trigger's query count once
		a.blkOf = append(a.blkOf, -1)
	}

	tick := a.metrics.start()
	for len(a.caps) < len(groups) {
		//lint:ignore hotalloc amortized: cap scratch grows to the widest trigger's cap-group count once
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
		blk := a.newBlock(int32(len(cg.idxs)))
		for _, qi := range cg.idxs {
			slot := queries[qi].slot
			fc.mask.Set(slot)
			for len(fc.slotQ) <= slot {
				//lint:ignore hotalloc amortized: slot table grows to the widest slot once
				fc.slotQ = append(fc.slotQ, 0)
			}
			fc.slotQ[slot] = int32(qi)
			a.blkOf[qi] = blk
		}
	}
	// Pass one walks the run's query-sets, one array per slice, refining
	// every cap group's blocks by each set, and remembers the pairs that were
	// effective for any cap group. Pass two lists covers for exactly those
	// pairs, and reads every partial of the slices holding them: one of a
	// group without covers costs a look at its span, its aggVal untouched.
	a.met = a.met[:0]
	for si, sl := range ring.slices[lo:hi] {
		if sl.aggs == nil || !a.relate(sl, groups) {
			continue
		}
		x := sl.aggs
		a.seal(x)
		from := int32(0)
		for gi, to := range x.ends {
			qs := bitset.View(x.flat[from:to])
			from = to
			if a.visit(qs, len(groups)) {
				//lint:ignore hotalloc amortized: met-pair scratch grows to the widest trigger's pair count once
				a.met = append(a.met, metPair{slice: int32(si), group: int32(gi)})
			}
		}
	}
	a.mergeRuns(ring.slices[lo:hi], groups)
	a.metrics.BitsetOps.observe(tick, a.metrics)

	for qi, aq := range queries {
		if b := a.blkOf[qi]; b >= 0 {
			a.emitRows(aq, ext, a.blocks[b].rows)
		}
	}
}

// mergeRuns is pass two. Each effective pair gets its covers — the blocks
// with a member in its membership for some cap group — listed once; after
// refinement a block lies wholly inside or wholly outside any membership of
// the run, so meeting one member decides for the block and the round stamp
// skips its other members. Then the runs of the slices holding those pairs
// are walked in lockstep by key, a k-way merge over k slices: every partial
// of the smallest key left, from every run, merges into each of its group's
// covers, where it lands on the block's last row or starts the next one. The
// walk reads each of those slices' partials, including those of groups no
// cap group is effective in, whose empty span merges them nowhere: its work
// grows with the partials of the slices met, not only with the pairs.
func (a *SharedAggregation) mergeRuns(run []*slice, groups []capGroup) {
	a.covers, a.spans, a.cursors = a.covers[:0], a.spans[:0], a.cursors[:0]
	at := int32(-1)
	var x *aggIndex
	for _, p := range a.met {
		if p.slice != at {
			at = p.slice
			sl := run[p.slice]
			a.relate(sl, groups)
			x = sl.aggs
			base := len(a.spans)
			for range x.order {
				//lint:ignore hotalloc amortized: span scratch grows to the widest trigger's group count once
				a.spans = append(a.spans, blockSpan{})
			}
			//lint:ignore hotalloc amortized: cursor scratch grows to the widest trigger's slice count once
			a.cursors = append(a.cursors, runCursor{run: x.run, base: int32(base)})
		}
		from := int32(len(a.covers))
		a.round++
		qs := x.order[p.group].qs
		for ci := range groups {
			fc := &a.caps[ci]
			qs.AndInto(fc.rel, &a.effTmp)
			for wi, nw := 0, a.effTmp.WordCount(); wi < nw; wi++ {
				for w := a.effTmp.Word(wi); w != 0; w &= w - 1 {
					b := a.blkOf[fc.slotQ[wi*64+bits.TrailingZeros64(w)]]
					if a.blocks[b].round != a.round {
						a.blocks[b].round = a.round
						//lint:ignore hotalloc amortized: cover scratch grows to the widest trigger's pair-block count once
						a.covers = append(a.covers, b)
					}
				}
			}
		}
		a.spans[a.cursors[len(a.cursors)-1].base+p.group] = blockSpan{from: from, to: int32(len(a.covers))}
	}

	// The lockstep walk: take the smallest head key, merge every slice's
	// partials of it, drop the runs that ran out.
	cs := a.cursors
	for len(cs) > 0 {
		key := cs[0].run[0].key
		for i := 1; i < len(cs); i++ {
			key = min(key, cs[i].run[0].key)
		}
		for i := 0; i < len(cs); {
			c := &cs[i]
			for ; len(c.run) > 0 && c.run[0].key == key; c.run = c.run[1:] {
				sp := a.spans[c.base+c.run[0].group]
				for _, b := range a.covers[sp.from:sp.to] {
					a.blocks[b].merge(key, c.run[0].v)
				}
			}
			if len(c.run) > 0 {
				i++
			} else {
				cs[i] = cs[len(cs)-1]
				cs = cs[:len(cs)-1]
			}
		}
	}
}

// merge folds partial v of key into the block: into its last row when that
// row is key's, else into a new last row.
func (blk *fireBlock) merge(key int64, v *aggVal) {
	n := len(blk.rows)
	if n > 0 && blk.rows[n-1].key == key {
		blk.rows[n-1].v.merge(v)
		return
	}
	if n < cap(blk.rows) {
		blk.rows = blk.rows[:n+1]
	} else {
		//lint:ignore hotalloc amortized: block rows grow to the window's key count once
		blk.rows = append(blk.rows, aggRow{})
	}
	blk.rows[n].key, blk.rows[n].v = key, *v
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
		rel, err := a.win.table.Rel(sl.epoch, cg.cap)
		if err != nil {
			panic(fmt.Sprintf("core: agg rel: %v", err))
		}
		rel.AndInto(fc.mask, &fc.rel)
		any = any || !fc.rel.IsEmpty()
	}
	return any
}

// visit runs a refinement round for every one of the first n cap groups the
// query-set qs is effective for under the rels relate loaded, and reports
// whether there was one.
func (a *SharedAggregation) visit(qs bitset.Bits, n int) (hit bool) {
	for ci := range a.caps[:n] {
		fc := &a.caps[ci]
		qs.AndInto(fc.rel, &a.effTmp)
		if a.effTmp.IsEmpty() {
			continue
		}
		hit = true
		a.round++
		a.refineBlocks(fc.slotQ)
	}
	return hit
}

// seal lays a slice out for the fires over it, once: the first fire after
// the watermark closed it, or a snapshot before that, finds it unsealed, and
// from then on no tuple adds a group or a key to it (a tuple that does
// unseals it, and the next fire or snapshot seals it again). Its groups'
// query-sets go back to back (sealSets) and its partials into one run by
// (key, group position), the groups' maps and key lists dropped: the run is
// the storage.
func (a *SharedAggregation) seal(x *aggIndex) {
	if x.flat == nil {
		sealSets(&x.qsIndex)
	}
	if x.run != nil {
		return
	}
	n := 0
	for _, g := range x.order {
		n += len(g.keys)
	}
	run := a.takeRun(n)
	for gi, g := range x.order {
		g.pos = int32(gi)
		for _, key := range g.keys {
			//lint:ignore hotalloc the seal: takeRun gave the backing room for all n partials, so this never grows it
			run = append(run, aggPart{key: key, group: int32(gi), v: g.byKey[key]})
		}
		a.dropMaps(g)
	}
	slices.SortFunc(run, cmpPart)
	x.run = run
}

// unseal gives a sealed slice's groups maps and key lists back from the run,
// each group's keys in run order, and recycles the run: a tuple needs a
// partial or a group the run has no room for.
func (a *SharedAggregation) unseal(x *aggIndex) {
	for _, g := range x.order {
		a.takeMaps(g)
	}
	for _, p := range x.run {
		g := x.order[p.group]
		//lint:ignore hotalloc cold: a tuple unsealing a slice rebuilds its groups once
		g.keys = append(g.keys, p.key)
		g.byKey[p.key] = p.v
	}
	a.putRun(x.run)
	x.run = nil
}

// sealSets lays the query-sets of x's groups out back to back in x.flat and
// re-points every spilled set at its words there, so the copy costs no
// memory. It runs once per slice, at the first fire after the watermark
// closed it: from then on no tuple adds a group (a late one that does makes
// put drop the layout, and the next fire seals again).
func sealSets(x *qsIndex[aggGroup]) {
	n := 0
	for _, g := range x.order {
		n += g.qs.WordCount()
	}
	//lint:ignore hotalloc cold: once per slice, not per fire
	x.flat = make([]uint64, n)
	//lint:ignore hotalloc cold: once per slice, not per fire
	x.ends = make([]int32, len(x.order))
	to := 0
	for i, g := range x.order {
		from := to
		for wi, nw := 0, g.qs.WordCount(); wi < nw; wi++ {
			x.flat[to] = g.qs.Word(wi)
			to++
		}
		x.ends[i] = int32(to)
		if to-from > 1 {
			g.qs = bitset.View(x.flat[from:to:to])
		}
	}
}

// newBlock appends an empty block of size members from recycled storage.
func (a *SharedAggregation) newBlock(size int32) int32 {
	n := len(a.blocks)
	if n < cap(a.blocks) {
		a.blocks = a.blocks[:n+1]
	} else {
		//lint:ignore hotalloc amortized: block list grows to the widest trigger's block count once
		a.blocks = append(a.blocks, fireBlock{})
	}
	blk := &a.blocks[n]
	blk.size = size
	blk.rows = blk.rows[:0]
	return int32(n)
}

// refineBlocks is one round of partition refinement: every block that effTmp
// cuts — some members inside, some outside — splits, the inside members
// moving to a new block. Two walks over effTmp's set bits: count each met
// block's inside members, then move them where the count fell short of the
// block's size. Queries end up in one block exactly when no membership of
// the run tells them apart.
func (a *SharedAggregation) refineBlocks(slotQ []int32) {
	a.cutTmp = a.cutTmp[:0]
	for wi, nw := 0, a.effTmp.WordCount(); wi < nw; wi++ {
		for w := a.effTmp.Word(wi); w != 0; w &= w - 1 {
			b := a.blkOf[slotQ[wi*64+bits.TrailingZeros64(w)]]
			blk := &a.blocks[b]
			if blk.round != a.round {
				blk.round, blk.hits = a.round, 0
				//lint:ignore hotalloc amortized: met-block scratch grows to the widest trigger's block count once
				a.cutTmp = append(a.cutTmp, b)
			}
			blk.hits++
		}
	}
	cut := false
	for _, b := range a.cutTmp {
		hits := a.blocks[b].hits
		a.blocks[b].split = -1
		if hits < a.blocks[b].size {
			nb := a.newBlock(hits) // may move a.blocks
			a.blocks[b].size -= hits
			a.blocks[b].split = nb
			cut = true
		}
	}
	if !cut {
		return
	}
	for wi, nw := 0, a.effTmp.WordCount(); wi < nw; wi++ {
		for w := a.effTmp.Word(wi); w != 0; w &= w - 1 {
			qi := slotQ[wi*64+bits.TrailingZeros64(w)]
			if nb := a.blocks[a.blkOf[qi]].split; nb >= 0 {
				a.blkOf[qi] = nb
			}
		}
	}
}

// fireBench drives one window fire for the benchmark harness: trigger
// collection plus the fire itself, without OnWatermark's harvest/purge/evict
// bookkeeping, so per-op cost is the fire path. Fires all registered
// time-window queries.
//
//lint:hotpath window-fire kernel steady state
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
