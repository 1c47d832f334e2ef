package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/window"
)

// joinQuery is one query active at a join stage.
type joinQuery struct {
	q    *Query
	slot int
	// terminal: this stage produces the query's final join results, routed
	// to the query's sink. Otherwise results flow downstream (next join
	// stage or the shared aggregation for complex queries).
	terminal bool
	// since is the query's activation event-time: windows ending at or
	// before it hold nothing for the query and are skipped. Skipping them
	// is also what keeps the pair cache sound: it guarantees every slice
	// overlapping a fired window is already complete (its end is behind
	// the watermark), so cached pair results are never computed from a
	// half-filled slice.
	since event.Time
	// until is the query's deletion event-time (MaxTime while running).
	// Deletion is deferred: windows ending at or before until still fire,
	// so results depend only on event times — the determinism the paper's
	// §3.3 replayability requires — never on cross-sender arrival races.
	until event.Time
	// endEpoch caps changelog-set masking for a deleted query: its slot is
	// only meaningful up to the epoch before its deletion changelog.
	endEpoch uint64
}

// SharedJoin is the shared windowed equi-join operator (paper §3.1.4). One
// instance holds the slices of both input sides for its key partition, joins
// overlapping slices exactly once, caches the per-pair results, and reuses
// them for every query window that covers the pair — the incremental, delta
// style of Figure 4f.
type SharedJoin struct {
	spe.BaseLogic
	//lint:ephemeral topology constant fixed at construction
	stage     int // 0 joins streams 0⋈1; stage k joins (stage k-1)⋈(stream k+1)
	storeMode StoreMode
	sides     [2]*slicer
	table     *changelog.Table
	//lint:ephemeral derived index over the serialized activeOrdered list
	active map[int]*joinQuery // by query ID
	// activeOrdered mirrors active sorted by (slot, query ID): the
	// watermark-path iteration order is maintained incrementally on
	// changelog/purge instead of sorted per emission (replay determinism
	// without hot-path sorts).
	activeOrdered []*joinQuery
	//lint:ephemeral constructor wiring (result router)
	router *Router
	//lint:ephemeral constructor wiring (metrics sink)
	metrics *OpMetrics
	//lint:ephemeral constructor wiring (allowed-lateness config)
	lateness event.Time
	lastWM   event.Time

	//lint:ephemeral derived memoization over slice contents, reset by Restore and refilled on demand
	pairCache map[uint64][]event.JoinedTuple
	//lint:ephemeral derived eviction index for pairCache, reset alongside it
	pairsBySlice map[uint64][]uint64 // slice id -> pair keys to drop on evict
	evictedThru  [2]event.Time

	// Steady-state scratch (owned by the instance goroutine, §3.2.2's
	// no-allocation discipline): the slice ⋈ slice kernel index, the
	// per-trigger grouping, and the query-set intersection temporaries.
	//lint:ephemeral per-trigger scratch
	scratch joinScratch //lint:pooled scratch slice-join kernel scratch arena
	//lint:ephemeral per-watermark scratch
	trig triggerList[*joinQuery] //lint:pooled scratch per-watermark trigger scratch
	//lint:ephemeral per-trigger scratch
	capTmp []*capGroup //lint:pooled scratch per-trigger cap-grouping scratch
	//lint:ephemeral per-trigger scratch
	effTmp bitset.Bits //lint:pooled scratch per-trigger effective-query scratch
	//lint:ephemeral per-trigger scratch
	pmTmp bitset.Bits //lint:pooled scratch per-trigger port-mask scratch
	//lint:ephemeral per-trigger scratch
	specsTmp []window.Spec //lint:pooled scratch per-trigger window-spec scratch
}

// NewSharedJoin constructs the logic for one join-stage instance.
func NewSharedJoin(stage int, storeMode StoreMode, lateness event.Time, router *Router, m *OpMetrics) *SharedJoin {
	return &SharedJoin{
		stage:     stage,
		storeMode: storeMode,
		// Slice IDs are namespaced per side (even/odd) so the pair cache
		// and eviction index never confuse a left slice with a right one.
		sides:        [2]*slicer{newSlicerWithIDs(0, 2), newSlicerWithIDs(1, 2)},
		table:        changelog.NewTable(),
		active:       make(map[int]*joinQuery),
		router:       router,
		metrics:      m,
		lateness:     lateness,
		lastWM:       event.MinTime,
		pairCache:    make(map[uint64][]event.JoinedTuple),
		pairsBySlice: make(map[uint64][]uint64),
		evictedThru:  [2]event.Time{event.MinTime, event.MinTime},
	}
}

// queryAtStage reports whether q participates in this join stage and whether
// the stage is terminal for it.
func queryAtStage(q *Query, stage int) (participates, terminal bool) {
	if q.Kind != KindJoin && q.Kind != KindComplex {
		return false, false
	}
	lastStage := q.Arity - 2
	if stage > lastStage {
		return false, false
	}
	return true, stage == lastStage && q.Kind == KindJoin
}

// insertOrdered adds aq to the slot-ordered active list (binary insert; the
// changelog path is cold).
func (j *SharedJoin) insertOrdered(aq *joinQuery) {
	i := sort.Search(len(j.activeOrdered), func(i int) bool {
		o := j.activeOrdered[i]
		if o.slot != aq.slot {
			return o.slot > aq.slot
		}
		return o.q.ID > aq.q.ID
	})
	j.activeOrdered = append(j.activeOrdered, nil)
	copy(j.activeOrdered[i+1:], j.activeOrdered[i:])
	j.activeOrdered[i] = aq
}

// removeOrdered drops purged queries from the ordered list in place.
func (j *SharedJoin) removeOrdered(gone func(*joinQuery) bool) {
	kept := j.activeOrdered[:0]
	for _, aq := range j.activeOrdered {
		if !gone(aq) {
			kept = append(kept, aq)
		}
	}
	for i := len(kept); i < len(j.activeOrdered); i++ {
		j.activeOrdered[i] = nil
	}
	j.activeOrdered = kept
}

// OnChangelog updates the active query set, registers the new epoch with
// both side slicers, and extends the changelog-set table (Equation 1).
func (j *SharedJoin) OnChangelog(payload any, at event.Time, _ *spe.Emitter) {
	msg := payload.(*ChangelogMsg)
	for _, d := range msg.CL.Deleted {
		if aq, ok := j.active[d.Query]; ok {
			aq.until = at
			aq.endEpoch = msg.CL.Seq - 1
		}
	}
	for _, c := range msg.CL.Created {
		q := msg.Defs[c.Query]
		if q == nil {
			continue
		}
		if part, term := queryAtStage(q, j.stage); part {
			aq := &joinQuery{
				q: q, slot: c.Slot, terminal: term,
				since: at, until: event.MaxTime, endEpoch: ^uint64(0),
			}
			j.active[c.Query] = aq
			j.insertOrdered(aq)
		}
	}
	specs := j.activeSpecs()
	for _, side := range j.sides {
		if err := side.addEpoch(at, msg.CL.Seq, specs); err != nil {
			panic(fmt.Sprintf("core: join epoch: %v", err))
		}
	}
	if err := j.table.Add(msg.CL); err != nil {
		panic(fmt.Sprintf("core: join table: %v", err))
	}
	// §3.2.3: the session's store marker switches every slice's data
	// structure at once, and new slices follow suit.
	switch msg.Switch {
	case SwitchList:
		j.storeMode = StoreList
	case SwitchGrouped:
		j.storeMode = StoreGrouped
	default:
		return
	}
	for _, side := range j.sides {
		for _, sl := range side.slices {
			if sl.store != nil {
				sl.store.setMode(j.storeMode)
			}
		}
	}
}

// activeSpecs returns the window specs that shape slicing going forward:
// only queries that are still running contribute boundaries. The result is
// stored by the slicers' epoch history, so it must be a fresh slice.
func (j *SharedJoin) activeSpecs() []window.Spec {
	specs := make([]window.Spec, 0, len(j.activeOrdered))
	for _, aq := range j.activeOrdered {
		if aq.until == event.MaxTime {
			specs = append(specs, aq.q.Window)
		}
	}
	return specs
}

// retentionSpecs additionally includes pending-deleted queries, whose final
// windows may still need old slices.
func (j *SharedJoin) retentionSpecs() []window.Spec {
	specs := j.specsTmp[:0]
	for _, aq := range j.activeOrdered {
		specs = append(specs, aq.q.Window)
	}
	j.specsTmp = specs
	return specs
}

// OnTuple stores the tuple in its side's slice. Tuples are saved exactly
// once per slice (paper §3.2.2: no data copy inside shared operators).
func (j *SharedJoin) OnTuple(port int, t event.Tuple, _ *spe.Emitter) {
	if t.Time < j.evictedThru[port] {
		atomic.AddUint64(&j.metrics.Late, 1)
		return
	}
	sl := j.sides[port].sliceFor(t.Time)
	if sl.store == nil {
		sl.store = newSliceStore(j.storeMode)
	}
	sl.store.Add(t)
}

// OnWatermark triggers every query window ending in (lastWM, wm], joining
// slice pairs at most once and reusing cached pair results across queries
// and windows, then evicts slices no active window can still need.
func (j *SharedJoin) OnWatermark(wm event.Time, out *spe.Emitter) {
	if wm <= j.lastWM {
		return
	}
	j.collectTriggers(wm)
	cur := j.table.Latest()
	for _, tr := range j.trig.list {
		j.fireWindow(tr.ext, tr.queries, cur, out)
	}
	j.retire(wm)
}

// collectTriggers fills j.trig with the window extents ending in
// (lastWM, wm], so each extent is processed once however many queries share
// it; activeOrdered keeps every trigger's queries in (slot, ID) order.
func (j *SharedJoin) collectTriggers(wm event.Time) {
	// Clamp the trigger range to where data exists: before the first
	// watermark lastWM is MinTime, and windows before the oldest slice are
	// empty by construction.
	lo := j.lastWM
	if lo == event.MinTime {
		first := event.MaxTime
		for _, s := range j.sides {
			if f, ok := s.firstSliceStart(); ok && f < first {
				first = f
			}
		}
		if first == event.MaxTime {
			// No data at all yet: nothing can fire.
			lo = wm
		} else {
			lo = first
		}
	}
	j.trig.reset()
	for _, aq := range j.activeOrdered {
		qlo := lo
		if aq.since > qlo {
			qlo = aq.since // pre-activation windows are empty for aq
		}
		for _, ext := range aq.q.Window.WindowsEndingIn(qlo, wm) {
			if ext.End <= aq.until { // later windows close after the query's deletion
				j.trig.add(ext, aq)
			}
		}
	}
}

// retire finishes a watermark once its windows have fired: purge, slice
// eviction and changelog compaction.
func (j *SharedJoin) retire(wm event.Time) {
	// Purge queries whose deletion time the watermark has passed: every
	// window they could still fire has fired.
	purged := false
	for id, aq := range j.active {
		if aq.until <= wm {
			delete(j.active, id)
			purged = true
		}
	}
	if purged {
		j.removeOrdered(func(aq *joinQuery) bool { return aq.until <= wm })
	}

	// Evict slices whose last covering window of any active query has
	// closed, drop their cached pairs, and compact changelog history.
	// Retention considers pending-deleted queries too: their final windows
	// (ending ≤ until) may not have fired yet.
	specs := j.retentionSpecs()
	retain := func(sl *slice) event.Time {
		r := sl.ext.End
		for _, sp := range specs {
			if e := sp.LastWindowEndCovering(sl.ext.Start); e > r {
				r = e
			}
		}
		return r
	}
	for side, s := range j.sides {
		s.evict(wm, retain, func(sl *slice) {
			if sl.ext.End > j.evictedThru[side] {
				j.evictedThru[side] = sl.ext.End
			}
			for _, pk := range j.pairsBySlice[sl.id] {
				delete(j.pairCache, pk)
			}
			delete(j.pairsBySlice, sl.id)
		})
		s.pruneEpochs(wm - j.lateness)
	}
	// Compact changelog rows older than every live slice AND every epoch a
	// not-yet-late tuple could still be assigned to.
	oldest := j.sides[0].oldestEpochInUse()
	for _, s := range j.sides {
		if o := s.oldestEpochInUse(); o < oldest {
			oldest = o
		}
		if o := s.minFutureEpoch(wm - j.lateness); o < oldest {
			oldest = o
		}
	}
	j.table.Compact(oldest)
	j.lastWM = wm
}

// capGroup batches the queries of one trigger by their changelog-set cap:
// running queries mask up to the current epoch; deleted-but-unpurged ones
// mask only up to the epoch before their deletion.
type capGroup struct {
	cap       uint64
	terminals []*joinQuery
	passBits  bitset.Bits
	anyPass   bool
}

// groupByCap buckets the trigger's queries by cap into the reused capTmp
// slice (caps per trigger are few: a linear scan beats a map and allocates
// nothing in steady state).
func (j *SharedJoin) groupByCap(queries []*joinQuery, curEpoch uint64) []*capGroup {
	groups := j.capTmp[:0]
	for _, aq := range queries {
		capTo := curEpoch
		if aq.endEpoch < capTo {
			capTo = aq.endEpoch
		}
		var g *capGroup
		for _, cg := range groups {
			if cg.cap == capTo {
				g = cg
				break
			}
		}
		if g == nil {
			if len(groups) < cap(groups) {
				// Reuse a retired capGroup (and its slices) if one exists.
				groups = groups[:len(groups)+1]
				if groups[len(groups)-1] == nil {
					groups[len(groups)-1] = &capGroup{}
				}
			} else {
				groups = append(groups, &capGroup{})
			}
			g = groups[len(groups)-1]
			g.cap = capTo
			g.terminals = g.terminals[:0]
			g.passBits.Reset()
			g.anyPass = false
		}
		if aq.terminal {
			g.terminals = append(g.terminals, aq)
		} else {
			g.passBits.Set(aq.slot)
			g.anyPass = true
		}
	}
	j.capTmp = groups
	return groups
}

// fireWindow emits results for one window extent on behalf of the queries
// listed.
func (j *SharedJoin) fireWindow(ext window.Extent, queries []*joinQuery, curEpoch uint64, out *spe.Emitter) {
	left := j.sides[0].overlapping(ext)
	right := j.sides[1].overlapping(ext)
	if len(left) == 0 || len(right) == 0 {
		return
	}
	groups := j.groupByCap(queries, curEpoch)

	for _, sa := range left {
		if sa.store == nil || sa.store.Len() == 0 {
			continue
		}
		for _, sb := range right {
			if sb.store == nil || sb.store.Len() == 0 {
				continue
			}
			results := j.pairResults(sa, sb)
			if len(results) == 0 {
				continue
			}
			newer := sa.epoch
			if sb.epoch > newer {
				newer = sb.epoch
			}
			tick := j.metrics.start()
			for _, g := range groups {
				if g.cap < j.table.Base() {
					// Every slice as old as this cap is gone: the group's
					// queries have no data left anywhere.
					continue
				}
				relNow, err := j.table.Rel(newer, g.cap)
				if err != nil {
					panic(fmt.Sprintf("core: join relNow: %v", err))
				}
				if relNow.IsEmpty() {
					continue
				}
				for i := range results {
					jt := &results[i]
					// eff = jt.QuerySet ∩ relNow in scratch: nothing
					// allocated per result.
					jt.QuerySet.AndInto(relNow, &j.effTmp)
					if j.effTmp.IsEmpty() {
						continue
					}
					for _, aq := range g.terminals {
						if j.effTmp.Test(aq.slot) {
							atomic.AddUint64(&j.metrics.JoinedOut, 1)
							j.router.Deliver(Result{
								QueryID:     aq.q.ID,
								Kind:        KindJoin,
								Window:      ext,
								Join:        *jt,
								EventTime:   jt.Time,
								IngestNanos: jt.IngestNanos,
							})
						}
					}
					if g.anyPass {
						j.effTmp.AndInto(g.passBits, &j.pmTmp)
						if !j.pmTmp.IsEmpty() {
							t := jt.AsTuple()
							t.QuerySet = j.pmTmp.Clone()
							// Re-timestamp to the window's max timestamp
							// (as Flink does for window joins) so the
							// result is never late for the downstream
							// stage, whose watermark already trails this
							// window's end.
							t.Time = ext.End - 1
							out.EmitTuple(t)
						}
					}
				}
			}
			j.metrics.BitsetOps.observe(tick, j.metrics)
		}
	}
}

// pairResults returns the cached join of two slices, computing it on first
// use (the computation history of §3.1.4).
func (j *SharedJoin) pairResults(sa, sb *slice) []event.JoinedTuple {
	pk := sa.id<<32 | sb.id
	if res, ok := j.pairCache[pk]; ok {
		atomic.AddUint64(&j.metrics.PairsReuse, 1)
		return res
	}
	rel, err := j.table.Rel(sa.epoch, sb.epoch)
	if err != nil {
		panic(fmt.Sprintf("core: join rel: %v", err))
	}
	var results []event.JoinedTuple
	if !rel.IsEmpty() {
		j.scratch.join(sa.store, sb.store, rel, &results)
	}
	atomic.AddUint64(&j.metrics.PairsDone, 1)
	j.pairCache[pk] = results
	j.pairsBySlice[sa.id] = append(j.pairsBySlice[sa.id], pk)
	j.pairsBySlice[sb.id] = append(j.pairsBySlice[sb.id], pk)
	return results
}

// ActiveQueries reports the number of queries registered at this stage.
func (j *SharedJoin) ActiveQueries() int { return len(j.active) }

// LiveSlices reports live slice counts per side (tests/metrics).
func (j *SharedJoin) LiveSlices() (int, int) {
	return j.sides[0].liveSlices(), j.sides[1].liveSlices()
}

// CachedPairs reports the pair-cache size (tests/metrics).
func (j *SharedJoin) CachedPairs() int { return len(j.pairCache) }
