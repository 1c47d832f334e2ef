package core

import (
	"fmt"
	"sync/atomic"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/window"
)

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
	// win drives both sides' slice rings (tuples in slice.store) and the
	// queries active at this stage.
	win windowOp
	//lint:ephemeral constructor wiring (result router)
	router *Router
	//lint:ephemeral constructor wiring (metrics sink)
	metrics *OpMetrics

	//lint:ephemeral derived memoization over slice contents, reset by Restore and refilled on demand
	pairCache map[uint64][]event.JoinedTuple
	//lint:ephemeral derived eviction index for pairCache, reset alongside it
	pairsBySlice map[uint64][]uint64 // slice id -> pair keys to drop on evict

	// Steady-state scratch (owned by the instance goroutine, §3.2.2's
	// no-allocation discipline): the slice ⋈ slice kernel index, the
	// per-trigger pass-through masks, and the query-set intersection
	// temporaries.
	//lint:ephemeral per-trigger scratch
	scratch joinScratch //lint:pooled scratch slice-join kernel scratch arena
	//lint:ephemeral per-trigger scratch
	passTmp []bitset.Bits //lint:pooled scratch per-cap-group slots of the trigger's pass-through queries
	//lint:ephemeral per-trigger scratch
	effTmp bitset.Bits //lint:pooled scratch per-trigger effective-query scratch
	//lint:ephemeral per-trigger scratch
	pmTmp bitset.Bits //lint:pooled scratch per-trigger port-mask scratch
}

// joinWindow is the window a join stage fires for q.
func joinWindow(q *Query) window.Spec { return q.Window }

// NewSharedJoin constructs the logic for one join-stage instance.
func NewSharedJoin(stage int, storeMode StoreMode, lateness event.Time, router *Router, m *OpMetrics) *SharedJoin {
	return &SharedJoin{
		stage:     stage,
		storeMode: storeMode,
		// Slice IDs are namespaced per side (even/odd) so the pair cache
		// and eviction index never confuse a left slice with a right one.
		win:          newWindowOp(lateness, joinWindow, newSlicerWithIDs(0, 2), newSlicerWithIDs(1, 2)),
		router:       router,
		metrics:      m,
		pairCache:    make(map[uint64][]event.JoinedTuple),
		pairsBySlice: make(map[uint64][]uint64),
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

// OnChangelog updates the active query set, registers the new epoch with
// both side slicers, and extends the changelog-set table (Equation 1).
func (j *SharedJoin) OnChangelog(payload any, at event.Time, _ *spe.Emitter) {
	msg := payload.(*ChangelogMsg)
	j.win.queries.markDeleted(msg.CL, at)
	for _, c := range msg.CL.Created {
		q := msg.Defs[c.Query]
		if q == nil {
			continue
		}
		if part, term := queryAtStage(q, j.stage); part {
			j.win.queries.admit(q, c.Slot, at).terminal = term
		}
	}
	j.win.addEpoch(msg.CL, at)
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
	for _, side := range j.win.sides {
		for _, sl := range side.slices {
			if sl.store != nil {
				sl.store.setMode(j.storeMode)
			}
		}
	}
}

// OnTuple stores the tuple in its side's slice. Tuples are saved exactly
// once per slice (paper §3.2.2: no data copy inside shared operators).
func (j *SharedJoin) OnTuple(port int, t event.Tuple, _ *spe.Emitter) {
	if t.Time < j.win.evictedThru[port] {
		atomic.AddUint64(&j.metrics.Late, 1)
		return
	}
	sl := j.win.sides[port].sliceFor(t.Time)
	if sl.store == nil {
		sl.store = newSliceStore(j.storeMode)
	}
	sl.store.Add(t)
}

// OnWatermark triggers every query window ending in (lastWM, wm], joining
// slice pairs at most once and reusing cached pair results across queries
// and windows, then evicts slices no active window can still need.
func (j *SharedJoin) OnWatermark(wm event.Time, out *spe.Emitter) {
	if wm <= j.win.lastWM {
		return
	}
	j.win.collectTriggers(wm)
	for _, tr := range j.win.trig.list {
		j.fireWindow(tr.ext, tr.queries, out)
	}
	j.retire(wm)
}

// retire finishes a watermark once its windows have fired; an evicted slice
// takes its cached pairs with it.
func (j *SharedJoin) retire(wm event.Time) {
	j.win.retire(wm, func(sl *slice) {
		for _, pk := range j.pairsBySlice[sl.id] {
			delete(j.pairCache, pk)
		}
		delete(j.pairsBySlice, sl.id)
	})
}

// fireWindow emits results for one window extent on behalf of the queries
// listed: every result of every overlapping slice pair goes, per cap group,
// to the sinks of the terminal queries it is effective for, in (slot, ID)
// order, and once downstream carrying the slots of the others.
func (j *SharedJoin) fireWindow(ext window.Extent, queries []*liveQuery, out *spe.Emitter) {
	left, right := j.win.sides[0], j.win.sides[1]
	llo, lhi := left.overlappingRange(ext)
	rlo, rhi := right.overlappingRange(ext)
	if llo == lhi || rlo == rhi {
		return
	}
	groups := j.win.capGroups(queries)
	for len(j.passTmp) < len(groups) {
		j.passTmp = append(j.passTmp, bitset.Bits{})
	}
	for gi, g := range groups {
		pass := &j.passTmp[gi]
		pass.Reset()
		for _, qi := range g.idxs {
			if !queries[qi].terminal {
				pass.Set(queries[qi].slot)
			}
		}
	}

	for _, sa := range left.slices[llo:lhi] {
		if sa.store == nil || sa.store.Len() == 0 {
			continue
		}
		for _, sb := range right.slices[rlo:rhi] {
			if sb.store == nil || sb.store.Len() == 0 {
				continue
			}
			results := j.pairResults(sa, sb)
			if len(results) == 0 {
				continue
			}
			newer := max(sa.epoch, sb.epoch)
			tick := j.metrics.start()
			for gi, g := range groups {
				if g.cap < j.win.table.Base() {
					// Every slice as old as this cap is gone: the group's
					// queries have no data left anywhere.
					continue
				}
				relNow, err := j.win.table.Rel(newer, g.cap)
				if err != nil {
					panic(fmt.Sprintf("core: join relNow: %v", err))
				}
				if relNow.IsEmpty() {
					continue
				}
				pass := j.passTmp[gi]
				anyPass := !pass.IsEmpty()
				for i := range results {
					jt := &results[i]
					// eff = jt.QuerySet ∩ relNow in scratch: nothing
					// allocated per result.
					jt.QuerySet.AndInto(relNow, &j.effTmp)
					if j.effTmp.IsEmpty() {
						continue
					}
					for _, qi := range g.idxs {
						if aq := queries[qi]; aq.terminal && j.effTmp.Test(aq.slot) {
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
					if anyPass {
						j.effTmp.AndInto(pass, &j.pmTmp)
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
	rel, err := j.win.table.Rel(sa.epoch, sb.epoch)
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
func (j *SharedJoin) ActiveQueries() int { return len(j.win.queries.ordered) }

// LiveSlices reports live slice counts per side (tests/metrics).
func (j *SharedJoin) LiveSlices() (int, int) {
	return j.win.sides[0].liveSlices(), j.win.sides[1].liveSlices()
}
