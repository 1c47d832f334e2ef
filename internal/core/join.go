package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/window"
)

// SharedJoin is the shared windowed equi-join operator (paper §3.1.4). One
// instance holds the slices of both input sides for its key partition, joins
// overlapping slices exactly once, caches each pair's rows on the left slice,
// and reuses them for every query window that covers the pair — the
// incremental, delta style of Figure 4f.
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

	// Steady-state scratch (owned by the instance goroutine, §3.2.2's
	// no-allocation discipline): the trigger's delivery targets and
	// pass-through slots per cap group, the one result row every delivery is
	// a copy of, a pair's rows before they are cached at their exact size,
	// and the query-set intersection temporaries.
	//lint:ephemeral per-trigger scratch
	groups []fireGroup //lint:pooled scratch per-cap-group targets and pass-through slots of the trigger
	//lint:ephemeral per-trigger scratch
	res Result
	//lint:ephemeral per-pair scratch
	rowsTmp []pairRow //lint:pooled scratch a pair's rows while they are being joined
	//lint:ephemeral per-pair scratch
	qsTmp bitset.Bits //lint:pooled scratch slice-join kernel intersection scratch
	//lint:ephemeral per-pair scratch
	termTmp bitset.Bits //lint:pooled scratch a cap group's terminal slots still live under the pair's epochs
	//lint:ephemeral per-pair scratch
	passTmp bitset.Bits //lint:pooled scratch a cap group's pass-through slots still live under the pair's epochs
	//lint:ephemeral per-row scratch
	pmTmp bitset.Bits //lint:pooled scratch a row's pass-through slots
}

// fireGroup is what one cap group of a trigger delivers to: the slots of its
// terminal queries, with each one's target by slot (slots are unique within a
// cap group), and the slots of the others.
type fireGroup struct {
	term, pass bitset.Bits
	bySlot     []joinTarget
}

// joinTarget is a terminal query of a trigger: its ID and its sink, resolved
// once per trigger and nil if none is registered.
type joinTarget struct {
	id   int
	sink Sink
}

// joinWindow is the window a join stage fires for q.
func joinWindow(q *Query) window.Spec { return q.Window }

// NewSharedJoin constructs the logic for one join-stage instance.
func NewSharedJoin(stage int, storeMode StoreMode, lateness event.Time, router *Router, m *OpMetrics) *SharedJoin {
	return &SharedJoin{
		stage:     stage,
		storeMode: storeMode,
		// Slice IDs are namespaced per side (even/odd): no ID names a slice
		// on both sides.
		win:     newWindowOp(lateness, joinWindow, newSlicerWithIDs(0, 2), newSlicerWithIDs(1, 2)),
		router:  router,
		metrics: m,
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

// retire finishes a watermark once its windows have fired. An evicted slice
// takes its store with it — tuples, key index and, on the left, the pairs
// cached there; what the left stores cached against an evicted right slice
// goes here.
func (j *SharedJoin) retire(wm event.Time) {
	j.win.retire(wm, func(side int, sl *slice) {
		if side == 0 {
			return
		}
		for _, sa := range j.win.sides[0].slices {
			if sa.store != nil {
				delete(sa.store.pairs, sl.id)
			}
		}
	})
}

// fireWindow emits results for one window extent on behalf of the queries
// listed: every row of every overlapping slice pair goes, per cap group, to
// the sinks of the terminal queries it is effective for, in (slot, ID) order,
// and once downstream carrying the slots of the others. This is where the
// joined tuple is built and where it is copied — once per delivery, into the
// sink's argument (§3.2.2): the trigger fills Kind and Window of the one
// result row, a pair row the join payload, a target the query ID.
//
//lint:hotpath
func (j *SharedJoin) fireWindow(ext window.Extent, queries []*liveQuery, out *spe.Emitter) {
	left, right := j.win.sides[0], j.win.sides[1]
	llo, lhi := left.overlappingRange(ext)
	rlo, rhi := right.overlappingRange(ext)
	if llo == lhi || rlo == rhi {
		return
	}
	caps := j.win.capGroups(queries)
	for len(j.groups) < len(caps) {
		//lint:ignore hotalloc amortized: the scratch grows to the trigger's distinct cap count once
		j.groups = append(j.groups, fireGroup{})
	}
	for gi, g := range caps {
		fg := &j.groups[gi]
		fg.term.Reset()
		fg.pass.Reset()
		for _, qi := range g.idxs {
			aq := queries[qi]
			if !aq.terminal {
				fg.pass.Set(aq.slot)
				continue
			}
			fg.term.Set(aq.slot)
			for len(fg.bySlot) <= aq.slot {
				//lint:ignore hotalloc amortized: the target table grows to the highest slot once
				fg.bySlot = append(fg.bySlot, joinTarget{})
			}
			fg.bySlot[aq.slot] = joinTarget{id: aq.q.ID, sink: j.router.SinkFor(aq.q.ID)}
		}
	}
	res := &j.res
	res.Kind, res.Window = KindJoin, ext

	for _, sa := range left.slices[llo:lhi] {
		if sa.store == nil || sa.store.Len() == 0 {
			continue
		}
		for _, sb := range right.slices[rlo:rhi] {
			if sb.store == nil || sb.store.Len() == 0 {
				continue
			}
			rows := j.pairRows(sa, sb)
			if len(rows) == 0 {
				continue
			}
			lt, rt := sa.store.tuples, sb.store.tuples
			newer := max(sa.epoch, sb.epoch)
			delivered := uint64(0)
			for gi, g := range caps {
				if g.cap < j.win.table.Base() {
					// Every slice as old as this cap is gone: the group's
					// queries have no data left anywhere.
					continue
				}
				relNow, err := j.win.table.Rel(newer, g.cap)
				if err != nil {
					panic(fmt.Sprintf("core: join relNow: %v", err))
				}
				// A row is effective for the slots in row.qs ∩ relNow. relNow
				// is the pair's, so it is applied to the group's slots once,
				// and a row then walks the bits it shares with them, word by
				// word, in slot order: nothing allocated per row.
				fg := &j.groups[gi]
				fg.term.AndInto(relNow, &j.termTmp)
				fg.pass.AndInto(relNow, &j.passTmp)
				anyPass := !j.passTmp.IsEmpty()
				if !anyPass && j.termTmp.IsEmpty() {
					continue
				}
				for i := range rows {
					row := &rows[i]
					l, r := &lt[row.l], &rt[row.r]
					filled := false
					for wi, nw := 0, row.qs.WordCount(); wi < nw; wi++ {
						for w := row.qs.Word(wi) & j.termTmp.Word(wi); w != 0; w &= w - 1 {
							if !filled {
								filled = true
								jt := &res.Join
								jt.Key, jt.Left, jt.Right, jt.QuerySet = l.Key, l.Fields, r.Fields, row.qs
								jt.Time, jt.IngestNanos = max(l.Time, r.Time), max(l.IngestNanos, r.IngestNanos)
								res.EventTime, res.IngestNanos = jt.Time, jt.IngestNanos
							}
							delivered++
							if tg := &fg.bySlot[wi*64+bits.TrailingZeros64(w)]; tg.sink != nil {
								res.QueryID = tg.id
								tg.sink.OnResult(*res)
							}
						}
					}
					if !anyPass {
						continue
					}
					row.qs.AndInto(j.passTmp, &j.pmTmp)
					if !j.pmTmp.IsEmpty() {
						out.EmitTuple(event.Tuple{
							Key: l.Key, Fields: l.Fields, IngestNanos: max(l.IngestNanos, r.IngestNanos),
							//lint:ignore hotalloc pass-through clone: the emitted tuple owns its query-set (inline up to 64 slots)
							QuerySet: j.pmTmp.Clone(),
							// Re-timestamp to the window's max timestamp (as
							// Flink does for window joins) so the result is
							// never late for the downstream stage, whose
							// watermark already trails this window's end.
							Time: ext.End - 1,
						})
					}
				}
			}
			atomic.AddUint64(&j.metrics.JoinedOut, delivered)
		}
	}
}

// pairRows returns the cached join of two slices, computing it on first use
// (the computation history of §3.1.4) and again if either store has taken a
// tuple since.
func (j *SharedJoin) pairRows(sa, sb *slice) []pairRow {
	a, b := sa.store, sb.store
	if p, ok := a.pairs[sb.id]; ok && p.ln == len(a.tuples) && p.rn == len(b.tuples) {
		atomic.AddUint64(&j.metrics.PairsReuse, 1)
		return p.rows
	}
	rel, err := j.win.table.Rel(sa.epoch, sb.epoch)
	if err != nil {
		panic(fmt.Sprintf("core: join rel: %v", err))
	}
	j.rowsTmp = joinStores(a, b, rel, &j.qsTmp, j.rowsTmp[:0])
	atomic.AddUint64(&j.metrics.PairsDone, 1)
	var rows []pairRow
	if len(j.rowsTmp) > 0 {
		//lint:ignore hotalloc first sight of a pair: its rows are cached at their exact size until either slice is evicted
		rows = make([]pairRow, len(j.rowsTmp))
		copy(rows, j.rowsTmp)
	}
	if a.pairs == nil {
		//lint:ignore hotalloc first sight of a pair: one table per left slice
		a.pairs = make(map[uint64]slicePair)
	}
	a.pairs[sb.id] = slicePair{ln: len(a.tuples), rn: len(b.tuples), rows: rows}
	return rows
}

// ActiveQueries reports the number of queries registered at this stage.
func (j *SharedJoin) ActiveQueries() int { return len(j.win.queries.ordered) }

// LiveSlices reports live slice counts per side (tests/metrics).
func (j *SharedJoin) LiveSlices() (int, int) {
	return j.win.sides[0].liveSlices(), j.win.sides[1].liveSlices()
}
