package core

import (
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
	stage int // 0 joins streams 0⋈1; stage k joins (stage k-1)⋈(stream k+1)
	// win drives both sides' slice rings (tuples in slice.store) and the
	// queries active at this stage.
	win     windowOp
	router  *Router
	metrics *OpMetrics

	// Steady-state scratch (owned by the instance goroutine, §3.2.2's
	// no-allocation discipline): a window end's queries, slice ranges and
	// per-cap-group targets and slots, the one joined row every delivery of a
	// pair row borrows, a pair's rows before they are cached at their exact
	// size, and the query-set intersection temporaries.
	endQs   []*liveQuery // the end's trigger queries, trigger after trigger
	lows    [2][]int     // per side, each trigger's first overlapping slice
	groups  []fireGroup  // per-cap-group targets and pass-through slots of the end
	row     event.JoinedTuple
	rowsTmp []pairRow   // a pair's rows while they are being joined
	qsTmp   bitset.Bits // slice-join kernel intersection scratch
	termTmp bitset.Bits // a cap group's terminal slots still live under the pair's epochs
	passTmp bitset.Bits // a cap group's pass-through slots still live under the pair's epochs
	pmTmp   bitset.Bits // a row's pass-through slots
}

// fireGroup is what one cap group of a window end delivers to: per trigger k,
// the slots of triggers 0..k's terminal queries, each one's target by slot
// (slots are unique within a cap group), and the slots of the others.
type fireGroup struct {
	term, pass []bitset.Bits
	bySlot     []joinTarget
}

// joinTarget is a terminal query of a window end: its ID, its sink (resolved
// once per end, nil if none is registered) and the extent it fires.
type joinTarget struct {
	id   int
	sink Sink
	ext  window.Extent
}

// joinWindow is the window a join stage fires for q.
func joinWindow(q *Query) window.Spec { return q.Window }

// StoreMode is NewSharedJoin's second parameter, unread: kept so cmd/ledger builds.
type StoreMode uint8

// StoreAdaptive is the StoreMode cmd/ledger passes, unread: kept so it builds.
const StoreAdaptive StoreMode = 0

// NewSharedJoin constructs the logic for one join-stage instance.
func NewSharedJoin(stage int, _ StoreMode, lateness event.Time, router *Router, m *OpMetrics) *SharedJoin {
	return &SharedJoin{
		stage: stage,
		// Slice IDs are namespaced per side (even/odd): no ID names a slice
		// on both sides.
		win:     newWindowOp(lateness, 1, joinWindow, newSlicerWithIDs(0, 2), newSlicerWithIDs(1, 2)),
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
// both side slicers — cutting their slices only if the changelog creates or
// deletes a query of this stage — and extends the changelog-set table
// (Equation 1).
func (j *SharedJoin) OnChangelog(payload any, at event.Time, _ *spe.Emitter) {
	msg := payload.(*ChangelogMsg)
	cut := j.win.queries.markDeleted(msg.CL, at)
	for _, c := range msg.CL.Created {
		q := msg.Defs[c.Query]
		if q == nil {
			continue
		}
		if part, term := queryAtStage(q, j.stage); part {
			j.win.queries.admit(q, c.Slot, at).terminal = term
			cut = true
		}
	}
	j.win.addEpoch(msg.CL, at, cut)
}

// OnTuple stores the tuple in its side's slice. Tuples are saved exactly
// once per slice (paper §3.2.2: no data copy inside shared operators).
func (j *SharedJoin) OnTuple(port int, t event.Tuple, _ *spe.Emitter) {
	if t.Time < j.win.evictedThru[port] {
		atomic.AddUint64(&j.metrics.Late, 1)
		return
	}
	sl := j.win.writeSlice(port, t.Time)
	if sl.store == nil {
		sl.store = &sliceStore{}
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
	// Triggers come in (End, Start) order: each End's run fires in one walk.
	for trs := j.win.trig.list; len(trs) > 0; {
		n := 1
		for n < len(trs) && trs[n].ext.End == trs[0].ext.End {
			n++
		}
		j.fireEnd(trs[:n], out)
		trs = trs[n:]
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

// fireEnd emits results for the triggers of one window end, widest extent
// first, on behalf of their queries: every row of every slice pair the
// widest extent overlaps goes, per cap group, to the sinks of the terminal
// queries it is effective for, in (slot, ID) order, and once downstream
// carrying the slots of the others. The triggers covering a pair are a
// prefix of the list, so a pair is looked up, and each of its rows built,
// once per end. This is where the joined tuple is built, once per pair row
// into the instance's row, and each delivery lends it to the sink (§3.2.2):
// the Result, eight words, carries a target's query ID and Window and a
// pointer to the row, in registers — nothing is copied per delivery.
func (j *SharedJoin) fireEnd(trigs []*trigger, out *spe.Emitter) {
	left, right := j.win.sides[0], j.win.sides[1]
	j.endQs, j.lows[0], j.lows[1] = j.endQs[:0], j.lows[0][:0], j.lows[1][:0]
	var lhi, rhi int
	for k, tr := range trigs {
		ll, lh := left.overlappingRange(tr.ext)
		rl, rh := right.overlappingRange(tr.ext)
		if k == 0 && (ll == lh || rl == rh) {
			return // no extent of the end overlaps a slice on that side
		}
		// amortized: the end scratch grows to the end's trigger and query counts once
		j.lows[0], j.lows[1] = append(j.lows[0], ll), append(j.lows[1], rl)
		j.endQs = append(j.endQs, tr.queries...)
		// The extents share the range's upper bound, the first slice starting
		// at or after the end: no extent's first slice lies past it.
		lhi, rhi = lh, rh
	}
	llo, rlo := j.lows[0], j.lows[1]

	caps := j.win.capGroups(j.endQs)
	for len(j.groups) < len(caps) {
		// amortized: the scratch grows to the end's distinct cap count once
		j.groups = append(j.groups, fireGroup{})
	}
	for gi, g := range caps {
		fg := &j.groups[gi]
		for len(fg.term) < len(trigs) {
			// amortized: the masks grow to the end's trigger count once
			fg.term, fg.pass = append(fg.term, bitset.Bits{}), append(fg.pass, bitset.Bits{})
		}
		idxs, next := g.idxs, 0 // idxs ascend: trigger k's run ends before next
		for k, tr := range trigs {
			next += len(tr.queries)
			if k == 0 {
				fg.term[0].Reset()
				fg.pass[0].Reset()
			} else {
				fg.term[k].CopyFrom(fg.term[k-1])
				fg.pass[k].CopyFrom(fg.pass[k-1])
			}
			for ; len(idxs) > 0 && idxs[0] < next; idxs = idxs[1:] {
				aq := j.endQs[idxs[0]]
				if !aq.terminal {
					fg.pass[k].Set(aq.slot)
					continue
				}
				fg.term[k].Set(aq.slot)
				for len(fg.bySlot) <= aq.slot {
					// amortized: the target table grows to the highest slot once
					fg.bySlot = append(fg.bySlot, joinTarget{})
				}
				fg.bySlot[aq.slot] = joinTarget{id: aq.q.ID, sink: j.router.SinkFor(aq.q.ID), ext: tr.ext}
			}
		}
	}
	res, end := Result{Kind: KindJoin, Join: &j.row}, trigs[0].ext.End

	for li := llo[0]; li < lhi; li++ {
		sa := left.slices[li]
		if sa.store == nil || sa.store.Len() == 0 {
			continue
		}
		// Triggers [0, ml) overlap the left slice, [0, mr) the right one.
		ml := 1
		for ml < len(trigs) && llo[ml] <= li {
			ml++
		}
		mr := 1
		for ri := rlo[0]; ri < rhi; ri++ {
			for mr < len(trigs) && rlo[mr] <= ri {
				mr++
			}
			sb := right.slices[ri]
			if sb.store == nil || sb.store.Len() == 0 {
				continue
			}
			rows := j.pairRows(sa, sb)
			if len(rows) == 0 {
				continue
			}
			// The pair's queries are those of the triggers covering it.
			cover := min(ml, mr) - 1
			lt, rt := sa.store.tuples, sb.store.tuples
			newer := max(sa.epoch, sb.epoch)
			delivered := uint64(0)
			for gi, g := range caps {
				if g.cap < j.win.table.Base() {
					// Every slice as old as this cap is gone: the group's
					// queries have no data left anywhere.
					continue
				}
				relNow := j.win.table.Rel(newer, g.cap)
				// A row is effective for the slots in row.qs ∩ relNow. relNow
				// is the pair's, so it is applied to the group's slots once,
				// and a row then walks the bits it shares with them, word by
				// word, in slot order: nothing allocated per row.
				fg := &j.groups[gi]
				fg.term[cover].AndInto(relNow, &j.termTmp)
				fg.pass[cover].AndInto(relNow, &j.passTmp)
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
								jt := &j.row
								jt.Key, jt.Left, jt.Right, jt.QuerySet = l.Key, l.Fields, r.Fields, row.qs
								jt.Time, jt.IngestNanos = max(l.Time, r.Time), max(l.IngestNanos, r.IngestNanos)
							}
							delivered++
							if tg := &fg.bySlot[wi*64+bits.TrailingZeros64(w)]; tg.sink != nil {
								res.QueryID, res.Window = tg.id, tg.ext
								tg.sink.OnResult(res)
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
							// pass-through clone: the emitted tuple owns its query-set (inline up to 64 slots)
							QuerySet: j.pmTmp.Clone(),
							// Re-timestamp to the windows' max timestamp (as
							// Flink does for window joins) so the result is
							// never late for the downstream stage, whose
							// watermark already trails this end.
							Time: end - 1,
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
	rel := j.win.table.Rel(sa.epoch, sb.epoch)
	j.rowsTmp = joinStores(a, b, rel, &j.qsTmp, j.rowsTmp[:0])
	atomic.AddUint64(&j.metrics.PairsDone, 1)
	var rows []pairRow
	if len(j.rowsTmp) > 0 {
		// first sight of a pair: its rows are cached at their exact size until either slice is evicted
		rows = make([]pairRow, len(j.rowsTmp))
		copy(rows, j.rowsTmp)
	}
	if a.pairs == nil {
		// first sight of a pair: one table per left slice
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
