package core

import (
	"fmt"
	"slices"
	"sort"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/window"
	"astream/internal/wire"
)

// This file is the window driver under the shared aggregation and the shared
// join (paper §3.1.3–§3.1.5, DESIGN.md §15): the event-time lifetime of a
// query, the (slot, ID)-ordered query table, the changelog-set table and
// epoch registration, trigger collection at the watermark, cap grouping, and
// retirement (purge, slice eviction, history compaction). The operators
// differ in what a slice stores, what a fire does with a trigger's cap groups
// and what an evicted slice releases; everything else is here, once — the
// snapshot chain included (DESIGN.md §13).

// liveQuery is one query live at a windowed operator.
type liveQuery struct {
	q    *Query
	slot int
	// spec is the window of q the operator fires: the table's specOf(q).
	spec window.Spec
	// since is the query's activation event-time: windows ending at or
	// before it hold nothing for the query and are skipped. Skipping them
	// also guarantees every slice overlapping a fired window is already
	// complete (its end is behind the watermark), so the join caches a
	// slice pair once rather than once per tuple of a slice still filling.
	since event.Time
	// until is the query's deletion event-time (MaxTime while running).
	// Deletion is deferred: windows ending at or before until still fire,
	// so results depend only on event times — the determinism the paper's
	// §3.3 replayability requires — never on cross-sender arrival races.
	until event.Time
	// endEpoch caps changelog-set masking for a deleted query: its slot is
	// only meaningful up to the epoch before its deletion changelog.
	endEpoch uint64

	// port is the aggregation input port that feeds the query.
	port int
	// terminal marks a join stage that produces the query's final results,
	// routed to its sink; otherwise results flow downstream.
	terminal bool
	// sessions is per-key session state for session-window queries (nil for
	// every other query); sessKeys mirrors its keys in ascending order
	// (maintained on creation/expiry) so harvest iterates deterministically
	// without a per-watermark sort.
	sessions map[int64]*window.SessionState
	sessKeys []int64
}

// queryTable holds an operator's live queries by ID and in (slot, ID) order.
// The ordered list is maintained incrementally on changelog and purge: the
// per-tuple and watermark paths iterate it, so delivery order is
// deterministic (replay determinism, §3.3) without per-emission sorts or map
// ranges.
type queryTable struct {
	specOf  func(*Query) window.Spec
	byID    map[int]*liveQuery // index over ordered, rebuilt on restore
	ordered []*liveQuery
}

func newQueryTable(specOf func(*Query) window.Spec) queryTable {
	return queryTable{specOf: specOf, byID: make(map[int]*liveQuery)}
}

// insert adds lq by binary insert (changelog and restore paths — cold).
func (t *queryTable) insert(lq *liveQuery) {
	i := sort.Search(len(t.ordered), func(i int) bool {
		o := t.ordered[i]
		if o.slot != lq.slot {
			return o.slot > lq.slot
		}
		return o.q.ID > lq.q.ID
	})
	t.ordered = append(t.ordered, nil)
	copy(t.ordered[i+1:], t.ordered[i:])
	t.ordered[i] = lq
	t.byID[lq.q.ID] = lq
}

// admit starts q's lifetime at event-time at and returns its record for the
// operator to complete.
func (t *queryTable) admit(q *Query, slot int, at event.Time) *liveQuery {
	lq := &liveQuery{q: q, slot: slot, spec: t.specOf(q), since: at, until: event.MaxTime, endEpoch: ^uint64(0)}
	t.insert(lq)
	return lq
}

// markDeleted ends the lifetime of cl's deleted queries at event-time at;
// they stay in the table, capped at the epoch before cl, until purge. It
// reports whether cl deleted any query of the table.
func (t *queryTable) markDeleted(cl *changelog.Changelog, at event.Time) (any bool) {
	for _, d := range cl.Deleted {
		if lq, ok := t.byID[d.Query]; ok {
			lq.until = at
			lq.endEpoch = cl.Seq - 1
			any = true
		}
	}
	return any
}

// purge drops the queries whose deletion time the watermark has reached:
// every window they could still fire has fired.
func (t *queryTable) purge(wm event.Time) {
	kept := t.ordered[:0]
	for _, lq := range t.ordered {
		if lq.until <= wm {
			delete(t.byID, lq.q.ID)
		} else {
			kept = append(kept, lq)
		}
	}
	clear(t.ordered[len(kept):])
	t.ordered = kept
}

// appendTo serializes the table in (slot, ID) order, open session windows
// included.
func (t *queryTable) appendTo(b []byte) []byte {
	b = wire.AppendCount(b, len(t.ordered))
	for _, lq := range t.ordered {
		b = AppendQuery(b, lq.q)
		b = wire.AppendU32(b, uint32(lq.slot))
		b = wire.AppendU32(b, uint32(lq.port))
		b = wire.AppendBool(b, lq.terminal)
		b = wire.AppendI64(b, int64(lq.since))
		b = wire.AppendI64(b, int64(lq.until))
		b = wire.AppendU64(b, lq.endEpoch)
		b = wire.AppendBool(b, lq.sessions != nil)
		if lq.sessions != nil {
			b = wire.AppendCount(b, len(lq.sessKeys))
			for _, key := range lq.sessKeys {
				b = wire.AppendI64(b, key)
				open := lq.sessions[key].OpenSessions()
				b = wire.AppendCount(b, len(open))
				for _, w := range open {
					b = wire.AppendI64(b, int64(w.Start))
					b = wire.AppendI64(b, int64(w.End))
					b = wire.AppendI64(b, w.Sum)
					b = wire.AppendI64(b, w.Count)
				}
			}
		}
	}
	return b
}

// readFrom replaces the table with a decoded appendTo encoding. Records out
// of (slot, ID) order, a record bound to a port the operator does not have,
// sessions on a query whose window is not a session window, session keys out
// of ascending order or with no open session, and open sessions that are
// empty or not in ascending, gap-separated order fail the reader: appendTo
// writes none of them.
func (t *queryTable) readFrom(r *wire.Reader, ports int) {
	n := r.Count("query table size", queryMinSize+34)
	t.byID = make(map[int]*liveQuery, n)
	t.ordered = t.ordered[:0]
	for i := 0; i < n && r.Err() == nil; i++ {
		q := ReadQuery(r)
		lq := &liveQuery{
			q:        q,
			slot:     readSlot(r, "query slot"),
			spec:     t.specOf(q),
			port:     int(r.U32("query port")),
			terminal: r.Bool("query terminal"),
			since:    event.Time(r.I64("query since")),
			until:    event.Time(r.I64("query until")),
			endEpoch: r.U64("query endEpoch"),
		}
		if r.Err() == nil && lq.port >= ports {
			r.Fail(fmt.Errorf("core: snapshot binds query %d to port %d of %d", q.ID, lq.port, ports))
		}
		if n := len(t.ordered); r.Err() == nil && n > 0 {
			if prev := t.ordered[n-1]; prev.slot > lq.slot || prev.slot == lq.slot && prev.q.ID >= q.ID {
				r.Fail(fmt.Errorf("core: snapshot lists query %d (slot %d) after query %d (slot %d)", q.ID, lq.slot, prev.q.ID, prev.slot))
			}
		}
		if r.Bool("query sessions present") {
			if lq.spec.Kind != window.Session && r.Err() == nil {
				r.Fail(fmt.Errorf("core: snapshot holds sessions for query %d, whose window is %v", q.ID, lq.spec.Kind))
			}
			lq.sessions = make(map[int64]*window.SessionState)
			nk := r.Count("session key count", 12)
			for ki := 0; ki < nk && r.Err() == nil; ki++ {
				key := r.I64("session key")
				if ki > 0 && key <= lq.sessKeys[ki-1] && r.Err() == nil {
					r.Fail(fmt.Errorf("core: query %d session keys out of order at %d", q.ID, key))
				}
				nw := r.Count("open session count", 32)
				if nw == 0 && r.Err() == nil {
					r.Fail(fmt.Errorf("core: query %d session key %d has no open session", q.ID, key))
				}
				open := make([]window.OpenSession, 0, nw)
				for wi := 0; wi < nw && r.Err() == nil; wi++ {
					w := window.OpenSession{
						Start: event.Time(r.I64("session start")),
						End:   event.Time(r.I64("session end")),
						Sum:   r.I64("session sum"),
						Count: r.I64("session count"),
					}
					if w.End <= w.Start || wi > 0 && (w.Start <= open[wi-1].End || w.Start-open[wi-1].End < lq.spec.Gap) {
						r.Fail(fmt.Errorf("core: query %d session key %d: open session [%v,%v) is empty or not gap-separated from the one before", q.ID, key, w.Start, w.End))
					}
					open = append(open, w)
				}
				lq.sessions[key] = window.RestoreSessionState(lq.spec.Gap, open)
				lq.sessKeys = append(lq.sessKeys, key) // serialized in sorted order
			}
		}
		if r.Err() == nil {
			t.insert(lq)
		}
	}
}

// trigger collects the queries one window extent fires.
type trigger struct {
	ext     window.Extent
	queries []*liveQuery
}

// triggerList is one watermark's triggers in (End, Start) order. Queries
// whose window specs put an edge on the same extent land in one trigger — the
// extent then fires once for all of them — in the order they were added,
// which is the table's (slot, ID) order. The list is kept sorted by binary
// insert instead of a per-watermark sort, and trigger objects (with their
// query slices) are recycled across watermarks.
type triggerList struct {
	list []*trigger
}

// reset empties the list, parking its triggers past the length for reuse.
func (l *triggerList) reset() { l.list = l.list[:0] }

// add appends q to ext's trigger, creating the trigger on first use.
func (l *triggerList) add(ext window.Extent, q *liveQuery) {
	i := sort.Search(len(l.list), func(i int) bool {
		t := l.list[i]
		if t.ext.End != ext.End {
			return t.ext.End > ext.End
		}
		return t.ext.Start > ext.Start
	})
	// Search returns the first trigger strictly after ext, so ext's own
	// trigger, if any, sits just before it.
	if i > 0 && l.list[i-1].ext == ext {
		tr := l.list[i-1]
		// amortized: trigger query lists grow to the extent's query count once
		tr.queries = append(tr.queries, q)
		return
	}
	var tr *trigger
	if n := len(l.list); n < cap(l.list) {
		// Take the trigger parked at the new last position before the shift
		// below overwrites it.
		l.list = l.list[:n+1]
		tr = l.list[n]
	} else {
		// amortized: trigger list grows to the per-watermark extent count once
		l.list = append(l.list, nil)
	}
	if tr == nil {
		// cold: trigger objects are recycled across watermarks once allocated
		tr = &trigger{}
	}
	copy(l.list[i+1:], l.list[i:])
	tr.ext = ext
	// amortized: trigger query lists grow to the extent's query count once
	tr.queries = append(tr.queries[:0], q)
	l.list[i] = tr
}

// capGroup batches a trigger's queries (by index) sharing one changelog-set
// cap.
type capGroup struct {
	cap  uint64
	idxs []int
}

// windowOp is the window driver of an operator with one slicer (aggregation)
// or two (the join's sides). All sides share the changelog-set table, the
// query table and the watermark.
type windowOp struct {
	sides    []*slicer
	table    *changelog.Table
	queries  queryTable
	ports    int // input ports a query can be bound to (liveQuery.port)
	lateness event.Time
	lastWM   event.Time
	// evictedThru is, per side, the end of the newest evicted slice: a tuple
	// older than its side's mark is late and dropped.
	evictedThru [2]event.Time

	// The snapshot chain: the links written since the newest full
	// snapshot, that one included (0 while no link anchors a chain: before
	// the first barrier and after a restore), and the barrier that cut the
	// last link the instance wrote or applied (0 before any: barriers count
	// from 1), which the next delta names as its predecessor.
	chainLen int
	lastLink uint64

	// Steady-state scratch, owned by the instance goroutine.
	trig     triggerList     // per-watermark trigger scratch
	caps     []capGroup      // per-trigger cap-grouping scratch
	specsTmp []window.Spec   // per-watermark window-spec scratch
	extTmp   []window.Extent // per-query window-list scratch of collectTriggers
}

func newWindowOp(lateness event.Time, ports int, specOf func(*Query) window.Spec, sides ...*slicer) windowOp {
	return windowOp{
		sides:       sides,
		table:       changelog.NewTable(),
		queries:     newQueryTable(specOf),
		ports:       ports,
		lateness:    lateness,
		lastWM:      event.MinTime,
		evictedThru: [2]event.Time{event.MinTime, event.MinTime},
	}
}

// addEpoch registers cl, applied at event-time at, with every side's slicer
// and extends the changelog-set table (Equation 1). cut is the operator's
// decision, and it has one rule: cl cuts iff it creates or deletes a query of
// w.queries. Only then do slices split at cl, and the queries running after
// it — their time-based specs, their slots per port and their session slots —
// shape the epoch it opens; the slicers' epoch history stores them, so they
// are fresh, not scratch. These are the only changelogs that change the
// masks, so an epoch's masks hold throughout it, and a pending-deleted
// query's slot stays in the older epochs, where its in-flight tuples resolve.
//
// Any other changelog — a selection query started or stopped, a query of
// another operator — relabels the slices of the newest epoch to cl's seq
// instead (slicer.addEpoch). That changes no result: cl touches none of
// the operator's slots, so cl.Set holds every one of them, and for every cap
// c ≥ cl.Seq, Rel(cl.Seq-1, c) = Rel(cl.Seq, c) ∧ cl.Set agrees with
// Rel(cl.Seq, c) on them. A pending-deleted query's cap lies below the
// deletion changelog, which cut and so precedes the relabeled epoch: both
// labels relate to it through that changelog's set, which clears its slot.
// And a slice is only ever read on operator slots — the aggregation's
// partials carry no others (it masks a tuple with its epoch's port mask), the join
// delivers a row only to its cap groups' slots — so where the two labels
// differ nothing is read. A join pair cached under the old label stays valid
// for the same reason; only its rows' Join.QuerySet bits of other operators'
// slots may differ from a fresh join's.
func (w *windowOp) addEpoch(cl *changelog.Changelog, at event.Time, cut bool) {
	ep := epochInfo{from: at, seq: cl.Seq}
	if cut {
		ep.specs = make([]window.Spec, 0, len(w.queries.ordered))
		ep.portMasks = make([]bitset.Bits, w.ports)
		for _, lq := range w.queries.ordered {
			if lq.until != event.MaxTime {
				continue
			}
			if lq.spec.IsTimeBased() {
				ep.specs = append(ep.specs, lq.spec)
			}
			ep.portMasks[lq.port].Set(lq.slot)
			if lq.sessions != nil {
				ep.sessMask.Set(lq.slot)
			}
		}
	}
	if err := w.table.Add(cl); err != nil {
		panic(fmt.Sprintf("core: window table: %v", err))
	}
	for _, s := range w.sides {
		if err := s.addEpoch(ep, cut); err != nil {
			panic(fmt.Sprintf("core: window epoch: %v", err))
		}
	}
}

// writeSlice returns side's slice holding event-time t, created if need be,
// and marks it written since the last link: the caller is about to store
// into it, so the next delta re-encodes it.
func (w *windowOp) writeSlice(side int, t event.Time) *slice {
	sl := w.sides[side].sliceFor(t)
	sl.dirty = true
	return sl
}

// collectTriggers fills w.trig with the time-window extents ending in
// (lastWM, wm], so each extent is processed once however many queries share
// it; the table's order keeps every trigger's queries in (slot, ID) order.
func (w *windowOp) collectTriggers(wm event.Time) {
	// Clamp the trigger range to where data exists: before the first
	// watermark lastWM is MinTime, and windows before the oldest slice are
	// empty by construction (with no slice at all, nothing can fire).
	lo := w.lastWM
	if lo == event.MinTime {
		lo = wm
		for _, s := range w.sides {
			if len(s.slices) > 0 {
				lo = min(lo, s.slices[0].ext.Start)
			}
		}
	}
	w.trig.reset()
	for _, lq := range w.queries.ordered {
		if !lq.spec.IsTimeBased() {
			continue
		}
		// Pre-activation windows are empty for lq; windows ending after
		// until close after its deletion.
		w.extTmp = lq.spec.WindowsEndingIn(max(lo, lq.since), wm, w.extTmp[:0])
		for _, ext := range w.extTmp {
			if ext.End <= lq.until {
				w.trig.add(ext, lq)
			}
		}
	}
}

// capGroups groups a trigger's queries (by index) by their changelog-set cap:
// running queries mask to the current epoch, pending-deleted ones to the
// epoch before their deletion. Caps per trigger are few: a linear scan into
// the reused scratch beats a map and allocates nothing in steady state.
func (w *windowOp) capGroups(queries []*liveQuery) []capGroup {
	cur := w.table.Latest()
	groups := w.caps[:0]
	for qi, lq := range queries {
		capTo := min(cur, lq.endEpoch)
		gi := 0
		for gi < len(groups) && groups[gi].cap != capTo {
			gi++
		}
		if gi == len(groups) {
			if gi < cap(groups) {
				groups = groups[:gi+1] // recycles the parked group's index slice
			} else {
				// amortized: cap-group list grows to the trigger's distinct cap count once
				groups = append(groups, capGroup{})
			}
			groups[gi].cap = capTo
			groups[gi].idxs = groups[gi].idxs[:0]
		}
		// amortized: cap-group index slices grow to the trigger's query count once
		groups[gi].idxs = append(groups[gi].idxs, qi)
	}
	w.caps = groups
	return groups
}

// retire finishes a watermark once its windows have fired: purge of the
// queries whose deletion time has passed, eviction of the slices no window of
// a remaining query can still need (onEvict releases what the operator keeps
// per slice), and compaction of epoch and changelog history.
func (w *windowOp) retire(wm event.Time, onEvict func(side int, sl *slice)) {
	w.queries.purge(wm)
	// Retention includes pending-deleted queries: their final windows
	// (ending ≤ until) may not have fired yet.
	specs := w.specsTmp[:0]
	for _, lq := range w.queries.ordered {
		if lq.spec.IsTimeBased() {
			specs = append(specs, lq.spec)
		}
	}
	w.specsTmp = specs
	retain := func(sl *slice) event.Time {
		r := sl.ext.End
		for _, sp := range specs {
			r = max(r, sp.LastWindowEndCovering(sl.ext.Start))
		}
		return r
	}
	// Compact changelog rows older than every live slice AND every epoch a
	// not-yet-late tuple could still be assigned to.
	horizon := wm - w.lateness
	oldest := ^uint64(0)
	for side, s := range w.sides {
		s.evict(wm, retain, func(sl *slice) {
			w.evictedThru[side] = max(w.evictedThru[side], sl.ext.End)
			onEvict(side, sl)
		})
		s.pruneEpochs(horizon)
		oldest = min(oldest, s.oldestEpochInUse(), s.epochAt(horizon).seq)
	}
	w.table.Compact(oldest)
	w.lastWM = wm
}

// snapFullEvery is the period of the snapshot chain: every third link is a
// full snapshot, the two between are deltas.
const snapFullEvery = 3

// nextLinkFull reports whether the next barrier's link is a full snapshot:
// when no link anchors a chain (the first barrier, the first after a
// restore) or the chain is snapFullEvery links long. A chain therefore
// restores from at most snapFullEvery links.
func (w *windowOp) nextLinkFull() bool {
	return w.chainLen == 0 || w.chainLen >= snapFullEvery
}

// appendLink writes the driver's part of the link barrier cuts: its leading
// byte — a full snapshot's version, or the magic by which a snapshot store
// tells a delta from a base without reading further — the barrier, in a
// delta the barrier of the link it extends, the event-time marks, the whole
// changelog table and every side's slice ring. The operator's part follows.
// A full link encodes every slice's payload; a delta flags each slice and
// encodes the payloads of the slices written since the previous link only,
// carrying the others forward by ID. Either way every slice is clean
// afterwards and the link extends the chain, a full one starting a new chain.
// Extents and epochs are always written: an epoch transition may truncate or
// relabel a slice without writing it.
func (w *windowOp) appendLink(b []byte, barrier uint64, full bool, payload func([]byte, *slice) []byte) []byte {
	if full {
		b = wire.AppendU8(b, opSnapshotVersion)
		w.chainLen = 0
	} else {
		b = wire.AppendU8(b, spe.DeltaSnapshotMagic)
	}
	b = wire.AppendU64(b, barrier)
	if !full {
		b = wire.AppendU64(b, w.lastLink)
	}
	b = w.appendClock(b)
	b = w.table.AppendSnapshot(b)
	for _, s := range w.sides {
		b = snapSlicer(b, s, func(b []byte, sl *slice) []byte {
			dirty := full || sl.dirty
			if !full {
				b = wire.AppendBool(b, dirty)
			}
			if dirty {
				b = payload(b, sl)
			}
			sl.dirty = false
			return b
		})
	}
	w.chainLen++
	w.lastLink = barrier
	return b
}

// readLink decodes appendLink into the instance of operator op. A full link
// replaces its state; a delta advances the state the links before it
// restored: each dirty slice by its payload, each clean one carried forward
// by ID from the ring it lands on. payload decodes a slice's payload;
// release frees the payload of a slice the link re-encoded or no longer
// lists. A delta applied to any state but the one it was cut against fails:
// it names a predecessor other than the last link the instance applied, or
// it carries forward a slice the ring does not hold. Every rejection fails
// r, which the operator's Finish reports. The restored instance anchors no
// chain: its next link is full.
func (w *windowOp) readLink(r *wire.Reader, op string, payload func(*wire.Reader, *slice), release func(*slice)) {
	lead := r.U8(op + " snapshot version")
	delta := lead == spe.DeltaSnapshotMagic
	if !delta && lead != opSnapshotVersion && r.Err() == nil {
		r.Fail(fmt.Errorf("core: bad %s snapshot version %d: neither %d nor the delta magic %#x (corrupt, or written by another build)", op, lead, opSnapshotVersion, spe.DeltaSnapshotMagic))
	}
	barrier := r.U64(op + " link barrier")
	if delta {
		if pred := r.U64(op + " link predecessor"); (w.lastLink == 0 || pred != w.lastLink) && r.Err() == nil {
			r.Fail(fmt.Errorf("core: %s delta of barrier %d extends barrier %d, but the last link applied is barrier %d (0: none)", op, barrier, pred, w.lastLink))
		}
	}
	w.readClock(r)
	w.chainLen = 0
	w.lastLink = barrier
	w.table = changelog.ReadTable(r)
	for _, s := range w.sides {
		// The ring is rebuilt in place, so the slices it held are listed first.
		old := slices.Clone(s.slices)
		prev := make(map[uint64]*slice, len(old))
		for _, sl := range old {
			prev[sl.id] = sl
		}
		restoreSlicer(r, s, w.table, w.ports, func(r *wire.Reader, sl *slice) {
			if !delta || r.Bool("snapshot delta slice dirty") {
				payload(r, sl)
			} else if p := prev[sl.id]; p != nil {
				sl.store, sl.aggs = p.store, p.aggs
				delete(prev, sl.id)
			} else if r.Err() == nil {
				r.Fail(fmt.Errorf("core: snapshot delta carries forward slice %d absent from the restored chain", sl.id))
			}
		})
		for _, sl := range old {
			if prev[sl.id] != nil {
				release(sl)
			}
		}
	}
}

// appendClock and readClock carry the driver's event-time marks.
func (w *windowOp) appendClock(b []byte) []byte {
	b = wire.AppendI64(b, int64(w.lastWM))
	for side := range w.sides {
		b = wire.AppendI64(b, int64(w.evictedThru[side]))
	}
	return b
}

func (w *windowOp) readClock(r *wire.Reader) {
	w.lastWM = event.Time(r.I64("window lastWM"))
	for side := range w.sides {
		w.evictedThru[side] = event.Time(r.I64("window evictedThru"))
	}
}
