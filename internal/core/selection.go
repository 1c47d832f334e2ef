package core

import (
	"sort"
	"sync/atomic"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
)

// StoreSwitch is the type of ChangelogMsg.Switch, unread: kept so cmd/ledger builds.
type StoreSwitch uint8

// SwitchGrouped and SwitchList are the values cmd/ledger sets, unread: kept so it builds.
const (
	SwitchGrouped StoreSwitch = iota + 1
	SwitchList
)

// ChangelogMsg is the changelog payload woven through the engine's streams:
// the slot-level changelog plus the compiled definitions of the queries it
// creates. Operators treat it as immutable shared state.
type ChangelogMsg struct {
	CL *changelog.Changelog
	// Defs maps created query IDs to their compiled definitions.
	Defs map[int]*Query
	// Switch is unread: kept so cmd/ledger builds.
	Switch StoreSwitch
}

// ChangelogSeq implements spe.ChangelogPayload.
func (m *ChangelogMsg) ChangelogSeq() uint64 { return m.CL.Seq }

// selEntry is one active query's predicate on this stream.
type selEntry struct {
	slot  int
	id    int  // engine query ID, for quarantine attribution and result delivery
	serve bool // a selection query: this instance delivers its results
	pred  expr.Predicate
	form  *selForm // pred compiled where the entry is created, shared by every version carrying it
}

// selForm is a compiled predicate: canonical form and dedup key, or the
// error that sends its entry to the fallback path.
type selForm struct {
	canon expr.Canonical
	key   string
	err   error
}

// newSelEntry creates an entry and compiles its predicate.
func newSelEntry(slot, id int, serve bool, pred expr.Predicate) selEntry {
	f := &selForm{}
	if f.canon, f.err = expr.Canonicalize(pred); f.err == nil {
		f.key = string(f.canon.AppendKey(nil))
	}
	return selEntry{slot: slot, id: id, serve: serve, pred: pred, form: f}
}

// predicateHook is the fault-injection seam for predicate evaluation: the
// engine installs the configured fault plan here so a seeded schedule can
// make a specific query's predicate panic deterministically.
type predicateHook interface {
	BeforePredicate(stream, queryID int)
}

// selVersion is the query table in effect from a given event-time, with its
// compiled predicate index (DESIGN.md §14) and the selection queries it
// answers: served lists their entries in slot order, serveMask their slots.
type selVersion struct {
	from      event.Time
	entries   []selEntry
	index     *selIndex
	served    []selEntry
	serveMask bitset.Bits
}

// SharedSelection computes each tuple's query-set and appends it as the
// extra column (paper §3.1.2), and answers the selection queries itself. It
// keeps the query table versioned by event-time so out-of-order tuples are
// classified against the workload that was active at *their* time, which is
// what makes replays and out-of-order processing consistent (§3.3).
type SharedSelection struct {
	spe.BaseLogic
	stream   int // which engine stream this instance filters
	versions []selVersion
	metrics  *OpMetrics
	// router, when set (SetRouter), receives the selection queries'
	// results; without one the instance serves nothing and emits every
	// selected tuple.
	router *Router
	// row is the served tuple every selection result of one OnTuple
	// borrows: the tuple is copied here once, never addressed itself (a
	// pointer to the argument would move it to the heap on every call).
	row event.Tuple
	// cnt is what this instance counted since it last published to metrics.
	cnt      selCounters
	lateness event.Time
	// qsTmp is the per-tuple query-set scratch: predicates set bits here
	// and the emitted tuple gets a right-sized Clone, so wide query sets
	// (>64 slots) cost one allocation per emitted tuple instead of one per
	// spill growth, and narrow sets cost none.
	qsTmp bitset.Bits
	// onPredPanic, when set, receives predicate-evaluation panics so the
	// engine can count strikes and quarantine the offending query instead of
	// letting one bad ad-hoc predicate take down the shared pipeline.
	onPredPanic func(queryID int, v any)
	// faultHook, when set, is called once per (tuple, active entry) (seeded
	// fault injection); an entry whose call panics matches nothing on that
	// tuple.
	faultHook predicateHook
}

// NewSharedSelection constructs the logic for one instance.
func NewSharedSelection(stream int, lateness event.Time, m *OpMetrics) *SharedSelection {
	return &SharedSelection{
		stream:   stream,
		versions: []selVersion{{from: event.MinTime, index: buildSelIndex(nil)}},
		metrics:  m,
		lateness: lateness,
	}
}

// SetRouter makes the instance answer its selection queries: their results
// go to r's sinks, and a tuple only they match is dropped. The engine wires
// its instances through it; an instance built on its own gets one the same
// way.
func (s *SharedSelection) SetRouter(r *Router) { s.router = r }

// versionAt locates the table version in effect at event-time t: the newest
// one, unless t precedes it, and only then a binary search.
func (s *SharedSelection) versionAt(t event.Time) int {
	if last := len(s.versions) - 1; s.versions[last].from <= t {
		return last
	}
	i := sort.Search(len(s.versions), func(i int) bool { return s.versions[i].from > t }) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// OnTuple computes the tuple's query-set through the version's compiled
// predicate index, delivers one result per selection query in the set, in
// slot order, and emits the tuple with the set appended; tuples interesting
// to no query downstream are dropped at the earliest possible point. Fault
// injection does not select the code that classifies: an installed hook is
// consulted entry by entry afterwards, and an entry it strikes loses its bit.
// It counts into the instance's own counters, never into the shared metrics
// block (see selCounters).
func (s *SharedSelection) OnTuple(_ int, t event.Tuple, out *spe.Emitter) {
	vi := s.versionAt(t.Time)
	v := &s.versions[vi]
	s.qsTmp.Reset()
	v.index.classify(s, v, &t, &s.qsTmp)
	if s.faultHook != nil {
		for i := range v.entries {
			if e := &v.entries[i]; !s.hookEntry(e) {
				s.qsTmp.Clear(e.slot)
			}
		}
	}
	if s.qsTmp.IsEmpty() {
		s.cnt.dropped++
		return
	}
	t.QuerySet = s.qsTmp.Clone()
	t.Stream = uint8(s.stream)
	s.cnt.selected++
	if s.router != nil && s.qsTmp.Intersects(v.serveMask) {
		s.row = t
		for i := range v.served {
			if e := &v.served[i]; s.qsTmp.Test(e.slot) {
				s.router.Deliver(Result{QueryID: e.id, Kind: KindSelection, Tuple: &s.row})
			}
		}
		if s.qsTmp.AndNotInPlace(v.serveMask); s.qsTmp.IsEmpty() {
			return
		}
	}
	out.EmitTuple(t)
}

// selCounters is one selection instance's share of its OpMetrics block:
// plain words only the instance's goroutine touches per tuple, added to the
// block with one atomic add each by publish. Co-located instances share the
// block, and a per-tuple atomic there would be a cross-core write to one
// cache line for every tuple; adding deltas, not storing totals, keeps a
// block shared by several logics correct.
type selCounters struct {
	selected uint64
	dropped  uint64
}

// publish adds what the instance counted since its last publish to m and
// restarts the count.
func (c *selCounters) publish(m *OpMetrics) {
	if m == nil || c.selected+c.dropped == 0 {
		return
	}
	atomic.AddUint64(&m.Selected, c.selected)
	atomic.AddUint64(&m.Dropped, c.dropped)
	*c = selCounters{}
}

// evalEntry evaluates one predicate, converting a panic (a buggy ad-hoc
// predicate) into a non-match reported to the engine. Functional isolation:
// a panicking predicate affects only its own query's results, never the
// co-hosted queries sharing this instance.
func (s *SharedSelection) evalEntry(e *selEntry, t *event.Tuple) (matched bool) {
	defer s.isolate(e, &matched)
	return e.pred.Eval(t)
}

// hookEntry runs the injected fault hook for one entry behind the same
// isolation boundary and reports whether the entry survived it.
func (s *SharedSelection) hookEntry(e *selEntry) (ok bool) {
	defer s.isolate(e, &ok)
	s.faultHook.BeforePredicate(s.stream, e.id)
	return true
}

// isolate is the deferred half of the boundary: a panic becomes a false
// result and a strike against the entry's query.
func (s *SharedSelection) isolate(e *selEntry, ok *bool) {
	if pv := recover(); pv != nil {
		*ok = false
		if s.onPredPanic != nil {
			s.onPredPanic(e.id, pv)
		}
	}
}

// OnChangelog installs the new query table version and compiles its
// predicate index (control path: the index build runs here, never per
// tuple). An entry carries over, compiled form and all, iff the changelog-set
// holds its slot — the slots whose query is the same before and after — and
// each created query reading this stream adds one, compiled here.
func (s *SharedSelection) OnChangelog(payload any, at event.Time, _ *spe.Emitter) {
	msg := payload.(*ChangelogMsg)
	cur := s.versions[len(s.versions)-1].entries
	next := make([]selEntry, 0, len(cur)+len(msg.CL.Created))
	for _, e := range cur {
		if msg.CL.Set.Test(e.slot) {
			next = append(next, e)
		}
	}
	for _, c := range msg.CL.Created {
		q := msg.Defs[c.Query]
		if q == nil || s.stream >= q.Arity {
			continue // query does not read this stream
		}
		next = append(next, newSelEntry(c.Slot, c.Query, q.Kind == KindSelection, q.Predicates[s.stream]))
	}
	s.versions = append(s.versions, selVersion{from: at, entries: next})
	s.compile(&s.versions[len(s.versions)-1])
	s.cnt.publish(s.metrics)
}

// compile derives a new version's predicate index and served entries from
// its entry table.
func (s *SharedSelection) compile(v *selVersion) {
	if s.metrics != nil {
		atomic.AddUint64(&s.metrics.IndexBuilds, 1)
	}
	v.index = buildSelIndex(v.entries)
	for _, e := range v.entries {
		if e.serve {
			v.served = append(v.served, e)
			v.serveMask.Set(e.slot)
		}
	}
	sort.Slice(v.served, func(i, j int) bool { return v.served[i].slot < v.served[j].slot })
}

// rebuildIndexes recompiles every version from its entry table: the
// repopulation path for the derived fields, called by Restore.
func (s *SharedSelection) rebuildIndexes() {
	for i := range s.versions {
		s.compile(&s.versions[i])
	}
}

// installTable compiles entries into the whole table, one version active
// from MinTime (benchmarks and tests; production tables arrive via OnChangelog).
func (s *SharedSelection) installTable(entries []selEntry) {
	for i, e := range entries {
		entries[i] = newSelEntry(e.slot, e.id, e.serve, e.pred)
	}
	s.versions = []selVersion{{from: event.MinTime, entries: entries}}
	s.rebuildIndexes()
}

// IndexStats reports the compiled-index composition of the newest table
// version. Tests, benchmarks, and QoS reporting; call at a quiescent point.
func (s *SharedSelection) IndexStats() SelIndexStats {
	return s.versions[len(s.versions)-1].index.stats
}

// OnWatermark prunes table versions that no in-flight tuple can reference
// and publishes the instance's counters: a mid-run reader of the metrics
// block lags this instance by at most one watermark interval.
func (s *SharedSelection) OnWatermark(wm event.Time, _ *spe.Emitter) {
	horizon := wm - s.lateness
	// Keep the last version with from ≤ horizon and everything later.
	i := sort.Search(len(s.versions), func(i int) bool { return s.versions[i].from > horizon }) - 1
	if i > 0 {
		n := copy(s.versions, s.versions[i:])
		clear(s.versions[n:])
		s.versions = s.versions[:n]
	}
	s.cnt.publish(s.metrics)
}

// OnEOS publishes the instance's last counts, so after Engine.Drain the
// metrics block is exact.
func (s *SharedSelection) OnEOS(*spe.Emitter) { s.cnt.publish(s.metrics) }

// OpMetrics aggregates shared-operator cost counters across instances; every
// field is read and written through sync/atomic. Selected and Dropped are
// counted by each selection instance on its own and added here when it
// returns from a watermark, changelog or end-of-stream callback: a reader
// during a run sees them as of each instance's last control element, at most
// one watermark interval behind, and exactly after Engine.Drain. The other
// counters move per fire, slice pair or result and are added directly.
type OpMetrics struct {
	Selected   uint64 // tuples that matched ≥1 query
	Dropped    uint64 // tuples matching no query
	Late       uint64 // tuples behind an evicted slice
	JoinedOut  uint64 // join results produced
	AggOut     uint64 // aggregation rows produced
	PairsDone  uint64 // slice pairs joined (cache misses)
	PairsReuse uint64 // slice-pair results reused from cache
	// IndexBuilds counts predicate-index compilations (changelog/restore):
	// all index construction cost lands here, never on the tuple path.
	IndexBuilds uint64
}

// NewOpMetrics creates a metrics block. The argument is unused: the block
// counts and keeps no clock.
func NewOpMetrics(func() int64) *OpMetrics { return &OpMetrics{} }
