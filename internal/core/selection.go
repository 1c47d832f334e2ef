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

// StoreSwitch is the §3.2.3 marker the shared session attaches to a
// changelog when the active-query count crosses the grouped-store threshold:
// downstream joins switch every slice's data structure and resume.
type StoreSwitch uint8

const (
	// SwitchNone leaves slice stores as they are.
	SwitchNone StoreSwitch = iota
	// SwitchGrouped switches slice stores to query-set grouping.
	SwitchGrouped
	// SwitchList switches slice stores to flat lists.
	SwitchList
)

// ChangelogMsg is the changelog payload woven through the engine's streams:
// the slot-level changelog plus the compiled definitions of the queries it
// creates. Operators treat it as immutable shared state.
type ChangelogMsg struct {
	CL *changelog.Changelog
	// Defs maps created query IDs to their compiled definitions.
	Defs map[int]*Query
	// Switch, when not SwitchNone, is the §3.2.3 store-layout marker.
	Switch StoreSwitch
}

// ChangelogSeq implements spe.ChangelogPayload.
func (m *ChangelogMsg) ChangelogSeq() uint64 { return m.CL.Seq }

// selEntry is one active query's predicate on this stream.
type selEntry struct {
	slot int
	id   int // engine query ID, for quarantine attribution
	pred expr.Predicate
}

// predicateHook is the fault-injection seam for predicate evaluation: the
// engine installs the configured fault plan here so a seeded schedule can
// make a specific query's predicate panic deterministically.
type predicateHook interface {
	BeforePredicate(stream, queryID int)
}

// selVersion is the query table in effect from a given event-time.
type selVersion struct {
	from    event.Time
	entries []selEntry
}

// SharedSelection computes each tuple's query-set and appends it as the
// extra column (paper §3.1.2). It keeps the query table versioned by
// event-time so out-of-order tuples are classified against the workload
// that was active at *their* time, which is what makes replays and
// out-of-order processing consistent (§3.3).
type SharedSelection struct {
	spe.BaseLogic
	//lint:ephemeral constructor wiring, identical on the recovered instance
	stream   int // which engine stream this instance filters
	versions []selVersion
	// indexes[i] is the compiled predicate index for versions[i] (DESIGN.md
	// §14); the two slices always have equal length and no element is nil.
	//lint:ephemeral derived compiled predicate index, recompiled from the versioned entry table by rebuildIndexes on Restore
	indexes []*selIndex
	// entryPool recycles entry-table backing arrays from watermark-pruned
	// versions into future changelogs, bounding control-path churn.
	//lint:ephemeral control-path scratch: recycled entry-slice capacity, content dead
	entryPool [][]selEntry //lint:pooled freelist recycled entry-slice backings
	// delScratch is the deletion lookup reused across changelogs with large
	// Deleted sets; cleared after each use.
	//lint:ephemeral control-path scratch, cleared after every changelog
	delScratch map[int]struct{} //lint:pooled scratch per-changelog deletion lookup scratch
	//lint:ephemeral constructor wiring (metrics sink)
	metrics *OpMetrics
	//lint:ephemeral constructor wiring (allowed-lateness config)
	lateness event.Time
	wm       event.Time
	// qsTmp is the per-tuple query-set scratch: predicates set bits here
	// and the emitted tuple gets a right-sized Clone, so wide query sets
	// (>64 slots) cost one allocation per emitted tuple instead of one per
	// spill growth, and narrow sets cost none.
	//lint:ephemeral per-tuple scratch, rebuilt from zero on the next tuple
	qsTmp bitset.Bits //lint:pooled scratch per-tuple query-set scratch
	// onPredPanic, when set, receives predicate-evaluation panics so the
	// engine can count strikes and quarantine the offending query instead of
	// letting one bad ad-hoc predicate take down the shared pipeline.
	//lint:ephemeral supervision hook wired by the engine, not stream state
	onPredPanic func(queryID int, v any)
	// faultHook, when set, is called once per (tuple, active entry) (seeded
	// fault injection); an entry whose call panics matches nothing on that
	// tuple.
	//lint:ephemeral test-only fault injection hook
	faultHook predicateHook
}

// NewSharedSelection constructs the logic for one instance.
func NewSharedSelection(stream int, lateness event.Time, m *OpMetrics) *SharedSelection {
	return &SharedSelection{
		stream:   stream,
		versions: []selVersion{{from: event.MinTime}},
		// The empty initial table gets a (trivial) compiled index so the
		// versions/indexes alignment invariant holds from birth.
		indexes:  []*selIndex{buildSelIndex(nil)},
		metrics:  m,
		lateness: lateness,
		wm:       event.MinTime,
	}
}

// versionAt locates the table version in effect at event-time t.
//
//lint:hotpath
func (s *SharedSelection) versionAt(t event.Time) int {
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(s.versions), func(i int) bool { return s.versions[i].from > t }) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// OnTuple computes the tuple's query-set through the version's compiled
// predicate index and emits the tuple with the set appended; tuples
// interesting to no query are dropped at the earliest possible point. Fault
// injection does not select the code that classifies: an installed hook is
// consulted entry by entry afterwards, and an entry it strikes loses its bit.
//
//lint:hotpath
func (s *SharedSelection) OnTuple(_ int, t event.Tuple, out *spe.Emitter) {
	tick := s.metrics.start()
	vi := s.versionAt(t.Time)
	v := &s.versions[vi]
	s.qsTmp.Reset()
	s.indexes[vi].classify(s, v, &t, &s.qsTmp)
	if s.faultHook != nil {
		for i := range v.entries {
			if e := &v.entries[i]; !s.hookEntry(e) {
				s.qsTmp.Clear(e.slot)
			}
		}
	}
	s.metrics.QuerySetGen.observe(tick, s.metrics)
	if s.qsTmp.IsEmpty() {
		atomic.AddUint64(&s.metrics.Dropped, 1)
		return
	}
	t.QuerySet = s.qsTmp.Clone()
	t.Stream = uint8(s.stream)
	atomic.AddUint64(&s.metrics.Selected, 1)
	out.EmitTuple(t)
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

// smallDeleteScan bounds the deletion-set size handled by a linear probe of
// the Deleted slice; larger sets build the reusable lookup map instead.
const smallDeleteScan = 8

// entryPoolCap bounds how many pruned entry-table backings are kept for
// reuse.
const entryPoolCap = 8

// OnChangelog installs the new query table version and compiles its
// predicate index (control path: the index build runs here, never per
// tuple). The common ad-hoc case — creations only, no deletions — copies
// the previous table without building any deletion set, into capacity
// recycled from watermark-pruned versions.
func (s *SharedSelection) OnChangelog(payload any, at event.Time, _ *spe.Emitter) {
	msg := payload.(*ChangelogMsg)
	cur := &s.versions[len(s.versions)-1]
	next := selVersion{from: at, entries: s.takeEntries(len(cur.entries) + len(msg.CL.Created))}
	switch {
	case len(msg.CL.Deleted) == 0:
		next.entries = append(next.entries, cur.entries...)
	case len(msg.CL.Deleted) <= smallDeleteScan:
		for _, e := range cur.entries {
			if !slotDeleted(msg.CL, e.slot) {
				next.entries = append(next.entries, e)
			}
		}
	default:
		if s.delScratch == nil {
			s.delScratch = make(map[int]struct{}, len(msg.CL.Deleted))
		}
		for _, d := range msg.CL.Deleted {
			s.delScratch[d.Slot] = struct{}{}
		}
		for _, e := range cur.entries {
			if _, del := s.delScratch[e.slot]; !del {
				next.entries = append(next.entries, e)
			}
		}
		clear(s.delScratch)
	}
	for _, c := range msg.CL.Created {
		q := msg.Defs[c.Query]
		if q == nil || s.stream >= q.Arity {
			continue // query does not read this stream
		}
		next.entries = append(next.entries, selEntry{slot: c.Slot, id: c.Query, pred: q.Predicates[s.stream]})
	}
	s.versions = append(s.versions, next)
	s.indexes = append(s.indexes, s.buildIndex(next.entries))
}

func slotDeleted(cl *changelog.Changelog, slot int) bool {
	for _, d := range cl.Deleted {
		if d.Slot == slot {
			return true
		}
	}
	return false
}

// takeEntries returns an empty entry slice with at least the given
// capacity, recycling a pruned version's backing when one fits.
func (s *SharedSelection) takeEntries(capNeed int) []selEntry {
	for i := len(s.entryPool) - 1; i >= 0; i-- {
		if cap(s.entryPool[i]) >= capNeed {
			e := s.entryPool[i][:0]
			s.entryPool[i] = s.entryPool[len(s.entryPool)-1]
			s.entryPool[len(s.entryPool)-1] = nil
			s.entryPool = s.entryPool[:len(s.entryPool)-1]
			return e
		}
	}
	if capNeed < 4 {
		capNeed = 4
	}
	return make([]selEntry, 0, capNeed)
}

// buildIndex compiles entries into a predicate index.
func (s *SharedSelection) buildIndex(entries []selEntry) *selIndex {
	if s.metrics != nil {
		atomic.AddUint64(&s.metrics.IndexBuilds, 1)
	}
	return buildSelIndex(entries)
}

// rebuildIndexes recompiles every version's index from its entry table:
// the repopulation path for the derived indexes field, called by Restore.
func (s *SharedSelection) rebuildIndexes() {
	s.indexes = make([]*selIndex, len(s.versions))
	for i := range s.versions {
		s.indexes[i] = s.buildIndex(s.versions[i].entries)
	}
}

// installTable replaces the whole table with one version active from
// MinTime (benchmarks and tests; production tables arrive via OnChangelog).
func (s *SharedSelection) installTable(entries []selEntry) {
	s.versions = []selVersion{{from: event.MinTime, entries: entries}}
	s.rebuildIndexes()
}

// IndexStats reports the compiled-index composition of the newest table
// version. Tests, benchmarks, and QoS reporting; call at a quiescent point
// like ActiveEntries.
func (s *SharedSelection) IndexStats() SelIndexStats {
	return s.indexes[len(s.indexes)-1].stats
}

// OnWatermark prunes table versions that no in-flight tuple can reference,
// recycling their entry backings into the changelog pool.
func (s *SharedSelection) OnWatermark(wm event.Time, _ *spe.Emitter) {
	s.wm = wm
	horizon := wm - s.lateness
	// Keep the last version with from ≤ horizon and everything later.
	i := sort.Search(len(s.versions), func(i int) bool { return s.versions[i].from > horizon }) - 1
	if i > 0 {
		n := len(s.versions)
		for j := 0; j < i; j++ {
			if e := s.versions[j].entries; cap(e) > 0 && len(s.entryPool) < entryPoolCap {
				clear(e[:cap(e)])
				s.entryPool = append(s.entryPool, e[:0])
			}
			s.versions[j] = selVersion{}
		}
		copy(s.versions, s.versions[i:])
		copy(s.indexes, s.indexes[i:])
		for j := n - i; j < n; j++ {
			s.versions[j] = selVersion{}
			s.indexes[j] = nil
		}
		s.versions = s.versions[:n-i]
		s.indexes = s.indexes[:n-i]
	}
}

// ActiveEntries reports the current predicate count (tests/metrics).
func (s *SharedSelection) ActiveEntries() int {
	return len(s.versions[len(s.versions)-1].entries)
}

// OpMetrics aggregates shared-operator cost counters across instances; all
// exported fields are atomics. Component timings (Fig. 18a) are sampled:
// every sampleEvery-th operation is timed and scaled up, using the engine's
// injected clock so simulated-time tests stay deterministic.
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

	QuerySetGen componentTimer // shared selection predicate evaluation
	BitsetOps   componentTimer // masking/intersection during triggers
	RouterCopy  componentTimer // per-query result copying in the router

	ops      uint64       // sampling clock
	nowNanos func() int64 // injected clock; nil disables timing samples
}

// NewOpMetrics creates a metrics block sampling component timings with the
// given clock (the engine passes its Config.NowNanos). A zero-value
// OpMetrics still counts but never samples timings.
func NewOpMetrics(nowNanos func() int64) *OpMetrics {
	return &OpMetrics{nowNanos: nowNanos}
}

const sampleEvery = 64

// start returns a clock tick on sampled operations, else 0.
func (m *OpMetrics) start() int64 {
	if m == nil || m.nowNanos == nil {
		return 0
	}
	if atomic.AddUint64(&m.ops, 1)%sampleEvery != 0 {
		return 0
	}
	return m.nowNanos()
}

type componentTimer struct {
	Nanos uint64 // sampled nanos, scaled by sampleEvery
	Count uint64
}

func (c *componentTimer) observe(tick int64, m *OpMetrics) {
	if m == nil {
		return
	}
	atomic.AddUint64(&c.Count, 1)
	if tick == 0 {
		return
	}
	d := m.nowNanos() - tick
	if d < 0 {
		d = 0
	}
	atomic.AddUint64(&c.Nanos, uint64(d)*sampleEvery)
}

// NanosEstimate returns the scaled nanosecond estimate for the component.
func (c *componentTimer) NanosEstimate() uint64 { return atomic.LoadUint64(&c.Nanos) }
