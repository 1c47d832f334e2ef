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
	stream   int // which engine stream this instance filters
	versions []selVersion
	// indexes[i] is the compiled predicate index for versions[i] (DESIGN.md
	// §14); the two slices always have equal length and no element is nil.
	indexes []*selIndex
	// entryPool recycles entry-table backing arrays from watermark-pruned
	// versions into future changelogs, bounding control-path churn.
	entryPool [][]selEntry
	// delScratch is the deletion lookup reused across changelogs with large
	// Deleted sets; cleared after each use.
	delScratch map[int]struct{}
	metrics    *OpMetrics
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
		versions: []selVersion{{from: event.MinTime}},
		// The empty initial table gets a (trivial) compiled index so the
		// versions/indexes alignment invariant holds from birth.
		indexes:  []*selIndex{buildSelIndex(nil)},
		metrics:  m,
		lateness: lateness,
	}
}

// versionAt locates the table version in effect at event-time t.
func (s *SharedSelection) versionAt(t event.Time) int {
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
// It counts into the instance's own counters, never into the shared metrics
// block (see selCounters).
func (s *SharedSelection) OnTuple(_ int, t event.Tuple, out *spe.Emitter) {
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
	if s.qsTmp.IsEmpty() {
		s.cnt.dropped++
		return
	}
	t.QuerySet = s.qsTmp.Clone()
	t.Stream = uint8(s.stream)
	s.cnt.selected++
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
	s.cnt.publish(s.metrics)
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
// recycling their entry backings into the changelog pool, and publishes the
// instance's counters: a mid-run reader of the metrics block lags this
// instance by at most one watermark interval.
func (s *SharedSelection) OnWatermark(wm event.Time, _ *spe.Emitter) {
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
	s.cnt.publish(s.metrics)
}

// OnEOS publishes the instance's last counts, so after Engine.Drain the
// metrics block is exact.
func (s *SharedSelection) OnEOS(*spe.Emitter) { s.cnt.publish(s.metrics) }

// ActiveEntries reports the current predicate count (tests/metrics).
func (s *SharedSelection) ActiveEntries() int {
	return len(s.versions[len(s.versions)-1].entries)
}

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
