package core

import (
	"fmt"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// KernelBench is one hot-path kernel exposed for benchmarking (and for the
// steady-state allocation guards): New builds the kernel's state once and
// returns a run function executing the kernel iters times against it.
// cmd/astream-bench and the *_test.go files drive these; keeping the
// workloads here lets both share one definition of "the hot path".
type KernelBench struct {
	Name string
	New  func() func(iters int)
}

// benchTuple builds the i-th deterministic workload tuple.
func benchTuple(i int, qs bitset.Bits, at event.Time) event.Tuple {
	t := event.Tuple{
		Key:      int64(i % 32),
		Time:     at,
		QuerySet: qs,
	}
	for f := range t.Fields {
		t.Fields[f] = int64((i*7 + f*13) % 1000)
	}
	return t
}

// benchStore fills a grouped slice store with n tuples spread over
// query-set groups drawn from slotCount slots.
func benchStore(n, slotCount int) *sliceStore {
	s := newSliceStore(StoreGrouped)
	for i := 0; i < n; i++ {
		var qs bitset.Bits
		qs.Set(i % slotCount)
		qs.Set((i * 3) % slotCount)
		s.Add(benchTuple(i, qs, event.Time(i%100)))
	}
	return s
}

// KernelBenchmarks enumerates the shared-operator kernels measured by the
// perf harness. Steady state of every run function is allocation-free
// (guarded by TestKernelAllocs).
func KernelBenchmarks() []KernelBench {
	return []KernelBench{
		{
			// One slice pair joined from scratch against a standing key
			// index: 512 probes into the other store's chains, the rows
			// written over a reused buffer.
			Name: "join-kernel-512x512-64q",
			New: func() func(int) {
				a := benchStore(512, 64)
				b := benchStore(512, 64)
				mask := bitset.AllUpTo(64)
				var tmp bitset.Bits
				// Build the index and warm the row capacity once.
				rows := joinStores(a, b, mask, &tmp, nil)
				//lint:hotpath join kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						rows = joinStores(a, b, mask, &tmp, rows[:0])
					}
				}
			},
		},
		{
			// The join's delivery path (DESIGN.md §15): one trigger of 16
			// terminal queries over a 400/100 sliding window whose 16 slice
			// pairs are cached — 128 pair rows, each effective for every
			// query, so 2048 rows leave for counting sinks per iteration and
			// nothing is joined.
			Name: "join-fire-cached-16q",
			New: func() func(int) {
				router := NewRouter(NewOpMetrics(nil))
				j := NewSharedJoin(0, StoreList, 0, router, NewOpMetrics(nil))
				msg := benchChangelog(16, Query{
					Kind: KindJoin, Arity: 2, AggField: -1,
					Predicates: []expr.Predicate{expr.True(), expr.True()},
					Window:     window.SlidingSpec(400, 100),
				})
				for id := range msg.Defs {
					router.Register(id, NewCountingSink(func() int64 { return 0 }, 1))
				}
				j.OnChangelog(msg, 0, nil)
				qs := bitset.AllUpTo(16)
				for i := 0; i < 64; i++ {
					t := benchTuple(i, qs, event.Time(i/2*25%400))
					t.Key = int64(i / 2 % 8)
					j.OnTuple(i%2, t, nil)
				}
				ext := window.Extent{Start: 0, End: 400}
				queries := j.win.queries.ordered
				// Join and cache the pairs, and warm the trigger scratch, once.
				j.fireWindow(ext, queries, nil)
				//lint:hotpath join fire kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						j.fireWindow(ext, queries, nil)
					}
				}
			},
		},
		{
			Name: "selection-ontuple-64q",
			New: func() func(int) {
				sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
				entries := make([]selEntry, 64)
				for s := range entries {
					entries[s] = selEntry{
						slot: s,
						pred: expr.True().And(expr.Comparison{Field: 0, Op: expr.LT, Value: 900}),
					}
				}
				sel.installTable(entries)
				em := &spe.Emitter{}
				//lint:hotpath selection kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						sel.OnTuple(0, benchTuple(i, bitset.Bits{}, 50), em)
					}
				}
			},
		},
		{
			// The paper's high-query-count regime: 512 ad-hoc queries drawn
			// from a handful of templates, exercising every index layer —
			// 64-way duplication folded to one node, point predicates on the
			// hash dispatch, one-sided ranges on the stabbing index, and a
			// multi-field containment chain pruned at its root. Matching
			// tuples select only slots 0–63 so the emitted query-set stays on
			// the inline (allocation-free) path.
			Name: "selection-512q-overlap",
			New: func() func(int) {
				sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
				sel.installTable(overlapEntries(512))
				em := &spe.Emitter{}
				//lint:hotpath selection index kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						sel.OnTuple(0, benchTuple(i, bitset.Bits{}, 50), em)
					}
				}
			},
		},
		{
			// The ad-hoc regime of the ledger's churn512: 512 queries each
			// pinned to its own key, every second one with a residual range.
			// A tuple reaches the one node in its key's bucket and verifies
			// at most one residual, whatever the query count. Bench tuples
			// cycle through the keys of slots 0–63 so the emitted query-set
			// stays on the inline (allocation-free) path.
			Name: "selection-512q-keyed",
			New: func() func(int) {
				sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
				sel.installTable(keyedEntries(512))
				em := &spe.Emitter{}
				//lint:hotpath selection index kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						t := benchTuple(i, bitset.Bits{}, 50)
						t.Key = keyedKey(i % 64)
						sel.OnTuple(0, t, em)
					}
				}
			},
		},
		{
			Name: "agg-ontuple-64q",
			New: func() func(int) {
				agg := benchAgg(64)
				var qs bitset.Bits
				em := &spe.Emitter{}
				//lint:hotpath aggregation kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						qs.Reset()
						qs.Set(i % 64)
						qs.Set((i * 5) % 64)
						agg.OnTuple(0, benchTuple(i, qs, 50), em)
					}
				}
			},
		},
		{
			// The window-fire path (DESIGN.md §15) in a sliding regime: 64
			// SUM queries over an 800/100 sliding window (slide ratio 8),
			// fired once per iteration after folding one fresh tuple. All
			// 64 queries coalesce into one trigger and, sharing every
			// group, into one equivalence block: 8 slices merge once, not
			// once per query.
			Name: "windowfire-64q-slide8",
			New: func() func(int) {
				agg := benchAggWindow(64, window.SlidingSpec(800, 100))
				qs := bitset.AllUpTo(64)
				em := &spe.Emitter{}
				for i := 0; i < 512; i++ {
					agg.OnTuple(0, benchTuple(i, qs, event.Time(i%800)), em)
				}
				ext := window.Extent{Start: 0, End: 800}
				// Warm the trigger, block, and accumulator pools once.
				agg.fireBench(ext)
				//lint:hotpath window-fire kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						agg.OnTuple(0, benchTuple(i, qs, 799), em)
						agg.fireBench(ext)
					}
				}
			},
		},
		{
			// The fused sel→agg chain exactly as Deploy wires it for
			// single-stream engines: selection stamps the query set, the
			// chained emitter direct-calls the aggregation — no channel, no
			// batch buffer between them.
			Name: "chain-sel-agg-64q",
			New: func() func(int) {
				sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
				entries := make([]selEntry, 64)
				for s := range entries {
					entries[s] = selEntry{
						slot: s,
						pred: expr.True().And(expr.Comparison{Field: 0, Op: expr.LT, Value: 900}),
					}
				}
				sel.installTable(entries)
				agg := benchAgg(64)
				em := spe.NewChainedEmitter(agg, &spe.Emitter{})
				//lint:hotpath fused chain kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						sel.OnTuple(0, benchTuple(i, bitset.Bits{}, 50), em)
					}
				}
			},
		},
		{
			// The incremental-snapshot encoder at a durable checkpoint: one
			// slice dirtied since the previous barrier, everything else
			// carried forward by identity. Deliberately NOT //lint:hotpath:
			// the encoder runs once per barrier, not per tuple, so the
			// hotalloc analyzer's per-tuple allocation rules do not apply —
			// the steady-state allocation bar is pinned by TestKernelAllocs
			// instead (the delta must not grow with barriers, only with
			// dirtied state).
			Name: "snapshot-delta-encode-64q",
			New: func() func(int) {
				agg := benchAgg(64)
				qs := bitset.AllUpTo(64)
				em := &spe.Emitter{}
				for i := 0; i < 512; i++ {
					agg.OnTuple(0, benchTuple(i, qs, event.Time(i%100)), em)
				}
				// Anchor the chain as OnBarrierDelta would: baseline every
				// slice's fold counter, then warm the buffer capacity once.
				agg.noteSnapshot(true)
				buf := agg.appendDelta(nil)
				return func(iters int) {
					for i := 0; i < iters; i++ {
						agg.OnTuple(0, benchTuple(i, qs, 50), em)
						buf = agg.appendDelta(buf[:0])
					}
				}
			},
		},
		{
			Name: "bitset-and-into-128bit",
			New: func() func(int) {
				a := bitset.FromIndexes(1, 3, 64, 90, 120)
				b := bitset.FromIndexes(3, 64, 119, 120)
				var dst bitset.Bits
				//lint:hotpath bitset kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						a.AndInto(b, &dst)
					}
				}
			},
		},
		{
			Name: "router-deliver",
			New: func() func(int) {
				r := NewRouter(NewOpMetrics(nil))
				var n uint64
				r.Register(7, SinkFunc(func(Result) { n++ }))
				res := Result{QueryID: 7, Kind: KindSelection}
				//lint:hotpath router kernel steady state
				return func(iters int) {
					for i := 0; i < iters; i++ {
						r.Deliver(res)
					}
				}
			},
		},
	}
}

// overlapEntries builds n template-generated predicates the way ad-hoc
// workloads produce them — few templates, many subscribers. Slots 0..n/8-1
// share one wide range template (matches ~90% of bench tuples; folds to a
// single index node). The rest never match a bench tuple but must be
// proven non-matching cheaply: a point-template group on the hash
// dispatch, a one-sided-range group on the stabbing index, and a
// two-field chain P₀ ⊇ P₁ ⊇ … ⊇ P₇ whose links all dispatch on the same
// F3 interval, which no bench tuple stabs.
func overlapEntries(n int) []selEntry {
	entries := make([]selEntry, n)
	for s := range entries {
		var p expr.Predicate
		switch {
		case s < n/8:
			p = expr.True().And(expr.Comparison{Field: 0, Op: expr.LE, Value: 900})
		case s < n/2:
			p = expr.True().And(expr.Comparison{Field: 1, Op: expr.EQ, Value: int64(2000 + s%32)})
		case s < 3*n/4:
			p = expr.True().And(expr.Comparison{Field: 2, Op: expr.GE, Value: int64(2000 + (s%16)*10)})
		default:
			d := int64(s % 8)
			p = expr.True().
				And(expr.Comparison{Field: 3, Op: expr.GE, Value: 1500}).
				And(expr.Comparison{Field: 4, Op: expr.GE, Value: 1500 + 10*d})
		}
		entries[s] = selEntry{slot: s, id: s + 1, pred: p}
	}
	return entries
}

// keyedKey is the key the i-th keyed predicate is pinned to; distinct for
// i < 1000 (7919 and 1000 are coprime).
func keyedKey(i int) int64 { return int64(7919*i) % 1000 }

// keyedEntries builds n predicates in the shape of the ledger's churn512
// population: KEY = keyedKey(i), every odd i ANDed with a one-sided range on
// one payload field.
func keyedEntries(n int) []selEntry {
	entries := make([]selEntry, n)
	for i := range entries {
		p := expr.True().And(expr.Comparison{Field: expr.KeyField, Op: expr.EQ, Value: keyedKey(i)})
		if i%2 == 1 {
			p = p.And(expr.Comparison{Field: i % 5, Op: expr.LT, Value: int64(200 + (37*i)%700)})
		}
		entries[i] = selEntry{slot: i, id: i + 1, pred: p}
	}
	return entries
}

// benchAgg builds a SharedAggregation with slots tumbling-window SUM queries
// registered through a real changelog, ready for steady-state OnTuple calls.
func benchAgg(slots int) *SharedAggregation {
	return benchAggWindow(slots, window.TumblingSpec(100))
}

// benchAggWindow builds a SharedAggregation with slots SUM queries over spec,
// registered through a real changelog.
func benchAggWindow(slots int, spec window.Spec) *SharedAggregation {
	router := NewRouter(NewOpMetrics(nil))
	agg := NewSharedAggregation(1, 0, router, NewOpMetrics(nil))
	agg.OnChangelog(benchChangelog(slots, Query{
		Kind:       KindAggregation,
		Arity:      1,
		Predicates: []expr.Predicate{expr.True()},
		Window:     spec,
		Agg:        sqlstream.AggSum,
		AggField:   0,
	}), 0, nil)
	return agg
}

// benchChangelog is the changelog creating slots copies of proto, IDs 1 to
// slots, at time 0.
func benchChangelog(slots int, proto Query) *ChangelogMsg {
	reg := changelog.NewRegistry(changelog.SlotReuse)
	defs := map[int]*Query{}
	ids := make([]int, slots)
	for s := range ids {
		q := proto
		q.ID = s + 1
		defs[q.ID] = &q
		ids[s] = q.ID
	}
	cl, err := reg.Apply(0, ids, nil)
	if err != nil {
		panic(fmt.Sprintf("core: bench changelog: %v", err))
	}
	return &ChangelogMsg{CL: cl, Defs: defs}
}
