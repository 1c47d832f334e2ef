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

// benchStore fills a slice store with n tuples whose query-sets are drawn
// from slotCount slots.
func benchStore(n, slotCount int) *sliceStore {
	s := &sliceStore{}
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
				j := NewSharedJoin(0, 0, 0, router, NewOpMetrics(nil))
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
				trigs := []*trigger{{ext: window.Extent{Start: 0, End: 400}, queries: j.win.queries.ordered}}
				// Join and cache the pairs, and warm the fire scratch, once.
				j.fireEnd(trigs, nil)
				return func(iters int) {
					for i := 0; i < iters; i++ {
						j.fireEnd(trigs, nil)
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
			// hash dispatch, one-sided ranges on a cut table, and a
			// two-field chain verified on a segment no tuple reaches. Matching
			// tuples select only slots 0–63 so the emitted query-set stays on
			// the inline (allocation-free) path.
			Name: "selection-512q-overlap",
			New: func() func(int) {
				sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
				sel.installTable(overlapEntries(512))
				em := &spe.Emitter{}
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
			// The selection answering its own queries (DESIGN.md §14): 64
			// entries, the even slots selection queries on F0 and the odd
			// ones aggregation queries on F1. A tuple delivers one result
			// per selection query it matches through the router to counting
			// sinks; one no aggregation query wants stops there, the others
			// are emitted with their whole set.
			Name: "selection-serve-64q",
			New: func() func(int) {
				router := NewRouter(NewOpMetrics(nil))
				sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
				sel.SetRouter(router)
				entries := make([]selEntry, 64)
				for s := range entries {
					entries[s] = selEntry{slot: s, id: s + 1, serve: s%2 == 0,
						pred: expr.True().And(expr.Comparison{Field: s % 2, Op: expr.LT, Value: int64(300 + 10*s)})}
					if entries[s].serve {
						router.Register(s+1, NewCountingSink(func() int64 { return 0 }, 64))
					}
				}
				em := &spe.Emitter{}
				sel.installTable(entries)
				return func(iters int) {
					for i := 0; i < iters; i++ {
						sel.OnTuple(0, benchTuple(i, bitset.Bits{}, 50), em)
					}
				}
			},
		},
		{Name: "agg-ontuple-64q", New: aggOnTuple(64, false)},
		// Query-sets up to eight words wide: 512 groups in the one open
		// slice, each tuple finding its group by hash and Bits.Equal.
		{Name: "agg-ontuple-512q-wide", New: aggOnTuple(512, true)},
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
				// The timed tuples land in [700,800), which the fill above
				// leaves empty: give it their 32 keys now, or each of the
				// first 32 iterations brings a new key, unseals the slice and
				// re-seals it into a fresh row backing.
				for i := 0; i < 32; i++ {
					agg.OnTuple(0, benchTuple(i, qs, 799), em)
				}
				ext := window.Extent{Start: 0, End: 800}
				// Seal the slices and warm the trigger, block and row scratch.
				agg.fireBench(ext)
				return func(iters int) {
					for i := 0; i < iters; i++ {
						agg.OnTuple(0, benchTuple(i, qs, 799), em)
						agg.fireBench(ext)
					}
				}
			},
		},
		{
			// The fire in the ledger's shared64 shape: 64 SUM queries over a
			// 2000/500 sliding window in eight predicate patterns of eight,
			// tuples over 200 keys each selected by TRUE's pattern and a draw
			// of the other seven — 32 query-set groups per slice, where
			// windowfire-64q-slide8 has one — sealed into eight classes. One
			// trigger, eight blocks, four sealed slices each merging one
			// class's rows into each block, 12 800 rows out; each iteration
			// first folds a late tuple into a sealed slice's rows in place.
			Name: "windowfire-64q-200keys",
			New: func() func(int) {
				agg := benchAggWindow(64, window.SlidingSpec(2000, 500))
				var sets [32]bitset.Bits
				for m := range sets {
					// Pattern p holds slots p, p+8, …, p+56; TRUE (p = 0)
					// selects every tuple.
					for p := 0; p < 8; p++ {
						if p == 0 || (m*0x9E)>>p&1 == 1 {
							for s := p; s < 64; s += 8 {
								sets[m].Set(s)
							}
						}
					}
				}
				tuple := func(i int, at event.Time) event.Tuple {
					t := benchTuple(i, sets[(i*7+i/200)%len(sets)], at)
					t.Key = int64(i % 200)
					return t
				}
				em := &spe.Emitter{}
				for i := 0; i < 4000; i++ {
					agg.OnTuple(0, tuple(i, event.Time(i/2)), em)
				}
				ext := window.Extent{Start: 0, End: 2000}
				// Seal the slices and warm the trigger, block and row scratch.
				agg.fireBench(ext)
				return func(iters int) {
					for i := 0; i < iters; i++ {
						// A partial [1500,2000) holds since the fill.
						agg.OnTuple(0, tuple(3000+i%1000, 1999), em)
						agg.fireBench(ext)
					}
				}
			},
		},
		{
			// The seal alone (DESIGN.md §15) on the ledger's shared64 shape:
			// 72 query-set groups over the eight predicate patterns, TRUE's in
			// every one, 180 of 200 keys each — 12 960 partials — partitioned
			// into 8 classes, sorted by (key, group), merged into 1 600 class
			// rows and recycled. Each iteration first re-opens the slice from
			// the template through the freelists a fold draws on, then seals
			// it and recycles the rows.
			Name: "seal-64q-200keys",
			New: func() func(int) {
				agg := benchAgg(64)
				var sets [72]bitset.Bits
				for gi := range sets {
					m := gi * 37 % 128 // 72 distinct subsets of the seven other patterns
					for p := 0; p < 8; p++ {
						if p == 0 || m>>(p-1)&1 == 1 {
							for s := p; s < 64; s += 8 {
								sets[gi].Set(s)
							}
						}
					}
				}
				tuple := benchTuple(0, bitset.Bits{}, 0)
				x := &aggIndex{}
				run := func(iters int) {
					for i := 0; i < iters; i++ {
						agg.openIndex(x)
						for gi := range sets {
							g := agg.takeGroup(sets[gi])
							for key := int64(0); key < 200; key++ {
								if (key*7+int64(gi))%10 == 0 {
									continue
								}
								v := agg.getVal()
								v.fold(&tuple)
								g.add(key, v)
							}
							x.open.put(g)
						}
						agg.seal(x)
						agg.dropRows(x)
					}
				}
				// Fill the freelists, group maps and seal scratch once.
				run(1)
				return run
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
			// carried forward by identity. The encoder runs once per
			// barrier, not per tuple, so its allocations are outside the
			// per-tuple contract; TestKernelAllocs still pins its steady
			// state at 0 (the delta must not grow with barriers, only with
			// dirtied state).
			Name: "snapshot-delta-encode-64q",
			New: func() func(int) {
				agg := benchAgg(64)
				qs := bitset.AllUpTo(64)
				em := &spe.Emitter{}
				for i := 0; i < 512; i++ {
					agg.OnTuple(0, benchTuple(i, qs, event.Time(i%100)), em)
				}
				// Anchor the chain with a full link, then warm the buffer
				// capacity once.
				buf := agg.appendLink(nil, 1, true)
				buf = agg.appendLink(buf[:0], 2, false)
				barrier := uint64(2)
				return func(iters int) {
					for i := 0; i < iters; i++ {
						agg.OnTuple(0, benchTuple(i, qs, 50), em)
						barrier++
						buf = agg.appendLink(buf[:0], barrier, false)
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
// dispatch, a one-sided-range group on a cut table, and a
// two-field chain P₀ ⊇ P₁ ⊇ … ⊇ P₇ whose links all dispatch on the same
// F3 interval, which no bench tuple reaches.
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

// aggOnTuple folds the i-th tuple, selected by slots i and 5i and, if wide,
// 11i+300 (mod slots, a power of two), into slots SUM queries' open slice.
func aggOnTuple(slots int, wide bool) func() func(int) {
	return func() func(int) {
		agg := benchAgg(slots)
		var qs bitset.Bits
		em := &spe.Emitter{}
		return func(iters int) {
			for i := 0; i < iters; i++ {
				qs.Reset()
				qs.Set(i & (slots - 1))
				qs.Set(i * 5 & (slots - 1))
				if wide {
					qs.Set((i*11 + 300) & (slots - 1))
				}
				agg.OnTuple(0, benchTuple(i, qs, 50), em)
			}
		}
	}
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
