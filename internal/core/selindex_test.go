package core

import (
	"fmt"
	"math/rand"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
)

// These tests pin the predicate index's one contract (DESIGN.md §14): for
// every predicate set and every tuple — in or out of order — indexed
// classification produces the exact query-set and the exact quarantine
// attributions of the naive per-entry scan it replaced.

// scanEntries is the naive per-entry classification the index replaced:
// every active predicate evaluated behind its own isolation boundary. It is
// the reference the index is held to, bit for bit.
func scanEntries(s *SharedSelection, v *selVersion, t *event.Tuple, qs *bitset.Bits) {
	for i := range v.entries {
		e := &v.entries[i]
		if s.evalEntry(e, t) {
			qs.Set(e.slot)
		}
	}
}

// scanTuple classifies t into s.qsTmp the way OnTuple does, through the
// reference scan instead of the version's index.
func scanTuple(s *SharedSelection, t event.Tuple) {
	s.qsTmp.Reset()
	scanEntries(s, &s.versions[s.versionAt(t.Time)], &t, &s.qsTmp)
}

// strikeHook is a fault hook that panics for one query and counts its calls.
type strikeHook struct {
	query int
	calls map[int]int
}

func (h *strikeHook) BeforePredicate(_, queryID int) {
	h.calls[queryID]++
	if queryID == h.query {
		panic("injected")
	}
}

// randIndexPred draws predicates the way adversarial ad-hoc workloads look:
// duplicated templates, contained intervals, contradictions, multi-field
// conjunctions, NE holes, key-field constraints, invalid-field predicates
// that panic data-dependently under naive evaluation, and the conjunction
// shapes of randConjunction.
func randIndexPred(r *rand.Rand, templates []expr.Predicate) expr.Predicate {
	if len(templates) > 0 && r.Intn(100) < 30 {
		return templates[r.Intn(len(templates))] // duplicate an earlier predicate
	}
	if r.Intn(100) < 35 {
		return randConjunction(r)
	}
	p := expr.True()
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		field := r.Intn(event.NumFields+1) - 1 // KeyField..NumFields-1
		if r.Intn(100) < 8 {
			field = event.NumFields + r.Intn(3) // invalid: panics on evaluation
		}
		p = p.And(expr.Comparison{
			Field: field,
			Op:    expr.Op(r.Intn(6)),
			Value: int64(r.Intn(30)),
		})
	}
	return p
}

// randConjunction draws the shapes that dispatch on one constraint and
// verify the rest: an access point or interval plus a residual, with holes
// on either side, and equality buckets shared by different residuals.
func randConjunction(r *rand.Rand) expr.Predicate {
	cmp := func(field int, op expr.Op, v int) expr.Comparison {
		return expr.Comparison{Field: field, Op: op, Value: int64(v)}
	}
	f, g := r.Intn(event.NumFields), r.Intn(event.NumFields)
	v := r.Intn(30)
	rangeOps := []expr.Op{expr.LT, expr.LE, expr.GT, expr.GE}
	rangeOp := rangeOps[r.Intn(len(rangeOps))]
	switch r.Intn(5) {
	case 0: // key equality ∧ range
		return expr.True().And(cmp(expr.KeyField, expr.EQ, r.Intn(30))).And(cmp(f, rangeOp, v))
	case 1: // few keys, so one eq bucket holds nodes with different residuals
		return expr.True().And(cmp(expr.KeyField, expr.EQ, r.Intn(3))).And(cmp(f, rangeOp, v))
	case 2: // hole on the access field: a narrow holed interval ∧ a wide range
		return expr.True().
			And(cmp(f, expr.GE, v)).And(cmp(f, expr.LE, v+4)).And(cmp(f, expr.NE, v+1+r.Intn(3))).
			And(cmp((f+1)%event.NumFields, expr.LT, 25))
	case 3: // hole on a residual field
		return expr.True().And(cmp(expr.KeyField, expr.EQ, r.Intn(30))).
			And(cmp(g, expr.LT, 10+v)).And(cmp(g, expr.NE, r.Intn(10+v)))
	default: // equality on a payload field ∧ key range
		return expr.True().And(cmp(f, expr.EQ, v)).And(cmp(expr.KeyField, rangeOp, r.Intn(30)))
	}
}

// verifyCoverage reports whether ix holds an eq bucket with two verified
// nodes, and a verified node on a stabbing index.
func verifyCoverage(ix *selIndex) (sharedBucket, verifiedRange bool) {
	for f := range ix.dispatch {
		d := &ix.dispatch[f]
		for _, bucket := range d.eq {
			verified := 0
			for _, ni := range bucket {
				if ix.nodes[ni].verify {
					verified++
				}
			}
			sharedBucket = sharedBucket || verified >= 2
		}
		for _, ni := range d.iv.node {
			verifiedRange = verifiedRange || ix.nodes[ni].verify
		}
	}
	return sharedBucket, verifiedRange
}

func randIndexTuple(r *rand.Rand, tmax int) event.Tuple {
	t := event.Tuple{
		Key:  int64(r.Intn(30)),
		Time: event.Time(r.Intn(tmax)),
	}
	for f := range t.Fields {
		t.Fields[f] = int64(r.Intn(30))
	}
	return t
}

// TestIndexedClassificationAgreesWithScan co-drives an instance classifying
// through its index and a twin classifying through the reference scan through identical changelog/tuple/watermark
// sequences and requires bit-identical query-sets plus identical panic
// attribution on every tuple, including out-of-order tuples that classify
// against older table versions. Seed 0 swaps the indexed instance for one
// restored from its own snapshot mid-stream, so the indexes rebuildIndexes
// compiles are held to the same bits.
func TestIndexedClassificationAgreesWithScan(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))

			idx := NewSharedSelection(0, 50, NewOpMetrics(nil))
			scan := NewSharedSelection(0, 50, NewOpMetrics(nil))
			var idxPanics, scanPanics []int
			onIdxPanic := func(id int, _ any) { idxPanics = append(idxPanics, id) }
			idx.onPredPanic = onIdxPanic
			scan.onPredPanic = func(id int, _ any) { scanPanics = append(scanPanics, id) }

			b := newCLBuilder()
			var templates []expr.Predicate
			var active []int
			em := &spe.Emitter{}
			// Non-vacuity: the run must build an eq bucket shared by two
			// residuals and a residual behind the stabbing index.
			var sharedBucket, verifiedRange bool

			apply := func(msg *ChangelogMsg, at event.Time) {
				idx.OnChangelog(msg, at, nil)
				scan.OnChangelog(msg, at, nil)
			}
			for step := 0; step < 40; step++ {
				at := event.Time(step * 100)
				if seed == 0 && step == 20 {
					restored := NewSharedSelection(0, 50, NewOpMetrics(nil))
					if err := restored.Restore(idx.OnBarrier(1, nil)); err != nil {
						t.Fatal(err)
					}
					restored.onPredPanic = onIdxPanic
					idx = restored
				}
				// Mutate the workload: mostly creations, sometimes deletions
				// (occasionally enough of them to exercise the map-based path).
				if len(active) > 4 && r.Intn(100) < 35 {
					ndel := 1 + r.Intn(3)
					if r.Intn(100) < 25 {
						ndel = len(active)/2 + smallDeleteScan // force delScratch
					}
					if ndel > len(active) {
						ndel = len(active)
					}
					r.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
					apply(b.remove(t, at, active[:ndel]...), at)
					active = active[ndel:]
				} else {
					nq := 1 + r.Intn(6)
					qs := make([]*Query, nq)
					for i := range qs {
						p := randIndexPred(r, templates)
						templates = append(templates, p)
						qs[i] = &Query{Kind: KindSelection, Arity: 1, Predicates: []expr.Predicate{p}}
					}
					msg := b.create(t, at, qs...)
					for _, q := range qs {
						active = append(active, q.ID)
					}
					apply(msg, at)
				}
				if len(idx.versions) != len(idx.indexes) {
					t.Fatalf("step %d: %d versions but %d indexes", step, len(idx.versions), len(idx.indexes))
				}
				shared, ranged := verifyCoverage(idx.indexes[len(idx.indexes)-1])
				sharedBucket, verifiedRange = sharedBucket || shared, verifiedRange || ranged

				// Tuples spanning every live version, including times far
				// behind the newest changelog.
				for i := 0; i < 60; i++ {
					tu := randIndexTuple(r, (step+1)*100+50)
					idxPanics, scanPanics = idxPanics[:0], scanPanics[:0]
					idx.OnTuple(0, tu, em)
					scanTuple(scan, tu)
					if !idx.qsTmp.Equal(scan.qsTmp) {
						t.Fatalf("step %d tuple %+v: indexed set %v != scan set %v",
							step, tu, idx.qsTmp.Words(), scan.qsTmp.Words())
					}
					if len(idxPanics) != len(scanPanics) {
						t.Fatalf("step %d tuple %+v: panic attribution %v != %v",
							step, tu, idxPanics, scanPanics)
					}
					for j := range idxPanics {
						if idxPanics[j] != scanPanics[j] {
							t.Fatalf("step %d tuple %+v: panic attribution %v != %v",
								step, tu, idxPanics, scanPanics)
						}
					}
				}

				// Occasionally advance the watermark so versions get pruned
				// (and the indexed instance recycles entry backings).
				if r.Intn(100) < 40 {
					wm := at - event.Time(r.Intn(200))
					if wm > 0 {
						idx.OnWatermark(wm, nil)
						scan.OnWatermark(wm, nil)
					}
				}
			}
			if !sharedBucket || !verifiedRange {
				t.Fatalf("generator never exercised residual verify: shared eq bucket %v, verified range %v",
					sharedBucket, verifiedRange)
			}
		})
	}
}

// TestFaultHookDoesNotSelectTheArm: with a fault hook installed the instance
// still compiles and classifies through its index — before and after a
// Snapshot → Restore — the hook is called exactly once per (tuple, active
// entry), the struck query matches nothing and takes one strike per tuple,
// and every other bit equals the reference scan's.
func TestFaultHookDoesNotSelectTheArm(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	hook := &strikeHook{query: 3, calls: map[int]int{}}
	strikes := 0
	newSel := func() *SharedSelection {
		s := NewSharedSelection(0, 50, NewOpMetrics(nil))
		s.faultHook = hook
		s.onPredPanic = func(id int, _ any) {
			if id != hook.query {
				t.Fatalf("strike against query %d, want only %d", id, hook.query)
			}
			strikes++
		}
		return s
	}
	sel := newSel()
	ref := NewSharedSelection(0, 50, NewOpMetrics(nil))
	b := newCLBuilder()
	qs := make([]*Query, 12)
	for i := range qs {
		qs[i] = &Query{Kind: KindSelection, Arity: 1, Predicates: []expr.Predicate{randConjunction(r)}}
	}
	msg := b.create(t, 0, qs...)
	sel.OnChangelog(msg, 0, nil)
	ref.OnChangelog(msg, 0, nil)
	var struckSlot int
	for _, c := range msg.CL.Created {
		if c.Query == hook.query {
			struckSlot = c.Slot
		}
	}

	em := &spe.Emitter{}
	const tuples = 200
	for i := 0; i < tuples; i++ {
		if i == tuples/2 {
			restored := newSel()
			if err := restored.Restore(sel.OnBarrier(1, nil)); err != nil {
				t.Fatal(err)
			}
			sel = restored
		}
		if st := sel.IndexStats(); st.Nodes == 0 || st.Entries != len(qs) {
			t.Fatalf("tuple %d: index stats %+v under a fault hook, want a compiled index over %d entries", i, st, len(qs))
		}
		tu := randIndexTuple(r, 50)
		sel.OnTuple(0, tu, em)
		scanTuple(ref, tu)
		if sel.qsTmp.Test(struckSlot) {
			t.Fatalf("tuple %d: struck query kept its bit", i)
		}
		ref.qsTmp.Clear(struckSlot)
		if !sel.qsTmp.Equal(ref.qsTmp) {
			t.Fatalf("tuple %d: hooked set %v != reference %v", i, sel.qsTmp.Words(), ref.qsTmp.Words())
		}
	}
	if strikes != tuples {
		t.Fatalf("%d strikes over %d tuples, want one per tuple", strikes, tuples)
	}
	for _, q := range qs {
		if hook.calls[q.ID] != tuples {
			t.Fatalf("hook called %d times for query %d, want once per tuple (%d)", hook.calls[q.ID], q.ID, tuples)
		}
	}
}

// TestIndexSurvivesSnapshotRestore: the index is derived state — a restored
// instance must recompile it from the decoded entry table and classify
// exactly like the original.
func TestIndexSurvivesSnapshotRestore(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sel := NewSharedSelection(0, 50, NewOpMetrics(nil))
	b := newCLBuilder()
	var templates []expr.Predicate
	for step := 0; step < 5; step++ {
		qs := make([]*Query, 8)
		for i := range qs {
			p := randIndexPred(r, templates)
			templates = append(templates, p)
			qs[i] = &Query{Kind: KindSelection, Arity: 1, Predicates: []expr.Predicate{p}}
		}
		at := event.Time(step * 100)
		sel.OnChangelog(b.create(t, at, qs...), at, nil)
	}

	restored := NewSharedSelection(0, 50, NewOpMetrics(nil))
	if err := restored.Restore(sel.OnBarrier(1, nil)); err != nil {
		t.Fatal(err)
	}
	if len(restored.indexes) != len(restored.versions) {
		t.Fatalf("restored %d versions but %d indexes", len(restored.versions), len(restored.indexes))
	}
	for i, ix := range restored.indexes {
		if ix == nil {
			t.Fatalf("restored version %d has no compiled index", i)
		}
		if got, want := ix.stats, sel.indexes[i].stats; got != want {
			t.Fatalf("version %d stats diverge after restore: %+v vs %+v", i, got, want)
		}
	}
	em := &spe.Emitter{}
	for i := 0; i < 500; i++ {
		tu := randIndexTuple(r, 550)
		sel.OnTuple(0, tu, em)
		restored.OnTuple(0, tu, em)
		if !sel.qsTmp.Equal(restored.qsTmp) {
			t.Fatalf("tuple %+v: original %v restored %v", tu, sel.qsTmp.Words(), restored.qsTmp.Words())
		}
	}
}

// TestOverlapIndexComposition pins how the 512-query overlap workload
// compiles: heavy dedup, both dispatch structures populated, and the
// two-field chain registered on the stabbing index behind a verify.
func TestOverlapIndexComposition(t *testing.T) {
	sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
	sel.installTable(overlapEntries(512))
	st := sel.IndexStats()
	want := SelIndexStats{
		Entries:       512,
		Nodes:         57, // 1 wide template + 32 points + 16 ranges + 8 chain links
		Deduped:       455,
		EqDispatch:    32,
		RangeDispatch: 25, // the wide template + the 16 one-sided ranges + the chain
		Verified:      8,  // the chain links check F4 once F3 is stabbed
	}
	if st != want {
		t.Fatalf("overlap index stats = %+v, want %+v", st, want)
	}

	// And the workload classifies identically to the scan.
	scan := NewSharedSelection(0, 0, NewOpMetrics(nil))
	scan.installTable(overlapEntries(512))
	em := &spe.Emitter{}
	for i := 0; i < 4096; i++ {
		tu := benchTuple(i, bitset.Bits{}, 50)
		sel.OnTuple(0, tu, em)
		scanTuple(scan, tu)
		if !sel.qsTmp.Equal(scan.qsTmp) {
			t.Fatalf("tuple %d: indexed %v scan %v", i, sel.qsTmp.Words(), scan.qsTmp.Words())
		}
	}
}

// TestConjunctionDispatchWork pins the work bound of conjunction dispatch on
// the churn-shaped table (512 queries, each pinned to its own key, every
// second one with a residual range): every node sits alone in its key's
// bucket, so a tuple examines at most one candidate however many queries are
// live, and classification stays bit-identical to the scan.
func TestConjunctionDispatchWork(t *testing.T) {
	sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
	sel.installTable(keyedEntries(512))
	ix := sel.indexes[0]
	if st := ix.stats; st.EqDispatch != 512 || st.RangeDispatch != 0 || st.Lattice != 0 || st.Verified != 256 {
		t.Fatalf("keyed index stats = %+v, want 512 eq-dispatched nodes, 256 of them verified", st)
	}
	for key, bucket := range ix.dispatch[0].eq {
		if len(bucket) != 1 {
			t.Fatalf("key %d bucket holds %d nodes, want 1", key, len(bucket))
		}
	}

	r := rand.New(rand.NewSource(1))
	v := &sel.versions[0]
	var got, want bitset.Bits
	for i := 0; i < 10000; i++ {
		tu := event.Tuple{Key: int64(r.Intn(1000))}
		for f := range tu.Fields {
			tu.Fields[f] = int64(r.Intn(1000))
		}
		candidates := 0
		for f := range ix.dispatch {
			d := &ix.dispatch[f]
			val := tu.Key
			if f > 0 {
				val = tu.Fields[f-1]
			}
			candidates += len(d.eq[val])
			for m := range d.iv.node {
				if d.iv.lo[m] <= val && val <= d.iv.hi[m] {
					candidates++
				}
			}
		}
		if candidates > 1 {
			t.Fatalf("tuple %+v examines %d candidates, want at most 1", tu, candidates)
		}
		got.Reset()
		want.Reset()
		ix.classify(sel, v, &tu, &got)
		scanEntries(sel, v, &tu, &want)
		if !got.Equal(want) {
			t.Fatalf("tuple %+v: indexed %v scan %v", tu, got.Words(), want.Words())
		}
	}
}

// TestChangelogReusesEntryCapacity pins the control-path churn fix: a
// changelog with no deletions must not rebuild a deletion set, and entry
// backings from watermark-pruned versions are recycled into later tables.
func TestChangelogReusesEntryCapacity(t *testing.T) {
	sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
	b := newCLBuilder()
	mk := func(n int) []*Query {
		qs := make([]*Query, n)
		for i := range qs {
			qs[i] = &Query{Kind: KindSelection, Arity: 1, Predicates: []expr.Predicate{
				expr.True().And(expr.Comparison{Field: 0, Op: expr.LT, Value: 500}),
			}}
		}
		return qs
	}
	first := b.create(t, 0, mk(16)...)
	ids := make([]int, 0, 8)
	for _, c := range first.CL.Created {
		if len(ids) < 8 {
			ids = append(ids, c.Query)
		}
	}
	sel.OnChangelog(first, 0, nil)
	sel.OnChangelog(b.remove(t, 100, ids...), 100, nil)
	if got := sel.ActiveEntries(); got != 8 {
		t.Fatalf("active entries = %d, want 8", got)
	}
	// Prune the first two versions; the 16-entry backing goes to the pool.
	sel.OnWatermark(250, nil)
	if len(sel.versions) != 1 || len(sel.indexes) != 1 {
		t.Fatalf("after prune: %d versions, %d indexes", len(sel.versions), len(sel.indexes))
	}
	pooled := len(sel.entryPool)
	if pooled == 0 {
		t.Fatalf("pruned entry backings were not pooled")
	}
	sel.OnChangelog(b.create(t, 300, mk(2)...), 300, nil)
	if len(sel.entryPool) >= pooled {
		t.Fatalf("changelog did not draw from the entry pool (%d -> %d)", pooled, len(sel.entryPool))
	}
	if got := sel.ActiveEntries(); got != 10 {
		t.Fatalf("active entries = %d, want 10", got)
	}
}
