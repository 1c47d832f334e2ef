package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// These tests pin the shared join's fire path the way fire_test.go pins the
// aggregation's: for every changelog history and watermark schedule, every
// sink receives from OnWatermark exactly the rows the reference below
// computes for it, window by window.

// joinSink collects rows per sink — "q<ID>" for a query this stage is terminal
// for, "slot<N>" for the pass-through tuples carrying slot N downstream — as
// (run, row) pairs: the run names the window the row belongs to.
type joinSink map[string][][2]string

func (s joinSink) add(sink, run, row string) { s[sink] = append(s[sink], [2]string{run, row}) }

// canon orders the rows of every window a sink saw: the engine emits a
// window's rows in slice-pair and hash-kernel order, the reference in
// nested-loop order, and which of a window's rows comes first is not part of
// the contract; which window they belong to, and the order of the windows, is.
func (s joinSink) canon() []string {
	var sinks []string
	for sink := range s {
		sinks = append(sinks, sink)
	}
	sort.Strings(sinks)
	var out []string
	for _, sink := range sinks {
		rows := s[sink]
		for lo := 0; lo < len(rows); {
			hi := lo
			for hi < len(rows) && rows[hi][0] == rows[lo][0] {
				hi++
			}
			run := rows[lo:hi]
			sort.Slice(run, func(i, j int) bool { return run[i][1] < run[j][1] })
			for _, r := range run {
				out = append(out, sink+" "+r[0]+" "+r[1])
			}
			lo = hi
		}
	}
	return out
}

func joinRow(jt *event.JoinedTuple) string {
	return fmt.Sprintf("k=%d l=%v r=%v t=%v in=%d qs=%v", jt.Key, jt.Left, jt.Right, jt.Time, jt.IngestNanos, jt.QuerySet.Indexes())
}

func passRun(end event.Time) string { return fmt.Sprintf("end=%v", end) }

func passRow(key int64, fields [event.NumFields]int64, ingest int64) string {
	return fmt.Sprintf("k=%d f=%v in=%d", key, fields, ingest)
}

// joinWindowScan is the reference: one query, one extent, nested loops over
// the tuples both sides stored in the extent's slices. A pair joins for the
// query when the keys are equal and the query's slot is in both tuples'
// query-sets, in the changelog-set of the two slices' epochs, and in the
// changelog-set of the newer epoch and the query's cap. It shares no fire code
// with the engine — no pair cache, no hash kernel, no cap groups, no triggers
// of several queries — only the slice rings, their stores and the changelog
// table it reads.
func (j *SharedJoin) joinWindowScan(ext window.Extent, aq *liveQuery, curEpoch uint64, out joinSink) {
	capTo := min(curEpoch, aq.endEpoch)
	if capTo < j.win.table.Base() {
		return
	}
	rel := j.win.table.Rel
	left, right := j.win.sides[0], j.win.sides[1]
	llo, lhi := left.overlappingRange(ext)
	rlo, rhi := right.overlappingRange(ext)
	for _, sa := range left.slices[llo:lhi] {
		for _, sb := range right.slices[rlo:rhi] {
			if sa.store == nil || sb.store == nil {
				continue
			}
			pair := rel(sa.epoch, sb.epoch)
			if !pair.Test(aq.slot) || !rel(max(sa.epoch, sb.epoch), capTo).Test(aq.slot) {
				continue
			}
			for _, ta := range sa.store.tuples {
				for _, tb := range sb.store.tuples {
					if ta.Key != tb.Key || !ta.QuerySet.Test(aq.slot) || !tb.QuerySet.Test(aq.slot) {
						continue
					}
					jt := event.JoinedTuple{
						Key: ta.Key, Left: ta.Fields, Right: tb.Fields,
						Time:        max(ta.Time, tb.Time),
						IngestNanos: max(ta.IngestNanos, tb.IngestNanos),
						QuerySet:    ta.QuerySet.And(tb.QuerySet).And(pair),
					}
					if aq.terminal {
						out.add(fmt.Sprintf("q%d", aq.q.ID), ext.String(), joinRow(&jt))
					} else {
						out.add(fmt.Sprintf("slot%d", aq.slot), passRun(ext.End), passRow(jt.Key, jt.Left, jt.IngestNanos))
					}
				}
			}
		}
	}
}

// refJoinWatermark is OnWatermark with the reference in place of fireEnd,
// firing every (extent, query) on its own.
func refJoinWatermark(j *SharedJoin, wm event.Time, out joinSink) {
	if wm <= j.win.lastWM {
		return
	}
	j.win.collectTriggers(wm)
	cur := j.win.table.Latest()
	for _, tr := range j.win.trig.list {
		for _, aq := range tr.queries {
			j.joinWindowScan(tr.ext, aq, cur, out)
		}
	}
	j.retire(wm)
}

// joinEngine is an engine-fired join instance with its captured output.
type joinEngine struct {
	j    *SharedJoin
	out  joinSink
	pass *spe.Emitter
}

// passTap files every tuple the join emits downstream under each slot it
// carries; the join stamps pass-through tuples with their window's end - 1.
type passTap struct {
	spe.BaseLogic
	out joinSink
}

func (p passTap) OnTuple(_ int, t event.Tuple, _ *spe.Emitter) {
	for _, slot := range t.QuerySet.Indexes() {
		p.out.add(fmt.Sprintf("slot%d", slot), passRun(t.Time+1), passRow(t.Key, t.Fields, t.IngestNanos))
	}
}

func newJoinEngine(lateness event.Time, maxID int) *joinEngine {
	e := &joinEngine{out: joinSink{}}
	r := NewRouter(&OpMetrics{})
	for id := 1; id <= maxID; id++ {
		sink := fmt.Sprintf("q%d", id)
		r.Register(id, SinkFunc(func(res Result) {
			if res.Kind != KindJoin || res.Join == nil || res.Tuple != nil || res.EventTime() != res.Join.Time {
				panic(fmt.Sprintf("join result is not a join row: %+v", res))
			}
			e.out.add(sink, res.Window.String(), joinRow(res.Join))
		}))
	}
	e.j = NewSharedJoin(0, 0, lateness, r, NewOpMetrics(nil))
	e.pass = spe.NewChainedEmitter(passTap{out: e.out}, nil)
	return e
}

// joinPair is an engine-fired instance and a reference-fired instance driven
// through identical inputs; restored, once set, is a second engine-fired
// instance rebuilt from eng's snapshot and held to the same rows.
type joinPair struct {
	eng, restored *joinEngine
	ref           *SharedJoin
	refOut        joinSink
}

func newJoinPair(lateness event.Time, maxID int) *joinPair {
	return &joinPair{
		eng:    newJoinEngine(lateness, maxID),
		ref:    NewSharedJoin(0, 0, lateness, NewRouter(&OpMetrics{}), NewOpMetrics(nil)),
		refOut: joinSink{},
	}
}

func (p *joinPair) restore(t *testing.T, lateness event.Time, maxID int) {
	t.Helper()
	p.restored = newJoinEngine(lateness, maxID)
	if err := p.restored.j.Restore(p.eng.j.OnBarrier(1, nil)); err != nil {
		t.Fatal(err)
	}
}

func (p *joinPair) changelog(msg *ChangelogMsg, at event.Time) {
	p.eng.j.OnChangelog(msg, at, nil)
	p.ref.OnChangelog(msg, at, nil)
	if p.restored != nil {
		p.restored.j.OnChangelog(msg, at, nil)
	}
}

func (p *joinPair) tuple(port int, tu event.Tuple) {
	p.eng.j.OnTuple(port, tu, nil)
	p.ref.OnTuple(port, tu, nil)
	if p.restored != nil {
		p.restored.j.OnTuple(port, tu, nil)
	}
}

// watermark advances every instance and requires the same rows at every
// sink; it returns how many terminal and pass-through rows fired.
func (p *joinPair) watermark(t *testing.T, what string, wm event.Time) (terminal, pass int) {
	t.Helper()
	p.eng.j.OnWatermark(wm, p.eng.pass)
	refJoinWatermark(p.ref, wm, p.refOut)
	want := p.refOut.canon()
	assertSameStrings(t, what, p.eng.out.canon(), want)
	if p.restored != nil {
		p.restored.j.OnWatermark(wm, p.restored.pass)
		assertSameStrings(t, what+" (restored)", p.restored.out.canon(), want)
		clear(p.restored.out)
	}
	for sink, rows := range p.refOut {
		if sink[0] == 'q' {
			terminal += len(rows)
		} else {
			pass += len(rows)
		}
	}
	clear(p.eng.out)
	clear(p.refOut)
	return terminal, pass
}

// randJoinQuery draws the queries a stage-0 join serves: binary joins it is
// terminal for, tumbling or sliding, and ternary joins and complex queries
// whose rows it passes downstream. Lengths and slides sit on a 20-unit grid
// so that extents of different queries, and of different specs, coincide.
func randJoinQuery(r *rand.Rand) *Query {
	tumbling := window.TumblingSpec(event.Time(20 * (1 + r.Intn(6))))
	switch r.Intn(5) {
	case 0:
		return joinQ(tumbling, gt(0, -1), gt(0, -1), gt(0, -1))
	case 1:
		return complexQ(tumbling, window.TumblingSpec(100), sqlstream.AggSum, 0, gt(0, -1), gt(0, -1))
	case 2:
		return joinQ(tumbling, gt(0, -1), gt(0, -1))
	default:
		n := 2 + r.Intn(5)
		return joinQ(window.SlidingSpec(event.Time(20*n), event.Time(20*(1+r.Intn(n)))), gt(0, -1), gt(0, -1))
	}
}

// TestJoinAgreesWithReference co-drives an engine-fired and a reference-fired
// join through identical changelog/tuple/watermark sequences — deploy/delete
// churn with slot reuse, pending-delete caps, tumbling and sliding specs that
// share extents, out-of-order tuples, tuples behind the
// watermark that land in slices whose pairs are cached, and tuples behind the
// eviction mark — and requires the same rows at every sink, terminal results
// and pass-through tuples both, at every watermark. Halfway through, the engine instance's snapshot is
// restored into a fresh instance that joins the comparison: the pair cache is
// derived state a restore may lose.
func TestJoinAgreesWithReference(t *testing.T) {
	for seed := int64(0); seed < 9; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const lateness, maxID = 50, 256
			r := rand.New(rand.NewSource(seed))
			p := newJoinPair(lateness, maxID)
			b := newCLBuilder()
			var active []int
			wm := event.MinTime
			terminal, pass, late, retained := 0, 0, 0, 0
			shared, capped := false, false

			for step := 0; step < 40; step++ {
				at := event.Time(step * 100)
				var msg *ChangelogMsg
				if len(active) > 4 && r.Intn(100) < 30 {
					ndel := 1 + r.Intn(3)
					r.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
					msg = b.remove(t, at, active[:ndel]...)
					active = active[ndel:]
				} else {
					qs := make([]*Query, 1+r.Intn(4))
					for i := range qs {
						qs[i] = randJoinQuery(r)
					}
					msg = b.create(t, at, qs...)
					for _, q := range qs {
						active = append(active, q.ID)
					}
				}
				p.changelog(msg, at)

				// Tuples land between the watermark and the next changelog,
				// out of order — except the few sent behind the watermark,
				// within the lateness bound and not behind their side's
				// eviction mark, which every instance must store and join
				// like any other, and the few sent behind the eviction mark,
				// which every instance must drop.
				lo := max(wm, at-200, 0)
				for i := 0; i < 40; i++ {
					port := r.Intn(2)
					tu := event.Tuple{
						Key:         int64(r.Intn(6)),
						Time:        lo + event.Time(r.Intn(int(at+100-lo))),
						IngestNanos: int64(step*40 + i + 1),
					}
					thru := p.eng.j.win.evictedThru[port]
					if behind := max(thru, wm-lateness, 0); behind < wm && r.Intn(8) == 0 {
						tu.Time = behind + event.Time(r.Intn(int(wm-behind)))
						retained++
					} else if thru > 0 && r.Intn(16) == 0 {
						tu.Time = thru - 1 - event.Time(r.Intn(20))
						late++
					}
					for k := 0; k < 8; k++ {
						tu.QuerySet.Set(r.Intn(32))
					}
					for f := range tu.Fields {
						tu.Fields[f] = int64(r.Intn(40)) - 20
					}
					p.tuple(port, tu)
				}
				if step == 20 {
					p.restore(t, lateness, maxID)
				}
				if next := at - event.Time(r.Intn(150)); r.Intn(100) < 70 && next > wm {
					wm = next
					nt, np := p.watermark(t, fmt.Sprintf("step %d wm=%v", step, wm), wm)
					terminal, pass = terminal+nt, pass+np
					for _, tr := range p.eng.j.win.trig.list {
						shared = shared || len(tr.queries) > 1
						for _, aq := range tr.queries {
							capped = capped || aq.until != event.MaxTime
						}
					}
				}
			}
			nt, np := p.watermark(t, "final", 5000)
			terminal, pass = terminal+nt, pass+np
			if got := p.eng.j.metrics.Late; got != uint64(late) || p.ref.metrics.Late != got {
				t.Fatalf("late tuples: engine dropped %d, reference %d, sent %d", got, p.ref.metrics.Late, late)
			}
			if terminal == 0 || pass == 0 || late == 0 || retained == 0 || !shared || !capped {
				t.Fatalf("workload fired %d terminal and %d pass-through rows, %d late and %d late-but-retained tuples, shared triggers: %v, pending-delete caps: %v; the test proved nothing",
					terminal, pass, late, retained, shared, capped)
			}
		})
	}
}

// TestJoinCoincidentExtents: queries whose specs coincide on an extent fire
// as one trigger in (slot, ID) order, and every sink receives exactly the
// rows, in exactly the order, it gets when each (extent, query) fires on its
// own.
func TestJoinCoincidentExtents(t *testing.T) {
	const n = 6
	b := newCLBuilder()
	qs := make([]*Query, n)
	for i := range qs {
		spec := window.TumblingSpec(2000)
		if i%2 == 1 {
			spec = window.SlidingSpec(2000, 500)
		}
		qs[i] = joinQ(spec, gt(0, -1), gt(0, -1))
	}
	msg := b.create(t, 0, qs...)

	// Per-sink capture: one output list per query.
	sinks := func(out *[n + 1][]string) *Router {
		r := NewRouter(&OpMetrics{})
		for id := 1; id <= n; id++ {
			id := id
			r.Register(id, SinkFunc(func(res Result) {
				out[id] = append(out[id], fmt.Sprintf("w=[%v,%v) join=%v et=%v", res.Window.Start, res.Window.End, *res.Join, res.EventTime()))
			}))
		}
		return r
	}
	var gotOut, wantOut [n + 1][]string
	got := NewSharedJoin(0, 0, 0, sinks(&gotOut), &OpMetrics{})
	want := NewSharedJoin(0, 0, 0, sinks(&wantOut), &OpMetrics{})
	got.OnChangelog(msg, 0, nil)
	want.OnChangelog(msg, 0, nil)

	r := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		tu := event.Tuple{Key: int64(r.Intn(5)), Time: event.Time(i * 10)}
		for k := 0; k < n; k++ {
			if r.Intn(3) > 0 {
				tu.QuerySet.Set(k)
			}
		}
		tu.Fields[0] = int64(i)
		got.OnTuple(i%2, tu, nil)
		want.OnTuple(i%2, tu, nil)
	}

	got.win.collectTriggers(2000)
	full := got.win.trig.list[len(got.win.trig.list)-1]
	if full.ext != (window.Extent{Start: 0, End: 2000}) || len(full.queries) != n {
		t.Fatalf("last trigger is [%v,%v) with %d queries, want [0,2000) with all %d", full.ext.Start, full.ext.End, len(full.queries), n)
	}
	for i, aq := range full.queries {
		if aq.slot != i || aq.q.ID != i+1 {
			t.Fatalf("trigger query %d is (slot %d, ID %d), want (slot, ID) order", i, aq.slot, aq.q.ID)
		}
	}

	for _, wm := range []event.Time{2000, 4000} {
		got.OnWatermark(wm, nil)
		// The uncoalesced watermark: every (extent, query) fires alone.
		want.win.collectTriggers(wm)
		for _, tr := range want.win.trig.list {
			for _, aq := range tr.queries {
				want.fireEnd([]*trigger{{ext: tr.ext, queries: []*liveQuery{aq}}}, nil)
			}
		}
		want.retire(wm)
	}
	for id := 1; id <= n; id++ {
		if len(wantOut[id]) == 0 {
			t.Fatalf("query %d produced no rows", id)
		}
		assertSameStrings(t, fmt.Sprintf("sink %d", id), gotOut[id], wantOut[id])
	}
}

// The directed tests below pin what caching a slice pair's rows by reference
// makes fragile: everything that happens to a store, or to the instance,
// between two fires that share a pair. Each drives a joinPair, so every sink's
// rows are held, window by window, to joinWindowScan's.

// slidingJoins returns n binary joins the stage is terminal for and one
// ternary join it passes rows down for, all over one sliding window: every
// extent is one trigger, and consecutive extents share slice pairs.
func slidingJoins(n int, length, slide event.Time) []*Query {
	spec := window.SlidingSpec(length, slide)
	qs := []*Query{joinQ(spec, gt(0, -1), gt(0, -1), gt(0, -1))}
	for len(qs) <= n {
		qs = append(qs, joinQ(spec, gt(0, -1), gt(0, -1)))
	}
	return qs
}

// feedJoin sends n tuples with event-times in [lo, hi) to port (either, if
// negative), each selected by about half of the first slots slots.
func feedJoin(p *joinPair, r *rand.Rand, port int, lo, hi event.Time, n, slots int) {
	for i := 0; i < n; i++ {
		tu := event.Tuple{Key: int64(r.Intn(4)), Time: lo + event.Time(r.Intn(int(hi-lo))), IngestNanos: int64(1 + r.Intn(1<<20))}
		for s := 0; s < slots; s++ {
			if r.Intn(2) == 0 {
				tu.QuerySet.Set(s)
			}
		}
		for f := range tu.Fields {
			tu.Fields[f] = int64(r.Intn(40))
		}
		to := port
		if to < 0 {
			to = r.Intn(2)
		}
		p.tuple(to, tu)
	}
}

// fired requires the watermark to have delivered rows to sinks and downstream.
func (p *joinPair) fired(t *testing.T, what string, wm event.Time) {
	t.Helper()
	if terminal, pass := p.watermark(t, what, wm); terminal == 0 || pass == 0 {
		t.Fatalf("%s fired %d terminal and %d pass-through rows; the test proved nothing", what, terminal, pass)
	}
}

func (p *joinPair) reused() uint64 { return p.eng.j.metrics.PairsReuse }

// TestJoinLateTupleReachesCachedPairs: a tuple behind the watermark but not
// behind its side's eviction mark lands in a slice whose pairs are cached. It
// must join through them as it does through pairs computed later — L@130 with
// R@120 and with R@210 in [100,300) — on an instance that cached the pair and
// on one restored from its snapshot, whose cache is empty.
func TestJoinLateTupleReachesCachedPairs(t *testing.T) {
	p, b := newJoinPair(0, 1), newCLBuilder()
	p.changelog(b.create(t, 0, joinQ(window.SlidingSpec(200, 100), gt(0, -1), gt(0, -1))), 0)
	at := func(port int, tm event.Time) {
		p.tuple(port, event.Tuple{Key: 1, Time: tm, QuerySet: bitset.FromIndexes(0), IngestNanos: int64(tm)})
	}
	at(0, 110)
	at(1, 120)
	at(1, 210)
	if terminal, _ := p.watermark(t, "wm 200", 200); terminal != 1 {
		t.Fatalf("[0,200) fired %d rows, want L110×R120", terminal)
	}
	p.restore(t, 0, 1)
	at(0, 130)
	if late := p.eng.j.metrics.Late; late != 0 {
		t.Fatalf("L@130 was dropped as late (%d); it is behind the watermark, not behind the eviction mark", late)
	}
	if terminal, _ := p.watermark(t, "wm 300", 300); terminal != 4 {
		t.Fatalf("[100,300) fired %d rows, want all four of {L110,L130}×{R120,R210}", terminal)
	}
}

// TestJoinPairsAcrossRestore: a snapshot taken between two fires that share
// slice pairs restores the rows' inputs and neither the key indexes nor the
// pairs; the restored instance rebuilds both and fires the same rows.
func TestJoinPairsAcrossRestore(t *testing.T) {
	p, b := newJoinPair(0, 8), newCLBuilder()
	r := rand.New(rand.NewSource(7))
	p.changelog(b.create(t, 0, slidingJoins(3, 300, 100)...), 0)
	feedJoin(p, r, -1, 0, 250, 60, 4)
	p.fired(t, "before the snapshot", 200)
	p.restore(t, 0, 8)
	for _, side := range p.restored.j.win.sides {
		for _, sl := range side.slices {
			if sl.store != nil && (sl.store.heads != nil || sl.store.pairs != nil) {
				t.Fatal("a restored store came back with an index or cached pairs")
			}
		}
	}
	feedJoin(p, r, -1, 250, 400, 30, 4)
	p.fired(t, "after the snapshot", 300)
	p.fired(t, "after the snapshot", 400)
	if p.reused() == 0 || p.restored.j.metrics.PairsReuse == 0 {
		t.Fatal("an instance never reused a pair: the windows did not overlap as the test assumes")
	}
}

// TestJoinPairsWideQuerySets: past 64 slots a cached row's query-set owns a
// spilled backing; the rows must keep their own bits through later joins
// that reuse the kernel's scratch.
func TestJoinPairsWideQuerySets(t *testing.T) {
	p, b := newJoinPair(0, 100), newCLBuilder()
	r := rand.New(rand.NewSource(9))
	p.changelog(b.create(t, 0, slidingJoins(90, 300, 100)...), 0)
	feedJoin(p, r, -1, 0, 400, 60, 91)
	for wm := event.Time(100); wm <= 500; wm += 100 {
		p.fired(t, fmt.Sprintf("wm=%v", wm), wm)
	}
	if p.reused() == 0 {
		t.Fatal("no fire reused a pair")
	}
	wide := false
	for _, sl := range p.eng.j.win.sides[0].slices {
		for _, pair := range sl.store.pairs {
			for _, row := range pair.rows {
				wide = wide || row.qs.WordCount() > 1
			}
		}
	}
	if !wide {
		t.Fatal("no cached row carries a query-set beyond 64 slots")
	}

	// A fire over cached pairs allocates nothing: terminal rows go to the
	// sinks, and pass-through rows downstream, each with a query-set of its
	// own that fits inline.
	router := NewRouter(NewOpMetrics(nil))
	j := NewSharedJoin(0, 0, 0, router, NewOpMetrics(nil))
	msg := newCLBuilder().create(t, 0, slidingJoins(90, 300, 100)...)
	for id := range msg.Defs {
		router.Register(id, NewCountingSink(func() int64 { return 0 }, 1))
	}
	j.OnChangelog(msg, 0, nil)
	for i := 0; i < 60; i++ {
		tu := event.Tuple{Key: int64(r.Intn(4)), Time: event.Time(r.Intn(300))}
		for s := 0; s < 91; s++ {
			if r.Intn(2) == 0 {
				tu.QuerySet.Set(s)
			}
		}
		j.OnTuple(r.Intn(2), tu, nil)
	}
	passed := 0
	down := spe.NewChainedEmitter(countTuples{n: &passed}, nil)
	trigs := []*trigger{{ext: window.Extent{Start: 0, End: 300}, queries: j.win.queries.ordered}}
	j.fireEnd(trigs, down)
	if avg := testing.AllocsPerRun(20, func() { j.fireEnd(trigs, down) }); avg != 0 || passed == 0 {
		t.Errorf("a fire over cached pairs allocated %.1f times (%d rows passed down), want 0", avg, passed)
	}
}

// countTuples counts the tuples a stage passes downstream.
type countTuples struct {
	spe.BaseLogic
	n *int
}

func (c countTuples) OnTuple(int, event.Tuple, *spe.Emitter) { *c.n++ }

// TestJoinPairsStoreGrowth: late tuples keep arriving in a store after
// its key index was built and its pairs cached — first until the tuples
// reallocate, the index taking each one, then past the index's room, which
// drops it. Cached rows name positions, so they survive the move; every pair
// of the grown store is joined again and the late tuples are in it.
func TestJoinPairsStoreGrowth(t *testing.T) {
	p, b := newJoinPair(0, 8), newCLBuilder()
	r := rand.New(rand.NewSource(11))
	p.changelog(b.create(t, 0, slidingJoins(3, 400, 100)...), 0)
	feedJoin(p, r, -1, 0, 400, 120, 4)
	p.fired(t, "first fire", 200)
	// The larger store of a pair is the one indexed.
	port := 0
	if p.eng.j.win.sides[1].sliceFor(150).store.heads != nil {
		port = 1
	}
	st := p.eng.j.win.sides[port].sliceFor(150).store
	if st.heads == nil {
		t.Fatal("the first fire indexed neither side's [100,200)")
	}
	for before := cap(st.tuples); cap(st.tuples) == before; {
		feedJoin(p, r, port, 100, 200, 1, 4)
	}
	if st.heads == nil || len(st.next) != len(st.tuples) {
		t.Fatalf("the index did not take the late tuples: %d links for %d tuples", len(st.next), len(st.tuples))
	}
	p.fired(t, "after the tuples moved", 300)
	feedJoin(p, r, port, 100, 200, len(st.heads), 4)
	if st.heads != nil {
		t.Fatal("the index outgrew its table and was kept")
	}
	p.fired(t, "after the index was dropped", 400)
	if p.reused() == 0 {
		t.Fatal("no fire reused a pair")
	}
}

// TestJoinRowOrderSurvivesRestore: the order of a window's rows at a sink is
// no part of the oracle's contract, but it is a function of the stored
// content alone (replay determinism, §3.3) — an instance restored between two
// fires, its indexes and pairs rebuilt from scratch, emits every sink's rows
// in the order the instance that kept them does, late tuples into indexed
// stores included.
func TestJoinRowOrderSurvivesRestore(t *testing.T) {
	p, b := newJoinPair(0, 8), newCLBuilder()
	r := rand.New(rand.NewSource(13))
	p.changelog(b.create(t, 0, slidingJoins(3, 300, 100)...), 0)
	feedJoin(p, r, -1, 0, 300, 90, 4)
	p.fired(t, "before the snapshot", 200)
	p.restore(t, 0, 8)
	feedJoin(p, r, -1, 100, 400, 60, 4)
	for wm := event.Time(300); wm <= 500; wm += 100 {
		p.eng.j.OnWatermark(wm, p.eng.pass)
		p.restored.j.OnWatermark(wm, p.restored.pass)
		if len(p.eng.out) == 0 {
			t.Fatalf("wm=%v fired nothing", wm)
		}
		for sink, rows := range p.eng.out {
			got := p.restored.out[sink]
			if len(got) != len(rows) {
				t.Fatalf("wm=%v %s: restored instance fired %d rows, want %d", wm, sink, len(got), len(rows))
			}
			for i := range rows {
				if got[i] != rows[i] {
					t.Fatalf("wm=%v %s row %d:\nrestored: %v\nkept:     %v", wm, sink, i, got[i], rows[i])
				}
			}
		}
		clear(p.eng.out)
		clear(p.restored.out)
	}
}

// TestJoinFiresEachEndOnce: the windows closing at one end are nested
// suffixes — here [300,600), [400,600) and [500,600) — and fire in one walk
// over the widest one's slice pairs. Terminal joins, the pass-through rows
// of a ternary join and of a complex query, and a pending-deleted query
// whose slot a new query has taken (a second cap group at the end) all get
// the reference's rows, and every non-empty pair of the widest extent is
// looked up once, not once per extent that covers it.
func TestJoinFiresEachEndOnce(t *testing.T) {
	p, b := newJoinPair(0, 8), newCLBuilder()
	r := rand.New(rand.NewSource(17))
	gone := joinQ(window.SlidingSpec(300, 100), gt(0, -1), gt(0, -1))
	p.changelog(b.create(t, 0,
		gone,
		joinQ(window.SlidingSpec(300, 100), gt(0, -1), gt(0, -1)),
		joinQ(window.SlidingSpec(200, 100), gt(0, -1), gt(0, -1)),
		joinQ(window.SlidingSpec(200, 100), gt(0, -1), gt(0, -1), gt(0, -1)),
		complexQ(window.SlidingSpec(300, 100), window.TumblingSpec(100), sqlstream.AggSum, 0, gt(0, -1), gt(0, -1)),
	), 0)
	feedJoin(p, r, -1, 0, 200, 40, 7)
	// The narrowest query starts at 200: the ends up to it close two
	// extents, the later ones three.
	p.changelog(b.create(t, 200, joinQ(window.TumblingSpec(100), gt(0, -1), gt(0, -1))), 200)
	feedJoin(p, r, -1, 200, 600, 110, 7)
	p.fired(t, "ends 100-500", 500)
	// gone's last window ends at 600, and its slot goes to a new query there.
	j := p.eng.j
	lq := j.win.queries.byID[gone.ID]
	fresh := joinQ(window.SlidingSpec(300, 100), gt(0, -1), gt(0, -1))
	p.changelog(b.apply(t, 600, []int{gone.ID}, fresh), 600)
	if slot := j.win.queries.byID[fresh.ID].slot; slot != lq.slot {
		t.Fatalf("the new query took slot %d, not the pending-deleted query's %d", slot, lq.slot)
	}
	feedJoin(p, r, -1, 600, 700, 20, 7)

	widest := window.Extent{Start: 300, End: 600}
	goneRows := joinSink{}
	p.ref.joinWindowScan(widest, p.ref.win.queries.byID[gone.ID], p.ref.win.table.Latest(), goneRows)
	if len(goneRows) == 0 {
		t.Fatal("the pending-deleted query has no rows in its last window; the test proved nothing")
	}
	pairs := uint64(0)
	llo, lhi := j.win.sides[0].overlappingRange(widest)
	rlo, rhi := j.win.sides[1].overlappingRange(widest)
	for _, sa := range j.win.sides[0].slices[llo:lhi] {
		for _, sb := range j.win.sides[1].slices[rlo:rhi] {
			if sa.store != nil && sa.store.Len() > 0 && sb.store != nil && sb.store.Len() > 0 {
				pairs++
			}
		}
	}
	looked := j.metrics.PairsDone + j.metrics.PairsReuse
	p.fired(t, "end 600", 600)

	trs := j.win.trig.list
	caps := map[uint64]bool{}
	for i, tr := range trs {
		if tr.ext.End != 600 || i > 0 && tr.ext.Start <= trs[i-1].ext.Start {
			t.Fatalf("trigger %d is [%v,%v): the watermark did not close nested extents at one end", i, tr.ext.Start, tr.ext.End)
		}
		for _, aq := range tr.queries {
			caps[min(j.win.table.Latest(), aq.endEpoch)] = true
		}
	}
	if len(trs) < 3 || len(caps) != 2 {
		t.Fatalf("end 600 closed %d extents under %d caps, want at least 3 under 2", len(trs), len(caps))
	}
	if got := j.metrics.PairsDone + j.metrics.PairsReuse - looked; got != pairs || pairs < 4 {
		t.Fatalf("end 600 looked up %d slice pairs, want each of the widest extent's %d non-empty pairs once", got, pairs)
	}
}
