package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// These tests pin the window-fire path's one contract (DESIGN.md §15): for
// every changelog history, slice population, and watermark schedule,
// fireWindow emits a stream byte-identical to the reference below — same
// rows, same values (including IngestNanos, which exercises the max-merge),
// same order — across churn, lateness, pending-delete caps, and snapshot
// round-trips.

// fireWindowScan is the reference: one query, one extent, one private
// accumulator that re-merges every group the query is effective in, slice by
// slice. It shares no fire code with the engine — no triggers of several
// queries, no cap groups, no blocks, no classes, no pooled partials — only the
// slice ring and the changelog table it reads. It reads a slice's open
// groups, so the instance it runs on never fires through fireWindow and never
// snapshots: its slices are never sealed. (Until PR 14 a pooled variant of
// this loop was the production scan arm.)
func (a *SharedAggregation) fireWindowScan(ext window.Extent, aq *liveQuery, curEpoch uint64) {
	capTo := curEpoch
	if aq.endEpoch < capTo {
		capTo = aq.endEpoch
	}
	if capTo < a.win.table.Base() {
		return
	}
	acc := map[int64]*aggVal{}
	lo, hi := a.win.sides[0].overlappingRange(ext)
	for _, sl := range a.win.sides[0].slices[lo:hi] {
		if sl.aggs == nil {
			continue
		}
		rel := a.win.table.Rel(sl.epoch, capTo)
		if sl.aggs.open == nil {
			panic("reference: a slice of the reference instance was sealed")
		}
		for _, g := range sl.aggs.open.order {
			if !g.qs.Test(aq.slot) || !rel.Test(aq.slot) {
				continue
			}
			for _, key := range g.keys {
				if acc[key] == nil {
					acc[key] = &aggVal{}
					acc[key].reset()
				}
				acc[key].merge(g.byKey[key])
			}
		}
	}
	keys := make([]int64, 0, len(acc))
	for key := range acc {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		a.router.Deliver(Result{
			QueryID: aq.q.ID,
			Kind:    aq.q.Kind,
			Window:  ext,
			Key:     key,
			Value:   acc[key].finalize(aq.q.Agg, aq.q.AggField),
			Tuple:   &event.Tuple{Key: key, Time: ext.End, IngestNanos: acc[key].IngestNanos},
		})
	}
}

// refWatermark is OnWatermark with the reference in place of fireWindow,
// firing every (extent, query) on its own: extents in (End, Start) order,
// queries in (slot, ID) order within an extent — the uncoalesced order.
func refWatermark(a *SharedAggregation, wm event.Time) {
	if wm <= a.win.lastWM {
		return
	}
	a.win.collectTriggers(wm)
	cur := a.win.table.Latest()
	for _, tr := range a.win.trig.list {
		for _, aq := range tr.queries {
			a.fireWindowScan(tr.ext, aq, cur)
		}
	}
	a.retire(wm)
}

// fireRouter registers a formatting sink covering query IDs 1..maxID; unlike
// captureRouter it includes IngestNanos so value identity is byte-complete.
func fireRouter(out *[]string, maxID int) *Router {
	r := NewRouter(&OpMetrics{})
	for id := 1; id <= maxID; id++ {
		r.Register(id, SinkFunc(func(res Result) {
			*out = append(*out, fmt.Sprintf("q%d %v w=[%v,%v) key=%d val=%d et=%v in=%d",
				res.QueryID, res.Kind, res.Window.Start, res.Window.End,
				res.Key, res.Value, res.EventTime(), res.IngestNanos()))
		}))
	}
	return r
}

// firePair is an engine-fired instance and a reference-fired instance driven
// through identical inputs; restored, once set, is a second engine-fired
// instance rebuilt from eng's snapshot and held to the same stream.
type firePair struct {
	eng, ref, restored      *SharedAggregation
	engOut, refOut, restOut []string
}

func newFirePair(lateness event.Time, maxID int) *firePair {
	p := &firePair{}
	p.eng = NewSharedAggregation(1, lateness, fireRouter(&p.engOut, maxID), NewOpMetrics(nil))
	p.ref = NewSharedAggregation(1, lateness, fireRouter(&p.refOut, maxID), NewOpMetrics(nil))
	return p
}

// restore cuts eng's snapshot into a fresh engine-fired instance.
func (p *firePair) restore(t *testing.T, lateness event.Time, maxID int) {
	t.Helper()
	p.restored = NewSharedAggregation(1, lateness, fireRouter(&p.restOut, maxID), NewOpMetrics(nil))
	if err := p.restored.Restore(p.eng.OnBarrier(1, nil)); err != nil {
		t.Fatal(err)
	}
}

func (p *firePair) changelog(msg *ChangelogMsg, at event.Time) {
	p.eng.OnChangelog(msg, at, nil)
	p.ref.OnChangelog(msg, at, nil)
	if p.restored != nil {
		p.restored.OnChangelog(msg, at, nil)
	}
}

func (p *firePair) tuple(tu event.Tuple) {
	p.eng.OnTuple(0, tu, &spe.Emitter{})
	p.ref.OnTuple(0, tu, &spe.Emitter{})
	if p.restored != nil {
		p.restored.OnTuple(0, tu, &spe.Emitter{})
	}
}

// watermark advances every instance and requires identical emissions; it
// returns how many rows fired.
func (p *firePair) watermark(t *testing.T, what string, wm event.Time) int {
	t.Helper()
	p.eng.OnWatermark(wm, nil)
	refWatermark(p.ref, wm)
	assertSameStrings(t, what, p.engOut, p.refOut)
	if p.restored != nil {
		p.restored.OnWatermark(wm, nil)
		assertSameStrings(t, what+" (restored)", p.restOut, p.refOut)
	}
	n := len(p.engOut)
	p.engOut, p.refOut, p.restOut = p.engOut[:0], p.refOut[:0], p.restOut[:0]
	return n
}

// randAggQuery draws aggregation queries across every window shape and
// aggregate function the fire path serves; a few sessions ride along to
// prove the harvest path stays untouched.
func randAggQuery(r *rand.Rand) *Query {
	var spec window.Spec
	// Lengths and slides sit on a 20-unit grid so that extents of different
	// queries, and of different specs, coincide often.
	switch r.Intn(5) {
	case 0:
		spec = window.TumblingSpec(event.Time(20 * (1 + r.Intn(9))))
	case 4:
		spec = window.SessionSpec(event.Time(10 + r.Intn(50)))
	default:
		n := 2 + r.Intn(8)
		spec = window.SlidingSpec(event.Time(20*n), event.Time(20*(1+r.Intn(n))))
	}
	fns := []sqlstream.AggFunc{
		sqlstream.AggCount, sqlstream.AggSum, sqlstream.AggAvg,
		sqlstream.AggMin, sqlstream.AggMax,
	}
	return aggQ(spec, fns[r.Intn(len(fns))], r.Intn(event.NumFields), expr.True())
}

func randAggTuple(r *rand.Rand, at event.Time, i int) event.Tuple {
	lo := at - 300
	if lo < 0 {
		lo = 0
	}
	t := event.Tuple{
		Key:         int64(r.Intn(12)),
		Time:        lo + event.Time(r.Intn(int(at-lo)+150)),
		IngestNanos: int64(i + 1),
	}
	for k := 0; k <= r.Intn(4); k++ {
		t.QuerySet.Set(r.Intn(24))
	}
	for f := range t.Fields {
		t.Fields[f] = int64(r.Intn(40)) - 20
	}
	return t
}

// TestFireAgreesWithReference co-drives an engine-fired instance and a
// reference-fired instance through identical changelog/tuple/watermark
// sequences — deploy/delete churn, late and out-of-order tuples,
// pending-delete caps — and requires byte-identical emission streams at every
// watermark. Halfway through, the engine instance's snapshot is restored into
// a fresh instance that joins the comparison: the fire path keeps no derived
// state a restore could lose.
func TestFireAgreesWithReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			p := newFirePair(50, 256)
			b := newCLBuilder()
			var active []int
			wm := event.MinTime
			fired, shared := 0, false

			for step := 0; step < 40; step++ {
				at := event.Time(step * 100)
				if len(active) > 4 && r.Intn(100) < 30 {
					ndel := 1 + r.Intn(3)
					r.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
					p.changelog(b.remove(t, at, active[:ndel]...), at)
					active = active[ndel:]
				} else {
					qs := make([]*Query, 1+r.Intn(4))
					for i := range qs {
						qs[i] = randAggQuery(r)
					}
					p.changelog(b.create(t, at, qs...), at)
					for _, q := range qs {
						active = append(active, q.ID)
					}
				}
				for i := 0; i < 60; i++ {
					p.tuple(randAggTuple(r, at, step*60+i))
				}
				if step == 20 {
					p.restore(t, 50, 256)
				}
				if next := at - event.Time(r.Intn(200)); r.Intn(100) < 70 && next > wm {
					wm = next
					fired += p.watermark(t, fmt.Sprintf("step %d wm=%v", step, wm), wm)
					for _, tr := range p.eng.win.trig.list {
						shared = shared || len(tr.queries) > 1
					}
				}
			}
			if fired == 0 || !shared {
				t.Fatalf("workload fired %d rows, shared triggers: %v; the test proved nothing", fired, shared)
			}
		})
	}
}

// deploy creates qs at event-time at on every instance and returns their
// table entries on the engine and the reference instance, in qs order.
func (p *firePair) deploy(t *testing.T, b *clBuilder, at event.Time, qs ...*Query) (eng, ref []*liveQuery) {
	t.Helper()
	p.changelog(b.create(t, at, qs...), at)
	for _, q := range qs {
		eng = append(eng, p.eng.win.queries.byID[q.ID])
		ref = append(ref, p.ref.win.queries.byID[q.ID])
	}
	return eng, ref
}

// TestFireCoincidentExtents: windows of different specs that end on the same
// extent fire as one trigger carrying all their queries in (slot, ID) order,
// and the rows match the one-query-at-a-time reference.
func TestFireCoincidentExtents(t *testing.T) {
	p := newFirePair(0, 16)
	b := newCLBuilder()
	p.deploy(t, b, 0,
		aggQ(window.TumblingSpec(2000), sqlstream.AggSum, 0, expr.True()),
		aggQ(window.SlidingSpec(2000, 500), sqlstream.AggMax, 1, expr.True()),
		aggQ(window.TumblingSpec(1000), sqlstream.AggCount, 0, expr.True()),
		aggQ(window.SlidingSpec(1000, 500), sqlstream.AggMin, 2, expr.True()),
		aggQ(window.SlidingSpec(2000, 500), sqlstream.AggAvg, 3, expr.True()),
		aggQ(window.TumblingSpec(2000), sqlstream.AggSum, 4, expr.True()),
	)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 800; i++ {
		tu := event.Tuple{Key: int64(i % 7), Time: event.Time(i * 5), IngestNanos: int64(i + 1)}
		for k := 0; k < 6; k++ {
			if r.Intn(3) > 0 {
				tu.QuerySet.Set(k)
			}
		}
		for f := range tu.Fields {
			tu.Fields[f] = int64(r.Intn(100))
		}
		p.tuple(tu)
	}

	p.eng.win.collectTriggers(2000)
	var got []string
	for _, tr := range p.eng.win.trig.list {
		ids := make([]int, len(tr.queries))
		for i, aq := range tr.queries {
			ids[i] = aq.q.ID
		}
		got = append(got, fmt.Sprintf("[%d,%d)%v", tr.ext.Start, tr.ext.End, ids))
	}
	want := []string{
		"[-1500,500)[2 5]", "[-500,500)[4]",
		"[-1000,1000)[2 5]", "[0,1000)[3 4]",
		"[-500,1500)[2 5]", "[500,1500)[4]",
		"[0,2000)[1 2 5 6]", "[1000,2000)[3 4]",
	}
	assertSameStrings(t, "triggers", got, want)

	if p.watermark(t, "wm=2000", 2000) == 0 || p.watermark(t, "wm=4000", 4000) == 0 {
		t.Fatal("no rows fired")
	}
}

// TestFireTwoCapGroupsOneSlot fires one trigger holding a pending-deleted
// query, the running query that re-uses its slot, and a bystander: two cap
// groups with the same slot in both. OnWatermark never builds this trigger (a
// window must end after the re-user's activation and no later than the
// tenant's deletion, which precedes it), so the fire is driven directly;
// fireWindow must not depend on that.
func TestFireTwoCapGroupsOneSlot(t *testing.T) {
	p := newFirePair(0, 8)
	b := newCLBuilder()
	eng, ref := p.deploy(t, b, 0,
		aggQ(window.TumblingSpec(200), sqlstream.AggSum, 0, expr.True()),
		aggQ(window.TumblingSpec(200), sqlstream.AggSum, 0, expr.True()),
	)
	feed := func(from, to event.Time, slots ...int) {
		for at := from; at < to; at += 3 {
			tu := event.Tuple{Key: int64(at % 4), Time: at, QuerySet: bitset.FromIndexes(slots...), IngestNanos: int64(at + 1)}
			tu.Fields[0] = int64(at)
			p.tuple(tu)
		}
	}
	feed(0, 100, 0, 1)
	p.changelog(b.remove(t, 100, eng[0].q.ID), 100)
	feed(100, 120, 1)
	e3, r3 := p.deploy(t, b, 120, aggQ(window.TumblingSpec(200), sqlstream.AggSum, 0, expr.True()))
	if e3[0].slot != eng[0].slot {
		t.Fatalf("query 3 took slot %d, want the freed slot %d", e3[0].slot, eng[0].slot)
	}
	feed(120, 200, 0, 1)

	ext := window.Extent{Start: 0, End: 200}
	cur := p.eng.win.table.Latest()
	p.eng.fireWindow(ext, []*liveQuery{eng[0], e3[0], eng[1]}) // (slot, ID) order
	for _, aq := range []*liveQuery{ref[0], r3[0], ref[1]} {
		p.ref.fireWindowScan(ext, aq, cur)
	}
	assertSameStrings(t, "rows", p.engOut, p.refOut)
	if len(p.engOut) != 12 {
		t.Fatalf("%d rows, want 4 keys for each of 3 queries", len(p.engOut))
	}
	if len(p.eng.win.caps) != 2 {
		t.Fatalf("%d cap groups, want 2", len(p.eng.win.caps))
	}
	// Key 0 holds times ≡ 0 mod 12: the deleted tenant sees [0,100), its
	// successor [120,200), the bystander everything.
	for i, want := range []string{"val=432", "val=1092", "val=1736"} {
		if row := p.engOut[i*4]; !strings.Contains(row, "key=0 "+want) {
			t.Errorf("query %d key 0: %s, want %s", i, row, want)
		}
	}
}

// TestFireManyMemberships: more than 64 distinct effective memberships under
// one cap (where the class engine this path replaced gave up sharing) is
// nothing special — the queries simply end in blocks of their own.
func TestFireManyMemberships(t *testing.T) {
	const n = 70
	p := newFirePair(0, n)
	qs := make([]*Query, n)
	for i := range qs {
		qs[i] = aggQ(window.TumblingSpec(100), sqlstream.AggSum, 0, expr.True())
	}
	p.deploy(t, newCLBuilder(), 0, qs...)
	distinct := map[string]bool{}
	for i := 0; i < 700; i++ {
		tu := event.Tuple{Key: int64(i % 5), Time: event.Time(i % 100), IngestNanos: int64(i + 1)}
		tu.QuerySet = bitset.FromIndexes(i%n, (i*7)%n, (i*13+1)%n)
		tu.Fields[0] = int64(i)
		distinct[tu.QuerySet.String()] = true
		p.tuple(tu)
	}
	if len(distinct) <= 64 {
		t.Fatalf("only %d distinct memberships", len(distinct))
	}
	if p.watermark(t, "wm=100", 100) == 0 {
		t.Fatal("no rows fired")
	}
	if len(p.eng.blocks.parts) <= 64 {
		t.Fatalf("%d blocks for %d queries with pairwise distinct memberships", len(p.eng.blocks.parts), n)
	}
}

// TestFireBlocksAreExact: two queries share a block exactly when no
// (slice, class) of the run tells them apart — a single group in a single
// slice that holds one and not the other separates them. A second fire over
// the same extent finds the same blocks from scratch holding only its own
// memberships.
func TestFireBlocksAreExact(t *testing.T) {
	for _, odd := range []bool{false, true} {
		p := newFirePair(0, 4)
		eng, _ := p.deploy(t, newCLBuilder(), 0,
			aggQ(window.SlidingSpec(100, 50), sqlstream.AggSum, 0, expr.True()),
			aggQ(window.SlidingSpec(100, 50), sqlstream.AggSum, 0, expr.True()),
			aggQ(window.SlidingSpec(100, 50), sqlstream.AggSum, 0, expr.True()),
		)
		for i := 0; i < 40; i++ {
			p.tuple(event.Tuple{Key: int64(i % 3), Time: event.Time(i * 2), QuerySet: bitset.FromIndexes(0, 1)})
			p.tuple(event.Tuple{Key: int64(i % 3), Time: event.Time(i * 2), QuerySet: bitset.FromIndexes(2)})
		}
		if odd {
			p.tuple(event.Tuple{Key: 1, Time: 70, QuerySet: bitset.FromIndexes(0)})
		}
		p.eng.fireWindow(window.Extent{Start: 0, End: 100}, eng)
		blk := p.eng.blocks.of
		if blk[2] == blk[0] || blk[2] == blk[1] {
			t.Fatalf("odd=%v: query 3 shares a block: %v", odd, blk)
		}
		if same := blk[0] == blk[1]; same == odd {
			t.Fatalf("odd=%v: queries 1 and 2 share a block: %v (blocks %v)", odd, same, blk)
		}
		blk, members := slices.Clone(blk), len(p.eng.members)
		p.eng.fireWindow(window.Extent{Start: 0, End: 100}, eng)
		if !slices.Equal(p.eng.blocks.of, blk) || len(p.eng.members) != members {
			t.Fatalf("odd=%v: the second fire found blocks %v from %d memberships, the first %v from %d",
				odd, p.eng.blocks.of, len(p.eng.members), blk, members)
		}
	}
}

// TestFireSealsSliceSets: the first fire over a slice seals it into the
// classes a brute force over its groups predicts — wide query-sets included —
// and keeps nothing open beside them: no group, no partial. A late tuple that
// adds a group to such a slice unseals it; a snapshot or the next fire seals
// it again into the classes of every group it has seen, and the fires of the
// engine and of an instance restored from that snapshot still match the
// reference.
func TestFireSealsSliceSets(t *testing.T) {
	const n = 70
	p := newFirePair(50, n)
	qs := make([]*Query, n)
	for i := range qs {
		qs[i] = aggQ(window.SlidingSpec(400, 200), sqlstream.AggSum, 0, expr.True())
	}
	// A query no tuple selects keeps [200,400) alive past the fire at 600,
	// so its second seal can be looked at.
	keeper := aggQ(window.SlidingSpec(600, 200), sqlstream.AggSum, 0, expr.True())
	p.deploy(t, newCLBuilder(), 0, append(qs, keeper)...)
	feed := func(from, to event.Time) {
		for at := from; at < to; at += 2 {
			i := int(at)
			tu := event.Tuple{Key: int64(i % 3), Time: at, IngestNanos: int64(i + 1)}
			tu.QuerySet = bitset.FromIndexes(i%n, (i*7)%n)
			tu.Fields[0] = int64(i)
			p.tuple(tu)
		}
	}
	feed(0, 400)
	x := sliceAt(t, p.eng, 400).aggs
	if x.open == nil {
		t.Fatal("the slice [200,400) is sealed before any fire")
	}
	wide := 0
	for _, g := range x.open.order {
		if g.qs.WordCount() > 1 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no query-set wider than one word; the test proved nothing")
	}
	want := bruteSeal(x)
	if p.watermark(t, "wm=400", 400) == 0 {
		t.Fatal("no rows fired")
	}
	assertSealed(t, x, want)

	// Late, but inside the slice [200,400) that [200,600) still needs: a
	// query-set no group there has yet.
	late := event.Tuple{Key: 9, Time: 390, IngestNanos: 1000, QuerySet: bitset.FromIndexes(1, 2, 69)}
	late.Fields[0] = 7
	p.tuple(late)
	if x.open == nil || len(x.classes) != 0 || x.rows != nil {
		t.Fatal("a tuple splitting the slice's classes left it sealed")
	}
	want = bruteSeal(x)
	p.restore(t, 50, n)
	assertSealed(t, x, want)
	feed(400, 600)
	if p.watermark(t, "wm=600", 600) == 0 {
		t.Fatal("no rows fired")
	}
	assertSealed(t, x, want)
}

// sealed is a sealed slice's layout in plain form: per class its slots and
// its rows.
type sealed struct {
	slots [][]int32
	rows  [][]aggRow
}

// bruteSeal is what sealing x's open groups must give, by brute force: the
// slots grouped by the exact set of groups containing them, classes in
// smallest-slot order, and per class and key the merge of the partials of
// every group containing the class.
func bruteSeal(x *aggIndex) sealed {
	in := map[int][]int{} // slot → the groups containing it
	for gi, g := range x.open.order {
		for _, s := range g.qs.Indexes() {
			in[s] = append(in[s], gi)
		}
	}
	slots := make([]int, 0, len(in))
	for s := range in {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	var out sealed
	class := map[string]int{}
	for _, s := range slots {
		sig := fmt.Sprint(in[s])
		c, ok := class[sig]
		if !ok {
			c = len(out.slots)
			class[sig] = c
			out.slots = append(out.slots, nil)
			acc := map[int64]*aggVal{}
			for _, gi := range in[s] {
				g := x.open.order[gi]
				for _, key := range g.keys {
					if acc[key] == nil {
						acc[key] = &aggVal{}
						acc[key].reset()
					}
					acc[key].merge(g.byKey[key])
				}
			}
			var rows []aggRow
			for key, v := range acc {
				rows = append(rows, aggRow{key: key, v: *v})
			}
			slices.SortFunc(rows, func(a, b aggRow) int { return cmp.Compare(a.key, b.key) })
			out.rows = append(out.rows, rows)
		}
		out.slots[c] = append(out.slots[c], int32(s))
	}
	return out
}

// layoutOf reads a sealed slice's layout.
func layoutOf(x *aggIndex) sealed {
	var out sealed
	for c := range x.classes {
		out.slots = append(out.slots, slices.Clone(x.classSlots(c)))
		out.rows = append(out.rows, slices.Clone(x.classRows(c)))
	}
	return out
}

// assertSealed: a sealed slice keeps its class rows alone — no open group,
// map or partial — laid out as want.
func assertSealed(t *testing.T, x *aggIndex, want sealed) {
	t.Helper()
	if x.open != nil {
		t.Fatal("the slice is not sealed")
	}
	got := layoutOf(x)
	if !reflect.DeepEqual(got.slots, want.slots) {
		t.Fatalf("sealed classes differ from the brute force:\n got %v\nwant %v", got.slots, want.slots)
	}
	for c := range want.rows {
		if !reflect.DeepEqual(got.rows[c], want.rows[c]) {
			t.Fatalf("class %v: rows differ from the brute force:\n got %v\nwant %v", got.slots[c], got.rows[c], want.rows[c])
		}
	}
}

// The tests below pin what a sealed slice must keep doing: take a late
// tuple, survive a snapshot, serve wide query-sets and several cap groups,
// and give every partial back. Each compares every row, in order, with the
// reference.

// sealQueries are four sliding windows over [200,400)'s slice for three
// fires (ending 400, 600, 800), one per aggregate family, and a fifth that
// feedSeal never selects, so its slot is in no class.
func sealQueries() []*Query {
	spec := window.SlidingSpec(600, 200)
	return []*Query{
		aggQ(spec, sqlstream.AggSum, 0, expr.True()),
		aggQ(spec, sqlstream.AggMax, 1, expr.True()),
		aggQ(spec, sqlstream.AggCount, 0, expr.True()),
		aggQ(spec, sqlstream.AggMin, 2, expr.True()),
		aggQ(spec, sqlstream.AggAvg, 3, expr.True()),
	}
}

// feedSeal folds tuples at every other time in [from, to) into p under three
// query-set groups over slots 0–3, five keys each: classes {0,1} and {2,3}.
func feedSeal(p *firePair, from, to event.Time) {
	sets := []bitset.Bits{bitset.FromIndexes(0, 1), bitset.FromIndexes(2, 3), bitset.FromIndexes(0, 1, 2, 3)}
	for at := from; at < to; at += 2 {
		i := int(at)
		tu := event.Tuple{Key: int64(i % 5), Time: at, IngestNanos: int64(i + 1), QuerySet: sets[i%3]}
		for f := range tu.Fields {
			tu.Fields[f] = int64((i*7+f*13)%50) - 25
		}
		p.tuple(tu)
	}
}

// lateSeal is a tuple at 390 — behind watermark 400, inside the slice
// [200,400) that two more windows need — whose key and query-set pick which
// kind of late fold it is.
func lateSeal(key int64, slots ...int) event.Tuple {
	tu := event.Tuple{Key: key, Time: 390, IngestNanos: 9000, QuerySet: bitset.FromIndexes(slots...)}
	tu.Fields = [event.NumFields]int64{100, -100, 77, 3, 4}
	return tu
}

// lateSealCases are the kinds of tuple into the sealed slice [200,400): one
// its rows take in place, and three that unseal it — a key new to a class, a
// query-set cutting both classes, a slot of no class.
var lateSealCases = []struct {
	name    string
	late    event.Tuple
	inPlace bool
}{
	{"existing partial", lateSeal(1, 0, 1, 2, 3), true},
	{"new key", lateSeal(99, 2, 3), false},
	{"new group", lateSeal(1, 1, 2), false},
	{"unclassed slot", lateSeal(1, 0, 1, 4), false},
}

// sliceAt returns a's slice ending at end.
func sliceAt(t *testing.T, a *SharedAggregation, end event.Time) *slice {
	t.Helper()
	for _, sl := range a.win.sides[0].slices {
		if sl.ext.End == end {
			return sl
		}
	}
	t.Fatalf("no slice ends at %v", end)
	return nil
}

// TestFireLateIntoSealedSlice: a tuple behind the watermark but not behind
// the eviction mark lands in a slice a fire has already sealed. Whether its
// rows take it in place or it unseals the slice, the next two windows over
// the slice count it, once each, as the reference does — and a second late
// tuple of the same kind, arriving after the next fire sealed the slice
// again, too.
func TestFireLateIntoSealedSlice(t *testing.T) {
	for _, tc := range lateSealCases {
		t.Run(tc.name, func(t *testing.T) {
			p := newFirePair(400, 5)
			p.deploy(t, newCLBuilder(), 0, sealQueries()...)
			feedSeal(p, 0, 400)
			if p.watermark(t, "wm=400", 400) == 0 {
				t.Fatal("no rows fired")
			}
			x := sliceAt(t, p.eng, 400).aggs
			if x.open != nil || len(x.classes) != 2 {
				t.Fatalf("the fire left [200,400) with %d classes, open %v; want 2, sealed", len(x.classes), x.open != nil)
			}
			for round, wm := range []event.Time{600, 800} {
				p.tuple(tc.late)
				// The second arrival finds the rows the first one made.
				if sealed := x.open == nil; sealed != (tc.inPlace || round > 0) {
					t.Fatalf("round %d: slice sealed %v after the late tuple", round, sealed)
				}
				feedSeal(p, wm-200, wm)
				if p.watermark(t, fmt.Sprintf("wm=%v", wm), wm) == 0 {
					t.Fatal("no rows fired")
				}
			}
			if late := p.eng.metrics.Late; late != 0 {
				t.Fatalf("%d tuples dropped as late; the slice was meant to take them", late)
			}
		})
	}
}

// TestFireSealRestoreLateFold: a snapshot cut after a fire sealed a slice
// restores an instance whose slice is sealed into the same classes; late
// tuples of every kind then fold into both, the two snapshots stay
// byte-identical, and the next fires of the engine, the restored instance
// and the reference agree.
func TestFireSealRestoreLateFold(t *testing.T) {
	p := newFirePair(400, 5)
	p.deploy(t, newCLBuilder(), 0, sealQueries()...)
	feedSeal(p, 0, 400)
	if p.watermark(t, "wm=400", 400) == 0 {
		t.Fatal("no rows fired")
	}
	p.restore(t, 400, 5)
	want := layoutOf(sliceAt(t, p.eng, 400).aggs)
	assertSealed(t, sliceAt(t, p.restored, 400).aggs, want)
	for _, tc := range lateSealCases {
		p.tuple(tc.late)
		assertSameSnapshot(t, "after a late fold ("+tc.name+")", fullLink(p.eng), fullLink(p.restored))
	}
	feedSeal(p, 400, 600)
	if p.watermark(t, "wm=600", 600) == 0 {
		t.Fatal("no rows fired")
	}
	p.tuple(lateSeal(97, 1, 2))
	assertSameSnapshot(t, "after the next fire", fullLink(p.eng), fullLink(p.restored))
	feedSeal(p, 600, 800)
	if p.watermark(t, "wm=800", 800) == 0 {
		t.Fatal("no rows fired")
	}
}

// TestFireWideQuerySets: 150 queries, so query-sets span three words and
// groups are found through the wide-set path, with late tuples of wide sets
// into sealed slices and a restore halfway.
func TestFireWideQuerySets(t *testing.T) {
	const n = 150
	p := newFirePair(300, n)
	qs := make([]*Query, n)
	fns := []sqlstream.AggFunc{sqlstream.AggSum, sqlstream.AggMax, sqlstream.AggCount, sqlstream.AggMin, sqlstream.AggAvg}
	for i := range qs {
		qs[i] = aggQ(window.SlidingSpec(400, 100), fns[i%len(fns)], i%event.NumFields, expr.True())
	}
	p.deploy(t, newCLBuilder(), 0, qs...)
	r := rand.New(rand.NewSource(3))
	wide := 0
	for step := 1; step <= 12; step++ {
		wm := event.Time(step * 100)
		for i := 0; i < 80; i++ {
			at := wm - 100 + event.Time(r.Intn(100))
			if i%10 == 0 && step > 1 {
				at = wm - 100 - event.Time(1+r.Intn(150)) // late: behind the last watermark
			}
			tu := event.Tuple{Key: int64(r.Intn(8)), Time: at, IngestNanos: int64(step*100 + i)}
			for k := 0; k < 1+r.Intn(3); k++ {
				tu.QuerySet.Set(r.Intn(n))
			}
			if tu.QuerySet.WordCount() > 2 {
				wide++
			}
			for f := range tu.Fields {
				tu.Fields[f] = int64(r.Intn(60)) - 30
			}
			p.tuple(tu)
		}
		if step == 6 {
			p.restore(t, 300, n)
		}
		p.watermark(t, fmt.Sprintf("wm=%v", wm), wm)
	}
	if wide == 0 {
		t.Fatal("no query-set beyond two words; the test proved nothing")
	}

	// A tuple whose query-set spans three words, and one whose set fits one,
	// fold into their groups' partials without allocating: the masked set
	// lands in the operator's scratch, spilled or not, and a group of either
	// width is found by its set's hash.
	wideTu, narrowTu := event.Tuple{Key: 3, Time: 1250}, event.Tuple{Key: 3, Time: 1250}
	for _, q := range []int{1, 70, 140} {
		wideTu.QuerySet.Set(q)
	}
	narrowTu.QuerySet.Set(1)
	fold := func() {
		p.eng.OnTuple(0, wideTu, nil)
		p.eng.OnTuple(0, narrowTu, nil)
	}
	fold()
	if avg := testing.AllocsPerRun(100, fold); avg != 0 {
		t.Errorf("a wide and a narrow tuple's folds allocated %.1f times, want 0", avg)
	}
}

// TestFireTwoCapGroupsOneRun: a query deleted at 300 still fires its windows
// ending by then, in the same triggers as a running query and the query that
// re-uses its slot from 320 — two cap groups over runs of three slices.
func TestFireTwoCapGroupsOneRun(t *testing.T) {
	p := newFirePair(200, 8)
	b := newCLBuilder()
	spec := window.SlidingSpec(300, 100)
	eng, _ := p.deploy(t, b, 0,
		aggQ(spec, sqlstream.AggSum, 0, expr.True()),
		aggQ(spec, sqlstream.AggMax, 0, expr.True()))
	feed := func(from, to event.Time) {
		for at := from; at < to; at++ {
			tu := event.Tuple{Key: int64(at % 6), Time: at, IngestNanos: int64(at + 1), QuerySet: bitset.FromIndexes(0, 1)}
			if at%3 == 0 {
				tu.QuerySet = bitset.FromIndexes(0)
			}
			tu.Fields[0] = int64(at%17) - 8
			p.tuple(tu)
		}
	}
	feed(0, 300)
	p.changelog(b.remove(t, 300, eng[0].q.ID), 300)
	feed(300, 320)
	e3, _ := p.deploy(t, b, 320, aggQ(spec, sqlstream.AggCount, 0, expr.True()))
	if e3[0].slot != eng[0].slot {
		t.Fatalf("query 3 took slot %d, want the freed slot %d", e3[0].slot, eng[0].slot)
	}
	feed(320, 400)
	if p.watermark(t, "wm=400", 400) == 0 {
		t.Fatal("no rows fired")
	}
	two := false
	for _, tr := range p.eng.win.trig.list {
		// [0,300) spans the slices [0,100), [100,200) and [200,300).
		two = two || (len(p.eng.win.capGroups(tr.queries)) == 2 && tr.ext.Start == 0)
	}
	if !two {
		t.Fatal("no trigger held two cap groups over three slices; the test proved nothing")
	}
	feed(400, 700)
	if p.watermark(t, "wm=700", 700) == 0 {
		t.Fatal("no rows fired")
	}
}

// heldPartials counts the partials a's open slices hold.
func heldPartials(a *SharedAggregation) (n int) {
	for _, sl := range a.win.sides[0].slices {
		if sl.aggs != nil && sl.aggs.open != nil {
			for _, g := range sl.aggs.open.order {
				n += len(g.keys)
			}
		}
	}
	return n
}

// TestFireEvictionRecyclesPartials: a partial lives only while its slice is
// open — after every fire, each carved partial is on the freelist, uncarved,
// or held by an open slice, the slabs adding up to whole chunks — and once
// every slice is evicted all of them are back; a second identical round, late
// tuples unsealing slices included, carves nothing and leaves as many groups,
// group indexes, slice indexes and row backings pooled as the first. A slice
// its queries stop inside is evicted open, never sealed, and its partials
// come back as well.
func TestFireEvictionRecyclesPartials(t *testing.T) {
	p := newFirePair(400, 5)
	b := newCLBuilder()
	live, _ := p.deploy(t, b, 0, sealQueries()...)
	round := func(base event.Time) {
		feedSeal(p, base, base+800)
		for _, wm := range []event.Time{400, 800} {
			p.watermark(t, fmt.Sprintf("wm=%v", base+wm), base+wm)
			pooled, slab, held := len(p.eng.valPool), len(p.eng.valSlab), heldPartials(p.eng)
			if (pooled+slab+held)%aggSlabLen != 0 {
				t.Fatalf("wm=%v: %d partials pooled, %d uncarved, %d in open slices: a sealed slice kept one", base+wm, pooled, slab, held)
			}
			if x := sliceAt(t, p.eng, base+wm).aggs; x.open != nil {
				t.Fatalf("wm=%v: the slice the fire closed is open", base+wm)
			}
			// Into the slice just sealed: an existing partial, then a new key.
			for _, key := range []int64{1, int64(wm)} {
				tu := lateSeal(key, 0, 1)
				tu.Time = base + wm - 10
				p.tuple(tu)
			}
		}
		if late := p.eng.metrics.Late; late != 0 {
			t.Fatalf("%d tuples dropped as late; the sealed slices were meant to take them", late)
		}
		p.watermark(t, "drain", base+2000)
		if n := p.eng.LiveSlices(); n != 0 {
			t.Fatalf("%d slices live after the drain watermark", n)
		}
	}
	pools := func() [5]int {
		a := p.eng
		return [5]int{len(a.valPool), len(a.groupPool), len(a.openPool), len(a.indexPool), len(a.rowPool)}
	}
	round(0)
	first, slab := pools(), len(p.eng.valSlab)
	if first[0] == 0 || (first[0]+slab)%aggSlabLen != 0 {
		t.Fatalf("%d partials pooled and %d uncarved: some carved partial never came back", first[0], slab)
	}
	for i, n := range first {
		if n == 0 {
			t.Fatalf("freelist %d is empty after the drain; the test proved nothing", i)
		}
	}
	round(2000)
	if got := pools(); got != first || len(p.eng.valSlab) != slab {
		t.Fatalf("second round: pooled %v with %d uncarved; want %v and %d (something leaked, or a freelist grows every round)", got, len(p.eng.valSlab), first, slab)
	}

	// Every query stops at 4100: no window of theirs ends in (4000, 4100],
	// so the slice holding [4000, 4100) is never sealed.
	feedSeal(p, 4000, 4100)
	var ids []int
	for _, lq := range live {
		ids = append(ids, lq.q.ID)
	}
	p.changelog(b.remove(t, 4100, ids...), 4100)
	if held := heldPartials(p.eng); held == 0 {
		t.Fatal("no partial in an open slice before the stop; the test proved nothing")
	}
	p.watermark(t, "after the stop", 6000)
	if n, held := p.eng.LiveSlices(), heldPartials(p.eng); n != 0 || held != 0 {
		t.Fatalf("%d slices live, %d partials held after the queries stopped", n, held)
	}
	if pooled, slab := len(p.eng.valPool), len(p.eng.valSlab); (pooled+slab)%aggSlabLen != 0 {
		t.Fatalf("%d partials pooled and %d uncarved: the slice evicted open kept some", pooled, slab)
	}

	// In steady state a slice's whole life — opened by a tuple, filled,
	// sealed by the watermark that fires it, unsealed by a late tuple with a
	// new key, evicted — takes everything off the freelists. What it
	// allocates is by design: the slice's header (slicer.sliceFor). The
	// watermark's list of windows ending goes into the driver's scratch.
	agg := benchAggWindow(1, window.SlidingSpec(200, 100))
	qs := bitset.FromIndexes(0)
	at, unseals := event.Time(0), 0
	life := func() {
		for k := range 4 {
			agg.OnTuple(0, benchTuple(k, qs, at+event.Time(k)), nil)
		}
		at += 100
		agg.OnWatermark(at, nil)
		x := agg.win.sides[0].sliceFor(at - 50).aggs
		sealed := x.open == nil
		agg.OnTuple(0, benchTuple(9, qs, at-50), nil)
		if sealed && x.open != nil {
			unseals++
		}
	}
	for range 8 {
		life()
	}
	if avg := testing.AllocsPerRun(100, life); avg > 1 {
		t.Errorf("a slice's life allocated %.1f times, want at most 1 (its header)", avg)
	}
	if unseals == 0 || agg.metrics.Late != 0 {
		t.Fatalf("%d late tuples unsealed a slice, %d were dropped; the check above proves less than it says", unseals, agg.metrics.Late)
	}
}

// TestFireSealOrdersAnyKeys: sealing orders class rows by key whatever bytes
// the keys differ in — negative keys, the extremes, keys apart in high bytes
// only — and rows leave in ascending key order as the reference's do.
func TestFireSealOrdersAnyKeys(t *testing.T) {
	keys := []int64{math.MinInt64, -1 << 40, -70000, -3, -1, 0, 1, 255, 256, 65537, 1 << 33, 3 << 56, math.MaxInt64}
	for _, keySet := range [][]int64{keys, {-2, -1}, {7, 7 + 1<<48}, {42}} {
		p := newFirePair(0, 5)
		p.deploy(t, newCLBuilder(), 0, sealQueries()...)
		r := rand.New(rand.NewSource(int64(len(keySet))))
		sets := []bitset.Bits{bitset.FromIndexes(0, 1), bitset.FromIndexes(2), bitset.FromIndexes(0, 1, 2, 3)}
		for i := 0; i < 300; i++ {
			tu := event.Tuple{Key: keySet[r.Intn(len(keySet))], Time: event.Time(r.Intn(200)), IngestNanos: int64(i + 1), QuerySet: sets[r.Intn(len(sets))]}
			for f := range tu.Fields {
				tu.Fields[f] = int64(r.Intn(90)) - 45
			}
			p.tuple(tu)
		}
		var want []sealed
		for _, sl := range p.eng.win.sides[0].slices {
			want = append(want, bruteSeal(sl.aggs))
		}
		if p.watermark(t, fmt.Sprintf("keys %v", keySet), 200) == 0 {
			t.Fatal("no rows fired")
		}
		for i, sl := range p.eng.win.sides[0].slices {
			assertSealed(t, sl.aggs, want[i])
		}
	}
}

// TestSealClassesArePartition: over random slices — wide and spilled
// query-sets, one-slot groups, slots shared by many groups, one instance
// sealing slice after slice through the same scratch — the seal's classes
// are the coarsest partition of the slots by the groups containing them, in
// smallest-slot order, and each class's rows merge its groups' partials
// (bruteSeal). Unsealing and sealing again reproduces both; so does
// unsealing, folding more tuples, and sealing, against a twin slice that
// took the same tuples and never sealed — the rule unseal relies on.
func TestSealClassesArePartition(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			a := NewSharedAggregation(1, 0, NewRouter(&OpMetrics{}), &OpMetrics{})
			width := []int{8, 64, 200}[seed%3]
			randSet := func() bitset.Bits {
				var qs bitset.Bits
				switch r.Intn(4) {
				case 0: // one slot
					qs.Set(r.Intn(width))
				case 1: // a block of slots, shared by many groups
					lo := r.Intn(width)
					for s := lo; s < min(width, lo+1+r.Intn(70)); s++ {
						qs.Set(s)
					}
				default:
					for k := 0; k <= r.Intn(6); k++ {
						qs.Set(r.Intn(width))
					}
				}
				return qs
			}
			randTuple := func(sets []bitset.Bits) event.Tuple {
				tu := event.Tuple{Key: int64(r.Intn(40)) - 20, IngestNanos: int64(r.Intn(1000)), QuerySet: sets[r.Intn(len(sets))]}
				for f := range tu.Fields {
					tu.Fields[f] = int64(r.Intn(100)) - 50
				}
				return tu
			}
			foldAll := func(tuples []event.Tuple, xs ...*aggIndex) {
				for _, tu := range tuples {
					for _, x := range xs {
						a.qsTmp.CopyFrom(tu.QuerySet)
						a.fold(x, &tu)
					}
				}
			}
			newSlice := func() *aggIndex {
				x := a.takeIndex()
				a.openIndex(x)
				return x
			}
			for slice := 0; slice < 6; slice++ {
				sets := make([]bitset.Bits, 1+r.Intn(40))
				wide := false
				for i := range sets {
					sets[i] = randSet()
					wide = wide || sets[i].WordCount() > 1
				}
				if width > 64 && !wide {
					sets = append(sets, bitset.FromIndexes(width-1, 0))
				}
				tuples := make([]event.Tuple, 50+r.Intn(400))
				for i := range tuples {
					tuples[i] = randTuple(sets)
				}
				x, twin := newSlice(), newSlice()
				foldAll(tuples, x, twin)
				want := bruteSeal(x)
				a.seal(x)
				assertSealed(t, x, want)

				a.unseal(x)
				a.seal(x)
				assertSealed(t, x, want)

				// More tuples, some on new query-sets, into the sealed slice
				// (in place or unsealing it) and into the twin.
				sets = append(sets, randSet(), randSet())
				more := make([]event.Tuple, 1+r.Intn(30))
				for i := range more {
					more[i] = randTuple(sets)
				}
				foldAll(more, x, twin)
				want = bruteSeal(twin)
				a.seal(x)
				assertSealed(t, x, want)
				a.seal(twin)
				assertSealed(t, twin, want)
				a.dropIndex(x)
				a.dropIndex(twin)
			}
		})
	}
}

// TestSealIgnoresGroupOrder: an open slice's groups come in whatever order
// their query-sets first arrive, so the same partials fed in another order
// can list the same groups in another order. Seal numbers classes by
// smallest slot and orders rows by key, so the sealed classes, slots and
// rows, the fired results and the snapshot bytes must not change with it.
func TestSealIgnoresGroupOrder(t *testing.T) {
	const n = 130 // query-sets up to three words wide
	r := rand.New(rand.NewSource(21))
	sets := make([]bitset.Bits, 24)
	for i := range sets {
		for k := 0; k <= r.Intn(4); k++ {
			sets[i].Set(r.Intn(n))
		}
	}
	tuples := make([]event.Tuple, 300)
	for i := range tuples {
		// a hundred tuples for each of the slices [0,200), [200,400) and
		// [400,600), in slice order: the orders below permute each slice's
		// tuples, not the order the slices open in
		at := event.Time(i/100*200 + r.Intn(200))
		tu := event.Tuple{Key: int64(r.Intn(9)), Time: at, IngestNanos: int64(i + 1), QuerySet: sets[r.Intn(len(sets))]}
		for f := range tu.Fields {
			tu.Fields[f] = int64(r.Intn(100)) - 50
		}
		tuples[i] = tu
	}
	fns := []sqlstream.AggFunc{sqlstream.AggSum, sqlstream.AggMax, sqlstream.AggCount, sqlstream.AggMin, sqlstream.AggAvg}
	type run struct {
		arrival string // per slice, the query-sets in the order they first arrive
		layouts []sealed
		snap    []byte
		fired   []string
	}
	feed := func(order []event.Tuple) run {
		var out run
		seen := map[string]bool{}
		for s := event.Time(0); s < 600; s += 200 {
			for _, tu := range order {
				if k := fmt.Sprint(s, tu.QuerySet); tu.Time >= s && tu.Time < s+200 && !seen[k] {
					seen[k] = true
					out.arrival += k + " "
				}
			}
		}
		qs := make([]*Query, n)
		for i := range qs {
			qs[i] = aggQ(window.SlidingSpec(400, 200), fns[i%len(fns)], i%event.NumFields, expr.True())
		}
		a := NewSharedAggregation(1, 1000, fireRouter(&out.fired, n), NewOpMetrics(nil))
		a.OnChangelog(newCLBuilder().create(t, 0, qs...), 0, nil)
		for _, tu := range order {
			a.OnTuple(0, tu, &spe.Emitter{})
		}
		out.snap = a.OnBarrier(1, nil)
		for _, sl := range a.win.sides[0].slices {
			if sl.aggs != nil {
				out.layouts = append(out.layouts, layoutOf(sl.aggs))
			}
		}
		a.OnWatermark(1000, nil)
		return out
	}
	want := feed(tuples)
	if len(want.layouts) != 3 || len(want.fired) == 0 {
		t.Fatalf("%d sealed slices and %d fired rows; the test proved nothing", len(want.layouts), len(want.fired))
	}
	reordered := 0
	for trial := 0; trial < 5; trial++ {
		order := slices.Clone(tuples)
		for s := 0; s < len(order); s += 100 {
			block := order[s : s+100]
			if trial == 0 {
				slices.Reverse(block)
			} else {
				r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			}
		}
		got := feed(order)
		if got.arrival != want.arrival {
			reordered++
		}
		if !reflect.DeepEqual(got.layouts, want.layouts) {
			t.Fatalf("order %d: sealed layouts differ:\n got %v\nwant %v", trial, got.layouts, want.layouts)
		}
		if !slices.Equal(got.snap, want.snap) {
			t.Fatalf("order %d: snapshot bytes differ", trial)
		}
		assertSameStrings(t, fmt.Sprintf("order %d", trial), got.fired, want.fired)
	}
	if reordered == 0 {
		t.Fatal("no order changed which query-set arrives first; the test proved nothing")
	}
}
