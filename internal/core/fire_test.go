package core

import (
	"fmt"
	"math/rand"
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
// queries, no cap groups, no blocks, no pooled partials — only the slice
// ring and the changelog table it reads. (Until PR 14 a pooled variant of
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
		rel, err := a.win.table.Rel(sl.epoch, capTo)
		if err != nil {
			panic(fmt.Sprintf("reference rel: %v", err))
		}
		for _, g := range sl.aggs.order {
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
	a.emitAccum(aq, ext, keys, acc)
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
				res.Key, res.Value, res.EventTime, res.IngestNanos))
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
	distinct := map[bitset.Key]bool{}
	for i := 0; i < 700; i++ {
		tu := event.Tuple{Key: int64(i % 5), Time: event.Time(i % 100), IngestNanos: int64(i + 1)}
		tu.QuerySet = bitset.FromIndexes(i%n, (i*7)%n, (i*13+1)%n)
		tu.Fields[0] = int64(i)
		distinct[tu.QuerySet.Key()] = true
		p.tuple(tu)
	}
	if len(distinct) <= 64 {
		t.Fatalf("only %d distinct memberships", len(distinct))
	}
	if p.watermark(t, "wm=100", 100) == 0 {
		t.Fatal("no rows fired")
	}
	if len(p.eng.blocks) <= 64 {
		t.Fatalf("%d blocks for %d queries with pairwise distinct memberships", len(p.eng.blocks), n)
	}
}

// TestFireBlocksAreExact: two queries share a block exactly when no
// (slice, group) of the run tells them apart — a single group in a single
// slice that holds one and not the other separates them.
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
		blk := p.eng.blkOf
		if blk[2] == blk[0] || blk[2] == blk[1] {
			t.Fatalf("odd=%v: query 3 shares a block: %v", odd, blk)
		}
		if same := blk[0] == blk[1]; same == odd {
			t.Fatalf("odd=%v: queries 1 and 2 share a block: %v (blocks %v)", odd, same, blk)
		}
	}
}

// TestFireSealsSliceSets: the first fire over a slice lays its groups'
// query-sets out back to back and re-points the wide ones at that layout (no
// second copy); a late tuple that adds a group to such a slice drops the
// layout, and the next fire — on the engine and on an instance restored from
// its snapshot — builds it again and still matches the reference.
func TestFireSealsSliceSets(t *testing.T) {
	const n = 70
	p := newFirePair(50, n)
	qs := make([]*Query, n)
	for i := range qs {
		qs[i] = aggQ(window.SlidingSpec(400, 200), sqlstream.AggSum, 0, expr.True())
	}
	p.deploy(t, newCLBuilder(), 0, qs...)
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
	if p.watermark(t, "wm=400", 400) == 0 {
		t.Fatal("no rows fired")
	}

	var sealed *slice
	for _, sl := range p.eng.win.sides[0].slices {
		if sl.ext.End == 400 {
			sealed = sl
		}
	}
	if sealed == nil || sealed.aggs.flat == nil {
		t.Fatal("the fired slice [200,400) is gone or was not sealed")
	}
	x := sealed.aggs
	from, wide := int32(0), 0
	for i, to := range x.ends {
		g := x.order[i]
		if !bitset.View(x.flat[from:to]).Equal(g.qs) {
			t.Fatalf("group %d: layout holds %v, group %v", i, x.flat[from:to], g.qs.Words())
		}
		if to-from > 1 {
			wide++
			// Setting a bit in the layout shows through the group's set:
			// they are the same words.
			x.flat[from] ^= 1 << 63
			if g.qs.Word(0) != x.flat[from] {
				t.Fatalf("group %d keeps a copy of its set beside the layout", i)
			}
			x.flat[from] ^= 1 << 63
		}
		from = to
	}
	if wide == 0 {
		t.Fatal("no query-set wider than one word; the test proved nothing")
	}

	// Late, but inside the slice [200,400) that [200,600) still needs: a
	// query-set no group there has yet.
	late := event.Tuple{Key: 9, Time: 390, IngestNanos: 1000, QuerySet: bitset.FromIndexes(1, 2, 69)}
	late.Fields[0] = 7
	p.tuple(late)
	if x.flat != nil {
		t.Fatal("a group added after sealing left the stale layout in place")
	}
	p.restore(t, 50, n)
	feed(400, 600)
	if p.watermark(t, "wm=600", 600) == 0 {
		t.Fatal("no rows fired")
	}
	if x.flat == nil || len(x.ends) != len(x.order) {
		t.Fatalf("slice not sealed again: %d ends for %d groups", len(x.ends), len(x.order))
	}
}
