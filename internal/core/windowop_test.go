package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
)

// These tests pin the window driver's contract (DESIGN.md §15) once, for both
// of its clients: the event-time lifetime of a query, trigger collection, cap
// groups, retirement and the query-table codec behave the same whether the
// operator above the driver is the aggregation or a join stage.

// drivenOp is an operator seen through its driver.
type drivenOp struct {
	op    spe.Logic
	win   *windowOp
	late  *uint64
	query func(window.Spec) *Query
}

// drivenOps builds the driver's two clients.
var drivenOps = []struct {
	name string
	new  func() drivenOp
}{
	{"aggregation", func() drivenOp {
		m := NewOpMetrics(nil)
		a := NewSharedAggregation(1, 0, NewRouter(&OpMetrics{}), m)
		return drivenOp{op: a, win: &a.win, late: &m.Late, query: func(sp window.Spec) *Query {
			return aggQ(sp, sqlstream.AggSum, 0, expr.True())
		}}
	}},
	{"join", func() drivenOp {
		m := NewOpMetrics(nil)
		j := NewSharedJoin(0, 0, 0, NewRouter(&OpMetrics{}), m)
		return drivenOp{op: j, win: &j.win, late: &m.Late, query: func(sp window.Spec) *Query {
			return joinQ(sp, expr.True(), expr.True())
		}}
	}},
}

// feed stores one tuple carrying every slot on each of the driver's sides.
func (d drivenOp) feed(times ...event.Time) {
	for _, at := range times {
		for port := range d.win.sides {
			d.op.OnTuple(port, event.Tuple{Key: 1, Time: at, QuerySet: bitset.AllUpTo(16)}, nil)
		}
	}
}

// fired advances the watermark and lists the triggers it collected, each
// with its queries' IDs in trigger order.
func (d drivenOp) fired(wm event.Time) []string {
	d.op.OnWatermark(wm, nil)
	var out []string
	for _, tr := range d.win.trig.list {
		ids := make([]int, len(tr.queries))
		for i, lq := range tr.queries {
			ids[i] = lq.q.ID
		}
		out = append(out, fmt.Sprintf("%v%v", tr.ext, ids))
	}
	return out
}

func forEachDrivenOp(t *testing.T, fn func(t *testing.T, name string, d drivenOp, b *clBuilder)) {
	for _, c := range drivenOps {
		t.Run(c.name, func(t *testing.T) { fn(t, c.name, c.new(), newCLBuilder()) })
	}
}

// TestWindowDriverLifetime: a query fires the windows ending in
// (since, until] and no others. Query 1 is a host whose only window closes
// far in the future: it gives tuples older than query 2 a slice to live in.
func TestWindowDriverLifetime(t *testing.T) {
	for _, tc := range []struct {
		name         string
		spec         window.Spec
		data         []event.Time
		since, until event.Time // until 0: never deleted
		wms          []event.Time
		want         [][]string // triggers per watermark
	}{
		{
			name: "a window ending exactly at until fires, the next one does not",
			spec: window.TumblingSpec(100), data: []event.Time{0}, since: 0, until: 200,
			wms:  []event.Time{150, 300},
			want: [][]string{{"[0,100)[2]"}, {"[100,200)[2]"}},
		},
		{
			name: "sliding: the last window is the one ending at until",
			spec: window.SlidingSpec(100, 50), data: []event.Time{0}, since: 0, until: 200,
			wms:  []event.Time{400},
			want: [][]string{{"[-50,50)[2]", "[0,100)[2]", "[50,150)[2]", "[100,200)[2]"}},
		},
		{
			name: "windows ending at or before since are skipped",
			spec: window.SlidingSpec(100, 50), data: []event.Time{0}, since: 150,
			wms:  []event.Time{300},
			want: [][]string{{"[100,200)[2]", "[150,250)[2]", "[200,300)[2]"}},
		},
		{
			name: "the first watermark starts at the oldest slice",
			spec: window.TumblingSpec(100), data: []event.Time{250}, since: 0,
			wms:  []event.Time{400, 500},
			want: [][]string{{"[200,300)[2]", "[300,400)[2]"}, {"[400,500)[2]"}},
		},
		{
			name: "no data, no triggers",
			spec: window.TumblingSpec(100), since: 0,
			wms:  []event.Time{400, 500},
			want: [][]string{nil, {"[400,500)[2]"}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachDrivenOp(t, func(t *testing.T, _ string, d drivenOp, b *clBuilder) {
				// Changelogs and tuples arrive in event-time order: a
				// changelog's time is past every tuple stored before it.
				d.op.OnChangelog(b.create(t, -1000, d.query(window.TumblingSpec(1_000_000))), -1000, nil)
				q := d.query(tc.spec)
				for _, at := range tc.data {
					if at < tc.since {
						d.feed(at)
					}
				}
				d.op.OnChangelog(b.create(t, tc.since, q), tc.since, nil)
				for _, at := range tc.data {
					if at >= tc.since {
						d.feed(at)
					}
				}
				if tc.until != 0 {
					d.op.OnChangelog(b.remove(t, tc.until, q.ID), tc.until, nil)
				}
				for i, wm := range tc.wms {
					assertSameStrings(t, fmt.Sprintf("wm=%v", wm), d.fired(wm), tc.want[i])
				}
			})
		})
	}
}

// TestWindowDriverPendingDelete: a deleted query stays in the table, capped
// at the epoch before its deletion, until the first watermark at or past its
// deletion time; its slot's next tenant masks to the current epoch.
func TestWindowDriverPendingDelete(t *testing.T) {
	forEachDrivenOp(t, func(t *testing.T, _ string, d drivenOp, b *clBuilder) {
		q1, q2 := d.query(window.TumblingSpec(100)), d.query(window.TumblingSpec(100))
		d.op.OnChangelog(b.create(t, 0, q1, q2), 0, nil) // epoch 1
		d.feed(10, 110)
		d.op.OnChangelog(b.remove(t, 150, q1.ID), 150, nil) // epoch 2
		lq1 := d.win.queries.byID[q1.ID]
		if lq1 == nil || lq1.until != 150 || lq1.endEpoch != 1 {
			t.Fatalf("deleted query: %+v, want until=150 endEpoch=1", lq1)
		}
		q3 := d.query(window.TumblingSpec(100))
		d.op.OnChangelog(b.create(t, 160, q3), 160, nil) // epoch 3, re-uses q1's slot
		if lq3 := d.win.queries.byID[q3.ID]; lq3.slot != lq1.slot {
			t.Fatalf("query 3 took slot %d, want the freed slot %d", lq3.slot, lq1.slot)
		}

		// (slot, ID) order: the pending-deleted tenant and its successor
		// share a slot, the older ID first.
		var order []int
		for _, lq := range d.win.queries.ordered {
			order = append(order, lq.q.ID)
		}
		if fmt.Sprint(order) != "[1 3 2]" {
			t.Fatalf("table order %v, want [1 3 2]", order)
		}
		groups := d.win.capGroups(d.win.queries.ordered)
		if len(groups) != 2 || groups[0].cap != 1 || fmt.Sprint(groups[0].idxs) != "[0]" ||
			groups[1].cap != 3 || fmt.Sprint(groups[1].idxs) != "[1 2]" {
			t.Fatalf("cap groups %+v, want {1 [0]} {3 [1 2]}", groups)
		}

		// Windows ending ≤ 150 still fire for the deleted query; the
		// watermark stays short of its deletion time, so it is kept.
		assertSameStrings(t, "wm=120", d.fired(120), []string{"[0,100)[1 2]"})
		if d.win.queries.byID[q1.ID] == nil {
			t.Fatal("query purged before the watermark reached its deletion time")
		}
		// [100,200) ends after until: not q1's. wm ≥ until: purged.
		assertSameStrings(t, "wm=150", d.fired(150), nil)
		if d.win.queries.byID[q1.ID] != nil || len(d.win.queries.ordered) != 2 {
			t.Fatalf("query not purged at wm = until: %d left", len(d.win.queries.ordered))
		}
		// Query 3 was created at 160: [100,200) ends after that.
		assertSameStrings(t, "wm=200", d.fired(200), []string{"[100,200)[3 2]"})
		assertSameStrings(t, "wm=300", d.fired(300), []string{"[200,300)[3 2]"})
	})
}

// TestWindowDriverCoincidentExtents: windows of different specs that end on
// the same extent share one trigger carrying their queries in (slot, ID)
// order; triggers come in (End, Start) order.
func TestWindowDriverCoincidentExtents(t *testing.T) {
	forEachDrivenOp(t, func(t *testing.T, _ string, d drivenOp, b *clBuilder) {
		d.op.OnChangelog(b.create(t, 0,
			d.query(window.TumblingSpec(2000)),
			d.query(window.SlidingSpec(2000, 500)),
			d.query(window.TumblingSpec(1000)),
			d.query(window.SlidingSpec(1000, 500)),
			d.query(window.SlidingSpec(2000, 500)),
			d.query(window.TumblingSpec(2000)),
		), 0, nil)
		d.feed(0)
		assertSameStrings(t, "triggers", d.fired(2000), []string{
			"[-1500,500)[2 5]", "[-500,500)[4]",
			"[-1000,1000)[2 5]", "[0,1000)[3 4]",
			"[-500,1500)[2 5]", "[500,1500)[4]",
			"[0,2000)[1 2 5 6]", "[1000,2000)[3 4]",
		})
	})
}

// TestTriggerListCoalesces: equal extents share one trigger whatever the
// insertion order, triggers stay in (End, Start) order, queries keep their
// insertion order, and a second watermark reuses the first one's objects.
func TestTriggerListCoalesces(t *testing.T) {
	var l triggerList
	qs := make([]*liveQuery, 6)
	for i := range qs {
		qs[i] = &liveQuery{q: &Query{ID: i}}
	}
	fill := func() {
		l.reset()
		for q, ext := range []window.Extent{
			{Start: 0, End: 2000}, {Start: 1000, End: 2000}, {Start: 0, End: 2000},
			{Start: 0, End: 1000}, {Start: 1000, End: 2000}, {Start: 0, End: 2000},
		} {
			l.add(ext, qs[q])
		}
	}
	fill()
	var got []string
	for _, tr := range l.list {
		var ids []int
		for _, lq := range tr.queries {
			ids = append(ids, lq.q.ID)
		}
		got = append(got, fmt.Sprintf("%v%v", tr.ext, ids))
	}
	assertSameStrings(t, "triggers", got, []string{"[0,1000)[3]", "[0,2000)[0 2 5]", "[1000,2000)[1 4]"})
	if avg := testing.AllocsPerRun(100, fill); avg > 0 {
		t.Errorf("refilling the list allocates %.1f times, want 0", avg)
	}
}

// TestWindowDriverEviction: evictedThru advances side by side, as far as each
// side's slices were evicted, and a tuple older than its side's mark is
// dropped and counted as late.
func TestWindowDriverEviction(t *testing.T) {
	type arrival struct {
		port int
		at   event.Time
	}
	cases := map[string]struct {
		stored           []arrival
		thru100, thru300 [2]event.Time
		late, onTime     []arrival
	}{
		"aggregation": {
			stored:  []arrival{{0, 50}, {0, 150}, {0, 250}},
			thru100: [2]event.Time{100, event.MinTime}, thru300: [2]event.Time{300, event.MinTime},
			late: []arrival{{0, 299}, {0, 0}}, onTime: []arrival{{0, 300}},
		},
		"join": {
			stored:  []arrival{{0, 50}, {0, 150}, {1, 250}},
			thru100: [2]event.Time{100, event.MinTime}, thru300: [2]event.Time{200, 300},
			late: []arrival{{0, 199}, {1, 299}, {1, 0}}, onTime: []arrival{{0, 200}, {1, 300}},
		},
	}
	forEachDrivenOp(t, func(t *testing.T, name string, d drivenOp, b *clBuilder) {
		tc := cases[name]
		d.op.OnChangelog(b.create(t, 0, d.query(window.TumblingSpec(100))), 0, nil)
		send := func(as []arrival) {
			for _, a := range as {
				d.op.OnTuple(a.port, event.Tuple{Key: 1, Time: a.at, QuerySet: bitset.AllUpTo(4)}, nil)
			}
		}
		send(tc.stored)
		d.op.OnWatermark(100, nil)
		if d.win.evictedThru != tc.thru100 {
			t.Fatalf("evictedThru after wm=100: %v, want %v", d.win.evictedThru, tc.thru100)
		}
		d.op.OnWatermark(300, nil)
		if d.win.evictedThru != tc.thru300 {
			t.Fatalf("evictedThru after wm=300: %v, want %v", d.win.evictedThru, tc.thru300)
		}
		send(tc.late)
		send(tc.onTime)
		stored := 0
		for _, s := range d.win.sides {
			stored += len(s.slices)
		}
		if *d.late != uint64(len(tc.late)) || stored != len(tc.onTime) {
			t.Fatalf("%d late tuples counted and %d slices opened, want %d and %d", *d.late, stored, len(tc.late), len(tc.onTime))
		}

		// A query with longer windows keeps the slice at 300 past the
		// tumbling query's need only while it lives: once it is deleted and
		// purged, every slice goes.
		msg := b.create(t, 300, d.query(window.SlidingSpec(400, 100)))
		d.op.OnChangelog(msg, 300, nil)
		kept := func() (n int) {
			for _, s := range d.win.sides {
				n += len(s.slices)
			}
			return n
		}
		if d.op.OnWatermark(400, nil); kept() == 0 {
			t.Fatal("the longer query kept no slice; the check below proves nothing")
		}
		d.op.OnChangelog(b.remove(t, 400, msg.CL.Created[0].Query), 400, nil)
		if d.op.OnWatermark(500, nil); kept() != 0 {
			t.Fatalf("%d slices kept after the longer query was purged", kept())
		}
	})
}

// tableFixtures builds the two query tables an engine snapshots: a join
// stage's (terminal and pass-through queries, one pending-deleted) and the
// aggregation's (two ports, open session windows). The selection queries
// of the changelog are in neither.
func tableFixtures(t *testing.T) map[string]*queryTable {
	b := newCLBuilder()
	msg := b.create(t, 0,
		joinQ(window.SlidingSpec(100, 50), gt(0, 1), gt(1, 2)),
		complexQ(window.TumblingSpec(100), window.TumblingSpec(200), sqlstream.AggSum, 0, gt(0, 1), gt(1, 2)),
		aggQ(window.SessionSpec(10), sqlstream.AggSum, 0, gt(0, 5)),
		aggQ(window.TumblingSpec(50), sqlstream.AggMax, 1, expr.True()),
		selQ(gt(2, 7)), selQ(expr.True()),
	)
	del := b.remove(t, 40, 1, 4, 5)
	j := NewSharedJoin(0, 0, 0, NewRouter(&OpMetrics{}), &OpMetrics{})
	a := NewSharedAggregation(2, 0, NewRouter(&OpMetrics{}), &OpMetrics{})
	for _, op := range []spe.Logic{j, a} {
		op.OnChangelog(msg, 0, nil)
		op.OnChangelog(del, 40, nil)
	}
	// Two keys with open sessions, one of them with two.
	for _, at := range []event.Time{3, 5, 30} {
		a.OnTuple(0, event.Tuple{Key: 7, Time: at, QuerySet: bitset.AllUpTo(8)}, nil)
	}
	a.OnTuple(0, event.Tuple{Key: 2, Time: 8, QuerySet: bitset.AllUpTo(8)}, nil)
	if sess := a.win.queries.byID[3].sessions; len(sess) != 2 || sess[7].Open() != 2 {
		t.Fatalf("fixture has no open sessions: %v", sess)
	}
	return map[string]*queryTable{"join": &j.win.queries, "agg active": &a.win.queries}
}

// TestQueryTableCodec: every table an engine snapshots round-trips through
// the one codec byte-identically, lifetimes and open session windows
// included, and the decoder rejects trailing bytes, slots no engine assigns
// and ports the operator does not have.
func TestQueryTableCodec(t *testing.T) {
	for name, tbl := range tableFixtures(t) {
		t.Run(name, func(t *testing.T) {
			ports := 1
			if name == "agg active" {
				ports = 2
			}
			enc := tbl.appendTo(nil)
			decode := func(enc []byte, ports int) (*queryTable, error) {
				back := newQueryTable(tbl.specOf)
				r := wire.NewReader(enc)
				back.readFrom(r, ports)
				return &back, r.Finish("query table")
			}
			back, err := decode(enc, ports)
			if err != nil {
				t.Fatal(err)
			}
			if len(back.ordered) != len(tbl.ordered) || len(back.ordered) < 2 || len(back.byID) != len(back.ordered) {
				t.Fatalf("decoded %d queries (%d by ID), encoded %d", len(back.ordered), len(back.byID), len(tbl.ordered))
			}
			pending := 0
			for i, lq := range back.ordered {
				o := tbl.ordered[i]
				if lq.q.ID != o.q.ID || lq.slot != o.slot || lq.spec != o.spec || lq.port != o.port || lq.terminal != o.terminal ||
					lq.since != o.since || lq.until != o.until || lq.endEpoch != o.endEpoch || back.byID[lq.q.ID] != lq {
					t.Fatalf("query %d decoded as %+v, encoded %+v", o.q.ID, lq, o)
				}
				if lq.until == 40 && lq.endEpoch == 1 {
					pending++
				}
			}
			if pending == 0 {
				t.Fatal("fixture holds no pending-deleted query")
			}
			if again := back.appendTo(nil); !bytes.Equal(again, enc) {
				t.Fatalf("re-encoding the decoded table diverged (%d vs %d bytes)", len(again), len(enc))
			}

			if _, err := decode(append(enc[:len(enc):len(enc)], 0), ports); err == nil || !strings.Contains(err.Error(), "trailing") {
				t.Fatalf("trailing byte not rejected: %v", err)
			}
			if _, err := decode(enc[:len(enc)-1], ports); err == nil {
				t.Fatal("truncated table accepted")
			}
			bad := *tbl.ordered[0]
			bad.slot = changelog.MaxSlots
			if _, err := decode((&queryTable{ordered: []*liveQuery{&bad}}).appendTo(nil), ports); err == nil || !strings.Contains(err.Error(), "slot") {
				t.Fatalf("slot beyond MaxSlots not rejected: %v", err)
			}
			bad = *tbl.ordered[0]
			bad.port = ports
			if _, err := decode((&queryTable{ordered: []*liveQuery{&bad}}).appendTo(nil), ports); err == nil || !strings.Contains(err.Error(), "port") {
				t.Fatalf("port %d of %d not rejected: %v", ports, ports, err)
			}
			swapped := &queryTable{ordered: []*liveQuery{tbl.ordered[1], tbl.ordered[0]}}
			if _, err := decode(swapped.appendTo(nil), ports); err == nil || !strings.Contains(err.Error(), "after query") {
				t.Fatalf("records out of (slot, ID) order not rejected: %v", err)
			}
		})
	}

	// Session state appendTo never writes, each shape re-encoding to itself:
	// sessions on a query whose window is not a session window (its slot
	// would join the session mask at the next changelog and its tuples stop
	// folding into slices), open sessions that are empty, overlap, lie within
	// the gap or out of order, and a key with no open session.
	tbl := tableFixtures(t)["agg active"]
	sess, tumbling := tbl.byID[3], tbl.byID[4]
	forge := func(lq *liveQuery, open ...window.OpenSession) []byte {
		bad := *lq
		bad.sessions = map[int64]*window.SessionState{7: window.RestoreSessionState(lq.spec.Gap, open)}
		bad.sessKeys = []int64{7}
		return (&queryTable{ordered: []*liveQuery{&bad}}).appendTo(nil)
	}
	span := func(start, end event.Time) window.OpenSession {
		return window.OpenSession{Start: start, End: end, Sum: 4, Count: 1}
	}
	decode := func(enc []byte) error {
		back := newQueryTable(tbl.specOf)
		r := wire.NewReader(enc)
		back.readFrom(r, 2)
		return r.Finish("query table")
	}
	if err := decode(forge(sess, span(3, 6), span(16, 17))); err != nil {
		t.Fatalf("sessions exactly a gap apart rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"sessions on a tumbling query", forge(tumbling, span(3, 6)), "whose window is"},
		{"empty session", forge(sess, span(6, 6)), "empty or not gap-separated"},
		{"overlapping sessions", forge(sess, span(3, 9), span(5, 12)), "empty or not gap-separated"},
		{"sessions within the gap", forge(sess, span(3, 6), span(15, 16)), "empty or not gap-separated"},
		{"sessions out of order", forge(sess, span(30, 31), span(3, 6)), "empty or not gap-separated"},
		{"key with no open session", forge(sess), "no open session"},
	} {
		if err := decode(tc.enc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restored (%v)", tc.name, err)
		}
	}
}

// churnClient is one operator, engine- and reference-fired, through the
// selection-churn stream of TestSelectionChurnKeepsSlices.
type churnClient interface {
	changelog(msg *ChangelogMsg, at event.Time)
	tuple(port int, tu event.Tuple)
	// watermark advances every instance, holds the engine's rows to the
	// reference's (and the restored instance's, once there is one) and
	// returns them.
	watermark(t *testing.T, what string, wm event.Time) []string
	// link cuts the next snapshot of the chain; restore rebuilds a fresh
	// instance from the chain, which then follows the stream.
	link(t *testing.T)
	restore(t *testing.T)
	// wins lists the engine's driver, then the restored instance's.
	wins() []*windowOp
}

// aggChurn is an aggregation client; its chain is a full snapshot and the
// deltas on top of it.
type aggChurn struct {
	p     *firePair
	chain [][]byte
}

func (c *aggChurn) changelog(msg *ChangelogMsg, at event.Time) { c.p.changelog(msg, at) }
func (c *aggChurn) tuple(_ int, tu event.Tuple)                { c.p.tuple(tu) }

func (c *aggChurn) watermark(t *testing.T, what string, wm event.Time) []string {
	t.Helper()
	p := c.p
	p.eng.OnWatermark(wm, nil)
	refWatermark(p.ref, wm)
	assertSameStrings(t, what, p.engOut, p.refOut)
	if p.restored != nil {
		p.restored.OnWatermark(wm, nil)
		assertSameStrings(t, what+" (restored)", p.restOut, p.refOut)
	}
	rows := append([]string(nil), p.engOut...)
	p.engOut, p.refOut, p.restOut = p.engOut[:0], p.refOut[:0], p.restOut[:0]
	return rows
}

func (c *aggChurn) link(*testing.T) {
	c.chain = append(c.chain, c.p.eng.OnBarrier(uint64(len(c.chain)+1), nil))
}

func (c *aggChurn) restore(t *testing.T) {
	t.Helper()
	lateness := c.p.eng.win.lateness
	c.p.restored = NewSharedAggregation(1, lateness, fireRouter(&c.p.restOut, 1), NewOpMetrics(nil))
	restoreChain(t, c.p.restored, c.chain)
}

// restoreChain restores op from a chain: a full snapshot, then deltas.
func restoreChain(t *testing.T, op spe.Restorable, chain [][]byte) {
	t.Helper()
	for i, link := range chain {
		if i > 0 && link[0] != spe.DeltaSnapshotMagic {
			t.Fatalf("chain link %d is not a delta", i)
		}
		if err := op.Restore(link); err != nil {
			t.Fatalf("chain link %d: %v", i, err)
		}
	}
}

func (c *aggChurn) wins() []*windowOp {
	if c.p.restored == nil {
		return []*windowOp{&c.p.eng.win}
	}
	return []*windowOp{&c.p.eng.win, &c.p.restored.win}
}

// joinChurn is a join client; its chain, too, is a full snapshot and the
// deltas on top of it.
type joinChurn struct {
	p     *joinPair
	chain [][]byte
}

func (c *joinChurn) changelog(msg *ChangelogMsg, at event.Time) { c.p.changelog(msg, at) }
func (c *joinChurn) tuple(port int, tu event.Tuple)             { c.p.tuple(port, tu) }

func (c *joinChurn) watermark(t *testing.T, what string, wm event.Time) []string {
	t.Helper()
	p := c.p
	p.eng.j.OnWatermark(wm, p.eng.pass)
	refJoinWatermark(p.ref, wm, p.refOut)
	rows := p.eng.out.canon()
	assertSameStrings(t, what, rows, p.refOut.canon())
	if p.restored != nil {
		p.restored.j.OnWatermark(wm, p.restored.pass)
		assertSameStrings(t, what+" (restored)", p.restored.out.canon(), rows)
		clear(p.restored.out)
	}
	clear(p.eng.out)
	clear(p.refOut)
	return rows
}

func (c *joinChurn) link(*testing.T) {
	c.chain = append(c.chain, c.p.eng.j.OnBarrier(uint64(len(c.chain)+1), nil))
}

func (c *joinChurn) restore(t *testing.T) {
	t.Helper()
	c.p.restored = newJoinEngine(c.p.eng.j.win.lateness, 1)
	restoreChain(t, c.p.restored.j, c.chain)
}

func (c *joinChurn) wins() []*windowOp {
	if c.p.restored == nil {
		return []*windowOp{&c.p.eng.j.win}
	}
	return []*windowOp{&c.p.eng.j.win, &c.p.restored.j.win}
}

// ringExtents lists every side's slice extents.
func ringExtents(w *windowOp) string {
	var b strings.Builder
	for side, s := range w.sides {
		fmt.Fprintf(&b, "side %d:", side)
		for _, sl := range s.slices {
			fmt.Fprintf(&b, " %v", sl.ext)
		}
		b.WriteString("; ")
	}
	return b.String()
}

// TestSelectionChurnKeepsSlices: a changelog that creates or deletes none of
// an operator's windowed queries cuts none of its slices. One tuple stream is
// fed twice, plain and with a selection query swapped every other tick (a
// stop and a start changelog per swap), to a sliding aggregation, a tumbling
// aggregation and a sliding join. Every windowed query gets the same rows,
// every side the same slice extents, the engine fire agrees with the
// one-query reference (fireWindowScan, joinWindowScan), and for either
// operator a full snapshot plus deltas cut between a swap's two changelogs
// restores to the same rows.
// Over 10 000 swaps the changelog table retains no more epochs than the plain
// run's: the relabeled slices keep naming the newest epoch, so compaction
// passes the changelogs they outlive.
func TestSelectionChurnKeepsSlices(t *testing.T) {
	const (
		lateness = 5
		swaps    = 10_000
		every    = 2 // ticks per swap
	)
	for _, tc := range []struct {
		name  string
		query func() *Query
		new   func() churnClient
		width int // slots the tuples carry: the windowed query's, plus the selection's for the aggregation
	}{
		{"sliding aggregation", func() *Query { return aggQ(window.SlidingSpec(40, 10), sqlstream.AggSum, 0, expr.True()) },
			func() churnClient { return &aggChurn{p: newFirePair(lateness, 1)} }, 2},
		{"tumbling aggregation", func() *Query { return aggQ(window.TumblingSpec(30), sqlstream.AggMax, 1, expr.True()) },
			func() churnClient { return &aggChurn{p: newFirePair(lateness, 1)} }, 2},
		// A join row's query-set keeps other operators' bits from the pair's
		// epochs; the tuples carry only the join's slot, so the rows, query
		// sets included, must match the plain run's exactly.
		{"sliding join", func() *Query { return joinQ(window.SlidingSpec(20, 10), expr.True(), expr.True()) },
			func() churnClient { return &joinChurn{p: newJoinPair(lateness, 1)} }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, churn := tc.new(), tc.new()
			pb, cb := newCLBuilder(), newCLBuilder()
			plain.changelog(pb.create(t, 0, tc.query()), 0)
			churn.changelog(cb.create(t, 0, tc.query()), 0)
			sides := len(plain.wins()[0].sides)
			sel := 0 // the running selection query's ID, 0 for none
			fired := 0
			for tick := event.Time(1); tick <= swaps*every; tick++ {
				if tick%every == 0 {
					if sel != 0 {
						churn.changelog(cb.remove(t, tick, sel), tick)
					}
					switch tick {
					case 100, 114, 128: // the chain's links, between a stop and its start
						churn.link(t)
						if tick == 128 {
							churn.restore(t)
						}
					}
					msg := cb.create(t, tick, selQ(expr.True()))
					sel = msg.CL.Created[0].Query
					churn.changelog(msg, tick)
				}
				for port := 0; port < sides; port++ {
					tu := event.Tuple{Key: int64(tick % 16), Time: tick, IngestNanos: int64(tick), QuerySet: bitset.AllUpTo(tc.width)}
					tu.Fields[0], tu.Fields[1] = int64(tick%7), int64(port)
					plain.tuple(port, tu)
					churn.tuple(port, tu)
				}
				if tick <= 3 {
					continue
				}
				what := fmt.Sprintf("wm=%v", tick-3)
				want := plain.watermark(t, what+" plain", tick-3)
				assertSameStrings(t, what+" churn vs plain", churn.watermark(t, what+" churn", tick-3), want)
				fired += len(want)
				pw := plain.wins()[0]
				for i, w := range churn.wins() {
					if got, want := ringExtents(w), ringExtents(pw); got != want {
						t.Fatalf("%s: churned instance %d holds slices %s, the plain run %s", what, i, got, want)
					}
					// Until the horizon (wm − lateness) reaches the query's
					// creation, neither run can compact past epoch 0.
					if got, want := w.table.RetainedRows(), pw.table.RetainedRows(); got > want && tick-3 >= lateness {
						t.Fatalf("%s: churned instance %d retains %d changelog epochs, the plain run %d", what, i, got, want)
					}
				}
			}
			if w := churn.wins(); fired == 0 || len(w) != 2 || w[0].table.Latest() != 2*swaps {
				t.Fatalf("%d rows fired, %d instances, table at epoch %d; the test proved nothing", fired, len(w), w[0].table.Latest())
			}
		})
	}
}

// TestWindowDriverRejectsChangelogsOutOfOrder: changelogs reach an operator
// in seq and event-time order, and the driver asserts both — a changelog
// skipping a seq, or one behind the last epoch's time, panics the operator
// (its supervisor turns that into an instance failure) instead of slicing
// on.
func TestWindowDriverRejectsChangelogsOutOfOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		skip   bool // apply the third changelog instead of the second
		at     event.Time
		panics string
	}{
		{"skipping a seq", true, 300, "core: window table"},
		{"behind the last epoch", false, 50, "core: window epoch"},
	} {
		forEachDrivenOp(t, func(t *testing.T, _ string, d drivenOp, b *clBuilder) {
			d.op.OnChangelog(b.create(t, 100, d.query(window.TumblingSpec(100))), 100, nil)
			cl := b.create(t, 200, d.query(window.TumblingSpec(100)))
			if tc.skip {
				cl = b.create(t, 300, d.query(window.TumblingSpec(100)))
			}
			defer func() {
				if p := fmt.Sprint(recover()); !strings.Contains(p, tc.panics) {
					t.Errorf("%s: panic %q, want %q", tc.name, p, tc.panics)
				}
			}()
			d.op.OnChangelog(cl, tc.at, nil)
		})
	}
}

// TestEpochMasksAgreeWithLifetimes is the oracle of the aggregation's slot
// masks: over seeded changelog scripts — aggregation, session, complex and
// selection queries created and deleted, slots reused, several changelogs
// at one event-time, a complex query of a port the operator lacks — the
// epoch in effect at any time t a tuple may still carry masks, per port,
// exactly the slots of the queries whose lifetime since ≤ t < until holds
// and that the aggregation serves on that port, and as sessions exactly the
// session-window ones among them. A snapshot restored mid-script is held to
// the same.
func TestEpochMasksAgreeWithLifetimes(t *testing.T) {
	type life struct {
		slot, port   int
		session      bool
		since, until event.Time
	}
	const ports, lateness = 2, 30
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := newCLBuilder()
		a := NewSharedAggregation(ports, lateness, NewRouter(&OpMetrics{}), &OpMetrics{})
		lives := map[int]*life{}
		var active []int
		at, wm := event.Time(0), event.MinTime
		newQuery := func() *Query {
			switch r.Intn(6) {
			case 0:
				return aggQ(window.SessionSpec(4), sqlstream.AggCount, 0, expr.True())
			case 1:
				return complexQ(window.TumblingSpec(10), window.TumblingSpec(20), sqlstream.AggCount, -1, expr.True(), expr.True())
			case 2:
				return complexQ(window.TumblingSpec(10), window.TumblingSpec(20), sqlstream.AggCount, -1, expr.True(), expr.True(), expr.True())
			case 3:
				return selQ(expr.True())
			default:
				return aggQ(window.SlidingSpec(20, 5), sqlstream.AggSum, 0, expr.True())
			}
		}
		check := func(step int) {
			t.Helper()
			lo := event.Time(0)
			if wm != event.MinTime {
				lo = max(lo, wm-lateness)
			}
			for tm := lo; tm <= at+2; tm++ {
				var want [ports]bitset.Bits
				var sess bitset.Bits
				for _, l := range lives {
					if l.port >= 0 && l.port < ports && l.since <= tm && tm < l.until {
						want[l.port].Set(l.slot)
						if l.session {
							sess.Set(l.slot)
						}
					}
				}
				ep := a.win.sides[0].epochAt(tm)
				for p := range want {
					var got bitset.Bits
					if p < len(ep.portMasks) {
						got = ep.portMasks[p]
					}
					if !got.Equal(want[p]) {
						t.Fatalf("seed %d step %d: port %d mask at %v is %v, the lifetimes give %v", seed, step, p, tm, got, want[p])
					}
				}
				if !ep.sessMask.Equal(sess) {
					t.Fatalf("seed %d step %d: session mask at %v is %v, the lifetimes give %v", seed, step, tm, ep.sessMask, sess)
				}
			}
		}
		for step := 0; step < 60; step++ {
			at += event.Time(r.Intn(3)) // 0: a second changelog at one time
			var del []int
			if len(active) > 0 && r.Intn(3) == 0 {
				r.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
				n := 1 + r.Intn(min(3, len(active)))
				del, active = active[:n:n], active[n:]
			}
			qs := make([]*Query, r.Intn(3))
			for i := range qs {
				qs[i] = newQuery()
			}
			msg := b.apply(t, at, del, qs...)
			for _, d := range del {
				lives[d].until = at
			}
			for i, c := range msg.CL.Created {
				q := qs[i]
				lives[c.Query] = &life{slot: c.Slot, port: aggPortOf(q), session: q.Window.Kind == window.Session,
					since: at, until: event.MaxTime}
				active = append(active, c.Query)
			}
			a.OnChangelog(msg, at, nil)
			if r.Intn(4) == 0 && at-5 > a.win.lastWM {
				wm = at - 5
				a.OnWatermark(wm, nil)
			}
			if step == 30 {
				restored := NewSharedAggregation(ports, lateness, NewRouter(&OpMetrics{}), &OpMetrics{})
				if err := restored.Restore(a.OnBarrier(1, nil)); err != nil {
					t.Fatal(err)
				}
				a = restored
			}
			check(step)
		}
	}
}

// TestLateTupleUsesTheMasksOfItsTime: a tuple is masked with the epoch in
// effect at its own time, not the newest. Tumbling query T holds slot s
// until 8, where one changelog deletes it and hands s to session query S;
// then a tuple from 5 arrives. At 5, s is T's, a slice query's: the tuple
// counts in T's window [4,8), and S, which starts at 8, never sees it.
func TestLateTupleUsesTheMasksOfItsTime(t *testing.T) {
	b := newCLBuilder()
	msgT := b.create(t, 0, aggQ(window.TumblingSpec(4), sqlstream.AggCount, 0, expr.True()))
	tID, slot := msgT.CL.Created[0].Query, msgT.CL.Created[0].Slot
	msgS := b.apply(t, 8, []int{tID}, aggQ(window.SessionSpec(4), sqlstream.AggCount, 0, expr.True()))
	sID := msgS.CL.Created[0].Query
	if msgS.CL.Created[0].Slot != slot {
		t.Fatal("S does not take T's slot")
	}
	var got []string
	a := NewSharedAggregation(1, 10, captureRouter(&got, tID, sID), &OpMetrics{})
	a.OnChangelog(msgT, 0, nil)
	tuple := func(tm event.Time) event.Tuple {
		return event.Tuple{Key: 1, Time: tm, QuerySet: bitset.FromIndexes(slot)}
	}
	for _, tm := range []event.Time{1, 2, 3} {
		a.OnTuple(0, tuple(tm), nil)
	}
	a.OnChangelog(msgS, 8, nil)
	a.OnTuple(0, tuple(5), nil) // late
	a.OnTuple(0, tuple(9), nil)
	a.OnWatermark(30, nil)
	want := []string{
		fmt.Sprintf("q%d aggregation w=[t0,t4) key=1 val=3 join={0 [0 0 0 0 0] [0 0 0 0 0] t0 0 0} et=t4", tID),
		fmt.Sprintf("q%d aggregation w=[t4,t8) key=1 val=1 join={0 [0 0 0 0 0] [0 0 0 0 0] t0 0 0} et=t8", tID),
		fmt.Sprintf("q%d aggregation w=[t9,t10) key=1 val=1 join={0 [0 0 0 0 0] [0 0 0 0 0] t0 0 0} et=t10", sID),
	}
	assertSameStrings(t, "results", got, want)
}
