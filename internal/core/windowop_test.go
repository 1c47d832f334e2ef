package core

import (
	"bytes"
	"fmt"
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
		j := NewSharedJoin(0, StoreGrouped, 0, NewRouter(&OpMetrics{}), m)
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
	})
}

// tableFixtures builds the three query tables an engine snapshots: a join
// stage's (terminal and pass-through queries, one pending-deleted), the
// aggregation's active table (two ports, open session windows) and its
// selection table.
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
	j := NewSharedJoin(0, StoreList, 0, NewRouter(&OpMetrics{}), &OpMetrics{})
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
	return map[string]*queryTable{"join": &j.win.queries, "agg active": &a.win.queries, "agg selection": &a.selection}
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
		})
	}
}
