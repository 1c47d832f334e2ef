package core

import (
	"fmt"
	"math/rand"
	"testing"

	"astream/internal/event"
	"astream/internal/window"
)

// TestTriggerListCoalesces: equal extents share one trigger whatever the
// insertion order, triggers stay in (End, Start) order, queries keep their
// insertion order, and a second watermark reuses the first one's objects.
func TestTriggerListCoalesces(t *testing.T) {
	var l triggerList[int]
	fill := func() {
		l.reset()
		for q, ext := range []window.Extent{
			{Start: 0, End: 2000}, {Start: 1000, End: 2000}, {Start: 0, End: 2000},
			{Start: 0, End: 1000}, {Start: 1000, End: 2000}, {Start: 0, End: 2000},
		} {
			l.add(ext, q)
		}
	}
	fill()
	var got []string
	for _, tr := range l.list {
		got = append(got, fmt.Sprintf("[%d,%d)%v", tr.ext.Start, tr.ext.End, tr.queries))
	}
	assertSameStrings(t, "triggers", got, []string{"[0,1000)[3]", "[0,2000)[0 2 5]", "[1000,2000)[1 4]"})
	if avg := testing.AllocsPerRun(100, fill); avg > 0 {
		t.Errorf("refilling the list allocates %.1f times, want 0", avg)
	}
}

// TestJoinCoincidentExtents is the join half of the trigger fix: queries
// whose specs coincide on an extent fire as one trigger in (slot, ID) order,
// and every sink receives exactly the rows, in exactly the order, it gets
// when each (extent, query) fires on its own.
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
				out[id] = append(out[id], fmt.Sprintf("w=[%v,%v) join=%v et=%v", res.Window.Start, res.Window.End, res.Join, res.EventTime))
			}))
		}
		return r
	}
	var gotOut, wantOut [n + 1][]string
	got := NewSharedJoin(0, StoreGrouped, 0, sinks(&gotOut), &OpMetrics{})
	want := NewSharedJoin(0, StoreGrouped, 0, sinks(&wantOut), &OpMetrics{})
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

	got.collectTriggers(2000)
	full := got.trig.list[len(got.trig.list)-1]
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
		want.collectTriggers(wm)
		cur := want.table.Latest()
		for _, tr := range want.trig.list {
			for _, aq := range tr.queries {
				want.fireWindow(tr.ext, []*joinQuery{aq}, cur, nil)
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
