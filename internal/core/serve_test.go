package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// formatServed renders a selection result field by field, the tuple's
// query-set and stream included.
func formatServed(r Result) string {
	return fmt.Sprintf("q%d %v k=%d t=%v s=%d qs=%v f=%v in=%d et=%v rin=%d w=%v key=%d val=%d join=%v",
		r.QueryID, r.Kind, r.Tuple.Key, r.Tuple.Time, r.Tuple.Stream, r.Tuple.QuerySet.Words(),
		r.Tuple.Fields, r.Tuple.IngestNanos, r.EventTime, r.IngestNanos, r.Window, r.Key, r.Value, r.Join)
}

// servedRouter registers one formatting sink per query ID, all appending to
// out in delivery order.
func servedRouter(out *[]string, ids ...int) *Router {
	r := NewRouter(&OpMetrics{})
	for _, id := range ids {
		r.Register(id, SinkFunc(func(res Result) { *out = append(*out, formatServed(res)) }))
	}
	return r
}

// TestSelectionServesItsQueries: the selection delivers one result per
// selection query a tuple matches, in slot order, with the tuple as it would
// have been emitted; a tuple only selection queries match reaches no
// downstream operator, and any other is emitted with its whole set. The
// table is built so its entries are not in slot order: a query created into
// a slot its changelog frees lands behind the queries carried over.
func TestSelectionServesItsQueries(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, selQ(gt(0, 10)), selQ(gt(0, 20)), selQ(gt(0, 30)),
		aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, 40)))
	ids := make([]int, 0, 5)
	for _, c := range msg.CL.Created {
		ids = append(ids, c.Query)
	}
	re := b.apply(t, 5, ids[:1], selQ(gt(0, 0)))
	newID := re.CL.Created[0].Query
	if re.CL.Created[0].Slot != msg.CL.Created[0].Slot {
		t.Fatalf("query %d took slot %d, not the freed slot %d", newID, re.CL.Created[0].Slot, msg.CL.Created[0].Slot)
	}
	var served, emitted []string
	sel := NewSharedSelection(0, 10, &OpMetrics{})
	sel.router = servedRouter(&served, append(ids, newID)...)
	sel.OnChangelog(msg, 0, nil)
	sel.OnChangelog(re, 5, nil)
	if v := sel.versions[len(sel.versions)-1]; v.entries[len(v.entries)-1].id != newID {
		t.Fatalf("entries %+v: the reused slot's query is not last, so slot order is not entry order", v.entries)
	}
	out := tapEmitter(&emitted)
	tuple := func(tm event.Time, f0 int64) event.Tuple {
		tu := event.Tuple{Key: 3, Time: tm, IngestNanos: 77}
		tu.Fields[0] = f0
		return tu
	}

	// Before the reuse: the first three selection queries only.
	sel.OnTuple(0, tuple(2, 35), out)
	early := emittedAs(tuple(2, 35), 0, 1, 2)
	want := []string{
		formatServed(Result{QueryID: ids[0], Kind: KindSelection, Tuple: early, EventTime: 2, IngestNanos: 77}),
		formatServed(Result{QueryID: ids[1], Kind: KindSelection, Tuple: early, EventTime: 2, IngestNanos: 77}),
		formatServed(Result{QueryID: ids[2], Kind: KindSelection, Tuple: early, EventTime: 2, IngestNanos: 77}),
	}
	assertSameStrings(t, "served before the reuse", served, want)
	if len(emitted) != 0 {
		t.Fatalf("a tuple only selection queries match was emitted: %v", emitted)
	}

	// After it: slot 0's new query first, then slots 1 and 2; the
	// aggregation query keeps the tuple going, its whole set with it.
	served = served[:0]
	sel.OnTuple(0, tuple(7, 45), out)
	full := emittedAs(tuple(7, 45), 0, 1, 2, 3)
	want = []string{
		formatServed(Result{QueryID: newID, Kind: KindSelection, Tuple: full, EventTime: 7, IngestNanos: 77}),
		formatServed(Result{QueryID: ids[1], Kind: KindSelection, Tuple: full, EventTime: 7, IngestNanos: 77}),
		formatServed(Result{QueryID: ids[2], Kind: KindSelection, Tuple: full, EventTime: 7, IngestNanos: 77}),
	}
	assertSameStrings(t, "served after the reuse", served, want)
	assertSameStrings(t, "emitted", emitted, []string{fmt.Sprintf("k=%d t=%v s=%d qs=%v f=%v",
		full.Key, full.Time, full.Stream, full.QuerySet.Words(), full.Fields)})

	// No router: the instance serves nothing and emits what it selects.
	served, emitted = served[:0], emitted[:0]
	sel.router = nil
	sel.OnTuple(0, tuple(8, 35), out)
	if len(served) != 0 || len(emitted) != 1 {
		t.Fatalf("without a router: served %v, emitted %v; want nothing served and the tuple emitted", served, emitted)
	}
}

// emittedAs is tu as the selection of stream 0 emits it with slots set.
func emittedAs(tu event.Tuple, slots ...int) event.Tuple {
	for _, s := range slots {
		tu.QuerySet.Set(s)
	}
	tu.Stream = 0
	return tu
}

// TestSelectionSlotReuseKeepsLateTuples: a selection query in slot s is
// deleted, an aggregation query takes slot s, and then a tuple from before
// the deletion arrives late. It reaches the selection query only: it is
// classified against the table of its own time, and is not folded under the
// query that holds its slot now.
func TestSelectionSlotReuseKeepsLateTuples(t *testing.T) {
	var clock atomic.Int64
	eng, err := NewEngine(Config{
		BatchSize: 1, BatchTimeout: time.Hour, WatermarkEvery: 1, Lateness: 100,
		NowNanos: func() int64 { return clock.Add(1000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	selSink, aggSink := &collectSink{}, &collectSink{}
	selID, ack, err := eng.Submit(selQ(expr.True()), selSink)
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	ingest := func(tm event.Time) {
		t.Helper()
		if err := eng.Ingest(0, event.Tuple{Key: int64(tm % 4), Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	for tm := event.Time(1); tm <= 10; tm++ {
		ingest(tm)
	}
	selSlot, _ := eng.registry.SlotOf(selID)
	stopped, err := eng.StopQuery(selID)
	if err != nil {
		t.Fatal(err)
	}
	<-stopped
	aggID, ack, err := eng.Submit(aggQ(window.TumblingSpec(100), sqlstream.AggCount, 0, expr.True()), aggSink)
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	if slot, _ := eng.registry.SlotOf(aggID); slot != selSlot {
		t.Fatalf("aggregation query took slot %d, not the deleted selection query's %d", slot, selSlot)
	}
	ingest(5) // late: before the deletion at 11
	ingest(20)
	eng.Drain()
	if n := len(selSink.all()); n != 11 {
		t.Fatalf("selection query got %d results, want the 10 on time and the late one", n)
	}
	if got := aggSink.all(); len(got) != 1 || got[0].Key != 0 || got[0].Value != 1 {
		t.Fatalf("aggregation query counted %+v; want one row, the tuple at 20 (key 0), the late tuple not folded under it", got)
	}
}

// TestSelectionSinksAgreeAcrossDeployments: each selection query's sink gets
// the same rows at P=1 (selection and aggregation fused), at P=2 and with a
// second stream (a keyed exchange between them). Across one instance the
// order is the whole order; at P=2 it is each key's order, the only one a
// keyed exchange keeps.
func TestSelectionSinksAgreeAcrossDeployments(t *testing.T) {
	run := func(streams, parallelism int) map[int][]string {
		var clock atomic.Int64
		eng, err := NewEngine(Config{
			Streams: streams, Parallelism: parallelism,
			BatchSize: 1, BatchTimeout: time.Hour, WatermarkEvery: 1, Lateness: 20,
			NowNanos: func() int64 { return clock.Add(1000) },
		})
		if err != nil {
			t.Fatal(err)
		}
		sinks := map[int]*collectSink{}
		submit := func(q *Query) int {
			s := &collectSink{}
			id, ack, err := eng.Submit(q, s)
			if err != nil {
				t.Fatal(err)
			}
			<-ack
			sinks[id] = s
			return id
		}
		ingest := func(i int) {
			tu := event.Tuple{Key: int64(i % 5), Time: event.Time(i - i%3*7), IngestNanos: int64(1 + i)}
			tu.Fields[0], tu.Fields[1] = int64(i*37%100), int64(i*11%100)
			if tu.Time < 0 {
				tu.Time = 0
			}
			if err := eng.Ingest(0, tu); err != nil {
				t.Fatal(err)
			}
		}
		a := submit(selQ(gt(0, 50)))
		submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 1, gt(1, 30)))
		submit(selQ(gt(1, 70)))
		for i := 0; i < 60; i++ {
			ingest(i)
		}
		stopped, err := eng.StopQuery(a)
		if err != nil {
			t.Fatal(err)
		}
		<-stopped
		submit(selQ(gt(0, 20))) // into a's slot
		for i := 60; i < 120; i++ {
			ingest(i)
		}
		eng.Drain()
		out := map[int][]string{}
		for id, s := range sinks {
			for _, r := range s.all() {
				if r.Kind == KindSelection {
					out[id] = append(out[id], formatServed(r))
				}
			}
		}
		return out
	}
	fused := run(1, 1)
	if len(fused) != 3 {
		t.Fatalf("%d selection sinks got results, want 3", len(fused))
	}
	byKey := func(rows []string) map[string][]string {
		m := map[string][]string{}
		for _, r := range rows {
			var id, key int
			fmt.Sscanf(r, "q%d selection k=%d", &id, &key)
			m[fmt.Sprint(key)] = append(m[fmt.Sprint(key)], r)
		}
		return m
	}
	for name, got := range map[string]map[int][]string{"Streams=2": run(2, 1), "P=2": run(1, 2)} {
		for id, want := range fused {
			if name == "P=2" {
				g, w := slices.Clone(got[id]), slices.Clone(want)
				slices.Sort(g)
				slices.Sort(w)
				if !slices.Equal(g, w) {
					t.Fatalf("%s: query %d got %d rows, fused %d, or other rows", name, id, len(g), len(w))
				}
				for key, rows := range byKey(want) {
					assertSameStrings(t, fmt.Sprintf("%s query %d key %s", name, id, key), byKey(got[id])[key], rows)
				}
				continue
			}
			assertSameStrings(t, fmt.Sprintf("%s query %d", name, id), got[id], want)
		}
	}
}
