package core

import (
	"reflect"
	"testing"
	"unsafe"

	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// TestResultPassesInRegisters: Result flattens to at most eight words, each
// an integer or a pointer, and is 64 bytes. An interface call to
// Sink.OnResult then passes it whole in registers (amd64's internal ABI has
// nine integer argument registers, one taken by the receiver); a ninth word,
// or an array, slice, string or interface among its fields, sends it
// through memory again, a block copy per delivery.
func TestResultPassesInRegisters(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the register budget is counted for 64-bit targets")
	}
	var words func(ty reflect.Type) int
	words = func(ty reflect.Type) int {
		switch ty.Kind() {
		case reflect.Struct:
			n := 0
			for i := 0; i < ty.NumField(); i++ {
				n += words(ty.Field(i).Type)
			}
			return n
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Pointer, reflect.UnsafePointer:
			return 1
		}
		t.Errorf("Result holds a %v (%v): not one integer register", ty, ty.Kind())
		return 0
	}
	if n := words(reflect.TypeOf(Result{})); n > 8 {
		t.Errorf("Result flattens to %d words, want at most 8", n)
	}
	if size := unsafe.Sizeof(Result{}); size != 64 {
		t.Errorf("Result is %d bytes, want 64", size)
	}
}

// TestJoinResultRowIsBorrowed: a join result's row belongs to the operator
// and is valid only during OnResult. One window end with two rows for one
// query: a sink that keeps r itself finds both kept results pointing at the
// operator's one row, holding the last delivery; a sink that keeps r.Own()
// keeps each row as it was delivered.
func TestJoinResultRowIsBorrowed(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, joinQ(window.TumblingSpec(10), expr.True(), expr.True()))
	id, slot := msg.CL.Created[0].Query, msg.CL.Created[0].Slot
	var kept, owned []Result
	r := NewRouter(&OpMetrics{})
	r.Register(id, SinkFunc(func(res Result) {
		kept = append(kept, res)
		owned = append(owned, res.Own())
	}))
	j := NewSharedJoin(0, 0, 0, r, &OpMetrics{})
	j.OnChangelog(msg, 0, nil)
	tuple := func(tm event.Time, f0 int64) event.Tuple {
		tu := event.Tuple{Key: 1, Time: tm}
		tu.Fields[0] = f0
		tu.QuerySet.Set(slot)
		return tu
	}
	j.OnTuple(0, tuple(1, 11), nil)
	j.OnTuple(0, tuple(2, 12), nil)
	j.OnTuple(1, tuple(3, 13), nil)
	j.OnWatermark(10, nil)

	if len(owned) != 2 {
		t.Fatalf("%d results, want 2 (two left tuples join one right tuple)", len(owned))
	}
	if owned[0].Join.Left[0] == owned[1].Join.Left[0] {
		t.Fatalf("owned rows %v and %v are the same row: Own did not copy", *owned[0].Join, *owned[1].Join)
	}
	for i, res := range owned {
		if res.Join == &j.row || res.Join.Right[0] != 13 || res.EventTime() != 3 {
			t.Fatalf("owned result %d: %+v (row %v), want its own copy of a row joining right tuple 13 at time 3", i, res, *res.Join)
		}
	}
	if kept[0].Join != &j.row || kept[1].Join != &j.row {
		t.Fatal("a delivered join result does not borrow the operator's row")
	}
	if !reflect.DeepEqual(*kept[0].Join, *owned[1].Join) {
		t.Fatalf("the first kept result reads %v, want the next delivery's row %v: the row was not overwritten", *kept[0].Join, *owned[1].Join)
	}
}

// TestStageBuiltSelectionServes: a selection built outside the engine, as a
// stage replay builds one, and given a router with SetRouter, answers its
// selection queries through it, and the tuples other queries want go on to
// the operator chained behind it, which delivers through the same router.
func TestStageBuiltSelectionServes(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, selQ(gt(0, 10)), aggQ(window.TumblingSpec(10), sqlstream.AggCount, 0, gt(0, 20)))
	selID, aggID := msg.CL.Created[0].Query, msg.CL.Created[1].Query
	r := NewRouter(&OpMetrics{})
	sel, agg := &collectSink{}, &collectSink{}
	r.Register(selID, sel)
	r.Register(aggID, agg)

	s := NewSharedSelection(0, 0, &OpMetrics{})
	s.SetRouter(r)
	a := NewSharedAggregation(1, 0, r, &OpMetrics{})
	s.OnChangelog(msg, 0, nil)
	a.OnChangelog(msg, 0, nil)
	out := spe.NewChainedEmitter(a, nil)
	for i, f0 := range []int64{5, 15, 25, 35} {
		tu := event.Tuple{Key: 1, Time: event.Time(i + 1)}
		tu.Fields[0] = f0
		s.OnTuple(0, tu, out)
	}
	a.OnWatermark(10, nil)

	if got := sel.all(); len(got) != 3 || got[0].Tuple.Fields[0] != 15 || got[2].Tuple.Fields[0] != 35 {
		t.Fatalf("selection query got %d results %v, want the three tuples above 10", len(got), canonResults(got))
	}
	if got := agg.all(); len(got) != 1 || got[0].Value != 2 || got[0].EventTime() != 10 {
		t.Fatalf("aggregation query got %v, want one count of 2 for window [0,10)", canonResults(got))
	}
}
