package core

import (
	"bytes"
	"reflect"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
	"astream/internal/wire/wiretest"
)

// The fuzz targets below share one property: arbitrary bytes handed to a
// decoder yield an error — never a panic, a hang, or an allocation out of
// proportion to the input — and bytes a decoder accepts re-encode to
// themselves (wiretest.Canonical). Seeds are valid encodings plus the torn, corrupt and
// trailing-byte fixtures of the unit tests.

func addCorruptions(f *testing.F, enc []byte) {
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:len(enc)-1])
	f.Add(append(append([]byte(nil), enc...), 0xEE, 0xFF))
	f.Add(append([]byte{99}, enc[1:]...))
}

func fuzzQueries() []*Query {
	qs := []*Query{
		aggQ(window.TumblingSpec(10), sqlstream.AggSum, 1, gt(0, 20)),
		joinQ(window.SlidingSpec(8, 2), expr.True(), gt(3, -7)),
		complexQ(window.TumblingSpec(6), window.TumblingSpec(12), sqlstream.AggCount, -1,
			expr.True(), gt(4, -3).And(expr.Comparison{Field: expr.KeyField, Op: expr.EQ, Value: 5}), expr.True()),
		selQ(gt(expr.KeyField, 5)),
		aggQ(window.SessionSpec(7), sqlstream.AggAvg, 2, expr.True()),
	}
	for i, q := range qs {
		q.ID = 100 + i
	}
	return qs
}

// TestQueryCodecRoundTrip: every query shape re-decodes to an equal value,
// ID included (the log replays it, the snapshots restore it).
func TestQueryCodecRoundTrip(t *testing.T) {
	for i, q := range fuzzQueries() {
		r := wire.NewReader(AppendQuery(nil, q))
		got := ReadQuery(r)
		if err := r.Finish("query"); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Fatalf("query %d round trip mismatch:\n%+v\n%+v", i, q, got)
		}
	}
	if enc := AppendQuery(nil, selQ(expr.True())); len(enc) != queryMinSize+4 {
		t.Fatalf("one-predicate query is %d bytes; queryMinSize says %d+4", len(enc), queryMinSize)
	}
	r := wire.NewReader([]byte{1, 2})
	if ReadQuery(r); r.Err() == nil {
		t.Fatal("truncated query must fail")
	}
}

func FuzzReadQuery(f *testing.F) {
	for _, q := range fuzzQueries() {
		enc := AppendQuery(nil, q)
		f.Add(enc)
		f.Add(enc[:len(enc)-9])
		f.Add(append(enc, 0xEE))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			r := wire.NewReader(in)
			q := ReadQuery(r)
			if r.Finish("query") != nil {
				return
			}
			if back := AppendQuery(nil, q); !bytes.Equal(back, in) {
				t.Fatalf("accepted query re-encodes differently:\n in %x\nout %x", in, back)
			}
		})
	})
}

func FuzzSelectionRestore(f *testing.F) {
	b := newCLBuilder()
	sel := NewSharedSelection(0, 10, &OpMetrics{})
	sel.OnChangelog(b.create(f, 0, selQ(gt(0, 50)), aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(1, 3))), 0, nil)
	sel.OnChangelog(b.remove(f, 5, 1), 5, nil)
	sel.OnChangelog(b.create(f, 7, selQ(gt(expr.KeyField, 2))), 7, nil)
	addCorruptions(f, sel.OnBarrier(1, nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		fresh := NewSharedSelection(0, 10, &OpMetrics{})
		var err error
		got := wiretest.Allocated(func() { err = fresh.Restore(in) })
		if err == nil {
			// A restore that succeeds rebuilds the compiled index, whose
			// nodes carry dense slot bitsets (DESIGN.md §14): entries ×
			// slot-width, superlinear in the input by design. Everything
			// that runs before an error is the decoder, and is linear.
			wiretest.Canonical(t, in, fresh.OnBarrier(2, nil))
		} else if limit := wiretest.Limit(in); got > limit {
			t.Fatalf("rejecting %d bytes allocated %d bytes (limit %d)", len(in), got, limit)
		}
	})
}

func FuzzJoinRestore(f *testing.F) {
	for _, mode := range []StoreMode{StoreList, StoreGrouped} {
		b := newCLBuilder()
		join := NewSharedJoin(0, mode, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		join.OnChangelog(b.create(f, 0, joinQ(window.TumblingSpec(10), gt(0, -1), gt(0, -1)),
			joinQ(window.SlidingSpec(20, 5), gt(0, -1), gt(0, -1))), 0, nil)
		out := tapEmitter(&[]string{})
		for i := 0; i < 12; i++ {
			join.OnTuple(i%2, event.Tuple{Key: int64(i % 3), Time: event.Time(1 + i), QuerySet: bitset.FromIndexes(i%2, i/2%2)}, out)
		}
		join.OnWatermark(9, out)
		addCorruptions(f, join.OnBarrier(1, nil))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			fresh := NewSharedJoin(0, StoreList, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
			if fresh.Restore(in) == nil {
				wiretest.Canonical(t, in, fresh.OnBarrier(2, nil))
			}
		})
	})
}

// fuzzAgg builds an aggregation with a sliding and a session query, a few
// folded slices and one delta on top of a full snapshot.
func fuzzAgg(f *testing.F) (full, delta []byte) {
	b := newCLBuilder()
	msg := b.create(f, 0, aggQ(window.SlidingSpec(20, 5), sqlstream.AggAvg, 0, gt(0, -1)),
		aggQ(window.SessionSpec(4), sqlstream.AggSum, 1, expr.True()))
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query, msg.CL.Created[1].Query)
	agg.OnChangelog(msg, 0, nil)
	fold := func(from, n int) {
		for i := from; i < from+n; i++ {
			agg.OnTuple(0, event.Tuple{Key: int64(i % 3), Time: event.Time(1 + i),
				Fields: [event.NumFields]int64{int64(i), 2}, QuerySet: bitset.FromIndexes(0, 1)}, nil)
		}
	}
	fold(0, 12)
	agg.OnWatermark(8, nil)
	full = agg.OnBarrierDelta(1, nil, 8)
	fold(12, 4)
	delta = agg.OnBarrierDelta(2, nil, 8)
	if full[0] == spe.DeltaSnapshotMagic || delta[0] != spe.DeltaSnapshotMagic {
		f.Fatal("fuzz seeds are not a full snapshot followed by a delta")
	}
	return full, delta
}

// FuzzAggregationRestore: no accepted shape — a repeated partial or
// query-set, partials out of (key, group) order — means something the
// encoder never wrote. A slice's bytes are a function of its content, sealed
// or not, so an accepted snapshot re-encodes to itself by construction.
func FuzzAggregationRestore(f *testing.F) {
	full, _ := fuzzAgg(f)
	addCorruptions(f, full)
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			fresh := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
			if fresh.Restore(in) == nil {
				wiretest.Canonical(t, in, fresh.OnBarrier(2, nil))
			}
		})
	})
}

// FuzzAggregationRestoreDelta applies arbitrary bytes as the delta on top of
// a restored base.
func FuzzAggregationRestoreDelta(f *testing.F) {
	full, delta := fuzzAgg(f)
	addCorruptions(f, delta)
	f.Add(full) // a full snapshot where a delta belongs
	f.Fuzz(func(t *testing.T, in []byte) {
		base := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		if err := base.Restore(full); err != nil {
			t.Fatal(err)
		}
		wiretest.Bounded(t, in, func() {
			if base.RestoreDelta(in) == nil {
				base.OnBarrier(3, nil)
			}
		})
	})
}

func FuzzRestoreControl(f *testing.F) {
	eng := controlEngine(f)
	addCorruptions(f, eng.ControlSnapshot())
	eng.Drain()
	f.Fuzz(func(t *testing.T, in []byte) {
		fresh := newControlEngine(t)
		defer fresh.Drain()
		wiretest.Bounded(t, in, func() {
			if fresh.RestoreControl(in) == nil {
				wiretest.Canonical(t, in, fresh.ControlSnapshot())
			}
		})
	})
}
