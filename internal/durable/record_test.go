package durable

import (
	"reflect"
	"strings"
	"testing"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

func testRecords() []Record {
	agg := &core.Query{Kind: core.KindAggregation, Arity: 1,
		Predicates: []expr.Predicate{expr.True().And(expr.Comparison{Field: 0, Op: expr.GT, Value: 20})},
		Window:     window.TumblingSpec(10), Agg: sqlstream.AggSum, AggField: 1}
	join := &core.Query{Kind: core.KindJoin, Arity: 2,
		Predicates: []expr.Predicate{expr.True(), expr.True()},
		Window:     window.TumblingSpec(8), AggField: -1}
	return []Record{
		{Kind: RecSubmit, Query: agg},
		{Kind: RecSubmit, Query: join},
		{Kind: RecTuple, Stream: 1, Tuple: event.Tuple{Key: 3, Time: 17, Fields: [event.NumFields]int64{1, 2, 3, 4, 5}, IngestNanos: 99}},
		{Kind: RecStop, Ordinal: 1},
	}
}

// TestRecordCodec: every record kind round-trips, and a record decodes only
// when every byte is accounted for.
func TestRecordCodec(t *testing.T) {
	for _, rec := range testRecords() {
		enc := AppendRecord(nil, &rec)
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("record kind %d: %v", rec.Kind, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record kind %d round-tripped to %+v, want %+v", rec.Kind, got, rec)
		}
		if _, err := DecodeRecord(append(enc, 0xEE)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("record kind %d with a trailing byte: %v", rec.Kind, err)
		}
		if _, err := DecodeRecord(enc[:len(enc)-1]); err == nil {
			t.Fatalf("record kind %d truncated by a byte decoded", rec.Kind)
		}
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("empty record decoded")
	}
}
