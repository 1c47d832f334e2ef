package durable

import (
	"fmt"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/wire"
)

// RecordKind discriminates log records.
type RecordKind uint8

const (
	// RecTuple is one ingested tuple on a stream.
	RecTuple RecordKind = iota
	// RecSubmit is a query creation request.
	RecSubmit
	// RecStop is a query stop request (by create-ordinal).
	RecStop
)

// Record is one logged input event: everything that entered the engine —
// tuples per stream and query create/stop requests — in one total order.
type Record struct {
	Kind    RecordKind
	Stream  int
	Tuple   event.Tuple
	Query   *core.Query // for RecSubmit
	Ordinal int         // for RecStop: 1-based create ordinal
}

// AppendRecord serializes one record onto b (DESIGN.md "Wire format"); the
// write-ahead log frames each record individually.
func AppendRecord(b []byte, r *Record) []byte {
	b = wire.AppendU8(b, uint8(r.Kind))
	switch r.Kind {
	case RecTuple:
		b = wire.AppendU32(b, uint32(r.Stream))
		b = wire.AppendTuple(b, &r.Tuple)
	case RecSubmit:
		b = core.AppendQuery(b, r.Query)
	case RecStop:
		b = wire.AppendU32(b, uint32(r.Ordinal))
	}
	return b
}

// DecodeRecord decodes exactly one record produced by AppendRecord; bytes
// left over are an error.
func DecodeRecord(b []byte) (Record, error) {
	r := wire.NewReader(b)
	rec := Record{Kind: RecordKind(r.U8("record kind"))}
	switch rec.Kind {
	case RecTuple:
		rec.Stream = int(r.U32("record stream"))
		rec.Tuple = wire.ReadTuple(r)
	case RecSubmit:
		rec.Query = core.ReadQuery(r)
	case RecStop:
		rec.Ordinal = int(r.U32("record stop ordinal"))
	default:
		r.Fail(fmt.Errorf("durable: unknown record kind %d", rec.Kind))
	}
	return rec, r.Finish("log record")
}
