package spe

import (
	"fmt"
	"slices"

	"astream/internal/event"
	"astream/internal/wire"
)

// BinaryCodec is the edge codec the cluster simulation applies to inter-node
// edges so shuffled data pays a realistic serialization cost. Tuples travel
// as batch frames (AppendBatch/DecodeBatch, tuples in wire.AppendTuple
// layout); control elements — watermarks, barriers, changelog envelopes, EOS
// — as single elements (AppendControl/DecodeControl). An exchange emitter
// encodes both into one frame it reuses, so a coded edge allocates nothing
// per batch once the frame has grown to the largest batch.
//
// Changelog payloads are NOT encoded (they are control-plane metadata whose
// identity must be preserved for deduplication); cross-node changelog
// delivery passes the pointer through after paying the envelope cost.
type BinaryCodec struct{}

const codecVersion = 2

// AppendControl appends the encoding of a control element to dst. Tuples
// are not control elements: they cross edges only inside batch frames.
func (BinaryCodec) AppendControl(dst []byte, e event.Element) []byte {
	dst = wire.AppendU8(dst, codecVersion)
	dst = wire.AppendU8(dst, uint8(e.Kind))
	switch e.Kind {
	case event.KindWatermark, event.KindChangelog:
		// A changelog travels as its event-time envelope only.
		dst = wire.AppendI64(dst, int64(e.Watermark))
	case event.KindBarrier:
		dst = wire.AppendU64(dst, e.Barrier)
	}
	return dst
}

// DecodeControl deserializes an AppendControl encoding. A changelog decodes
// without its payload; the sender reattaches it.
func (BinaryCodec) DecodeControl(b []byte) (event.Element, error) {
	r := wire.NewReader(b)
	r.Version("element codec version", codecVersion)
	e := event.Element{Kind: event.Kind(r.U8("element kind"))}
	switch e.Kind {
	case event.KindWatermark, event.KindChangelog:
		e.Watermark = event.Time(r.I64("element time"))
	case event.KindBarrier:
		e.Barrier = r.U64("element barrier")
	case event.KindEOS:
	default:
		r.Fail(fmt.Errorf("spe: element kind %d is not a control element", e.Kind))
	}
	if err := r.Finish("element"); err != nil {
		return event.Element{}, err
	}
	return e, nil
}

// AppendBatch appends the batch frame of ts to dst in one pass, amortizing
// the envelope over the vector: version, count, then each tuple.
func (BinaryCodec) AppendBatch(dst []byte, ts []event.Tuple) []byte {
	dst = wire.AppendU8(dst, codecVersion)
	dst = wire.AppendCount(dst, len(ts))
	for i := range ts {
		dst = wire.AppendTuple(dst, &ts[i])
	}
	return dst
}

// EncodeBatch returns the batch frame of ts in a buffer of its own. No
// exchange calls it: emitters append into their reused frame instead.
func (c BinaryCodec) EncodeBatch(ts []event.Tuple) []byte {
	return c.AppendBatch(make([]byte, 0, 5+len(ts)*(wire.TupleMinSize+16)), ts)
}

// DecodeBatch deserializes a batch frame into a slice of its own.
func (c BinaryCodec) DecodeBatch(b []byte) ([]event.Tuple, error) {
	ts, err := c.decodeInto(nil, b)
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// decodeInto appends the tuples of batch frame b to dst, growing it at most
// once, and only after the frame's count is bounded by its length. A coded
// exchange decodes into a pooled batch this way.
func (BinaryCodec) decodeInto(dst []event.Tuple, b []byte) ([]event.Tuple, error) {
	r := wire.NewReader(b)
	r.Version("batch codec version", codecVersion)
	n := r.Count("batch tuple count", wire.TupleMinSize)
	if err := r.Err(); err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		// appends within the capacity reserved above
		dst = append(dst, wire.ReadTuple(r))
	}
	return dst, r.Finish("batch")
}
