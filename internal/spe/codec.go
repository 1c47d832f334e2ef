package spe

import (
	"fmt"

	"astream/internal/event"
	"astream/internal/wire"
)

// BinaryCodec is the edge codec the cluster simulation applies to inter-node
// edges so shuffled data pays a realistic serialization cost. Tuples travel
// as batch frames (EncodeBatch/DecodeBatch, tuples in wire.AppendTuple
// layout); control elements — watermarks, barriers, changelog envelopes, EOS
// — as single elements (EncodeControl/DecodeControl).
//
// Changelog payloads are NOT encoded (they are control-plane metadata whose
// identity must be preserved for deduplication); cross-node changelog
// delivery passes the pointer through after paying the envelope cost.
type BinaryCodec struct{}

const codecVersion = 2

// EncodeControl serializes a control element. Tuples are not control
// elements: they cross edges only inside batch frames.
func (BinaryCodec) EncodeControl(e event.Element) []byte {
	//lint:ignore hotalloc one small frame per control element per coded edge: the serialization cost the codec exists to charge
	buf := make([]byte, 0, 10)
	buf = wire.AppendU8(buf, codecVersion)
	buf = wire.AppendU8(buf, uint8(e.Kind))
	switch e.Kind {
	case event.KindWatermark, event.KindChangelog:
		// A changelog travels as its event-time envelope only.
		buf = wire.AppendI64(buf, int64(e.Watermark))
	case event.KindBarrier:
		buf = wire.AppendU64(buf, e.Barrier)
	}
	return buf
}

// DecodeControl deserializes an EncodeControl encoding. A changelog decodes
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
		//lint:ignore hotalloc cold: formats once, when a corrupt frame has already doomed the instance
		r.Fail(fmt.Errorf("spe: element kind %d is not a control element", e.Kind))
	}
	if err := r.Finish("element"); err != nil {
		return event.Element{}, err
	}
	return e, nil
}

// EncodeBatch serializes a vector of tuples in one pass, amortizing the
// envelope over the vector: version, count, then each tuple.
func (BinaryCodec) EncodeBatch(ts []event.Tuple) []byte {
	//lint:ignore hotalloc one frame per cross-node batch: the serialization cost the codec exists to charge
	buf := make([]byte, 0, 5+len(ts)*(wire.TupleMinSize+16))
	buf = wire.AppendU8(buf, codecVersion)
	buf = wire.AppendCount(buf, len(ts))
	for i := range ts {
		buf = wire.AppendTuple(buf, &ts[i])
	}
	return buf
}

// DecodeBatch deserializes a vector produced by EncodeBatch. The returned
// slice comes from the exchange batch pool; on error it has already gone
// back there.
func (BinaryCodec) DecodeBatch(b []byte) ([]event.Tuple, error) {
	r := wire.NewReader(b)
	r.Version("batch codec version", codecVersion)
	n := r.Count("batch tuple count", wire.TupleMinSize)
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := getBatch(n)
	for i := 0; i < n && r.Err() == nil; i++ {
		//lint:ignore hotalloc appends into a pooled buffer; grows at most to the largest batch seen
		out = append(out, wire.ReadTuple(r))
	}
	if err := r.Finish("batch"); err != nil {
		putBatch(out)
		return nil, err
	}
	return out, nil
}
