package checkpoint

import (
	"bytes"
	"testing"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/wire/wiretest"
)

func fuzzRecords() []Record {
	return []Record{
		{Kind: RecSubmit, Query: testQuery(core.KindAggregation)},
		{Kind: RecSubmit, Query: testQuery(core.KindJoin)},
		{Kind: RecTuple, Stream: 1, Tuple: event.Tuple{Key: 3, Time: 17, Fields: [event.NumFields]int64{1, 2, 3, 4, 5}, IngestNanos: 99}},
		{Kind: RecStop, Ordinal: 1},
	}
}

// FuzzDecodeRecord: arbitrary bytes yield an error or a record that
// re-encodes to exactly those bytes — what the WAL relies on when a frame
// passes its CRC.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range fuzzRecords() {
		enc := AppendRecord(nil, &rec)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(enc, 0xEE))
	}
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			rec, err := DecodeRecord(in)
			if err != nil {
				return
			}
			if back := AppendRecord(nil, &rec); !bytes.Equal(back, in) && len(back) >= len(in) {
				// Only a non-canonical query-set may re-encode shorter.
				t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", in, back)
			}
		})
	})
}

// FuzzUnmarshalLog: same property for a whole marshalled log.
func FuzzUnmarshalLog(f *testing.F) {
	l := &Log{}
	for _, rec := range fuzzRecords() {
		l.Append(rec)
	}
	enc := l.Marshal()
	f.Add(enc)
	f.Add(enc[:9])
	f.Add(append(enc, 0xEE))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // record count far beyond the input
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			got, err := UnmarshalLog(in)
			if err != nil {
				return
			}
			if back := got.Marshal(); !bytes.Equal(back, in) && len(back) >= len(in) {
				t.Fatalf("accepted log re-encodes differently:\n in %x\nout %x", in, back)
			}
		})
	})
}

// FuzzSplitControlBlob: the runner's per-checkpoint control record.
func FuzzSplitControlBlob(f *testing.F) {
	r, err := NewRunner(core.Config{Streams: 1, Parallelism: 1}, &Log{}, NewTxSink())
	if err != nil {
		f.Fatal(err)
	}
	r.ordinals = []int{1, 2, 5}
	blob := r.controlBlob()
	r.Finish()
	f.Add(blob)
	f.Add(blob[:7])
	f.Add(append(blob, 0xEE))
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			ordinals, engine, err := splitControlBlob(in)
			if err == nil && 5+8*len(ordinals)+4+len(engine) != len(in) {
				t.Fatalf("accepted blob does not account for its %d bytes: %d ordinals, %d engine bytes", len(in), len(ordinals), len(engine))
			}
		})
	})
}
