//go:build !race

package spe

import (
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
)

// TestCodedFlushAllocs: a full batch through a coded edge — encoded into the
// emitter's frame, decoded into a pooled batch, received, and recycled —
// allocates nothing once the frame and the pool are warm. The race detector
// drops a quarter of all sync.Pool puts on purpose, so this file is
// built without -race only.
func TestCodedFlushAllocs(t *testing.T) {
	ch := make(chan message, 1)
	em := &Emitter{
		batchSize: DefaultExchangeBatch,
		consumers: []consumer{{mode: Keyed, targets: []target{{ch: ch, coded: true}}}},
	}
	in := make([]event.Tuple, DefaultExchangeBatch)
	for i := range in {
		in[i] = event.Tuple{Key: int64(i), Time: event.Time(i), IngestNanos: int64(-i), Stream: 1,
			Fields: [event.NumFields]int64{int64(i), -1, 2, -3, 4}, QuerySet: bitset.FromIndexes(i%64, 63)}
	}
	var got []event.Tuple
	flush := func() {
		for i := range in {
			em.EmitTuple(in[i])
		}
		msg := <-ch
		got = append(got[:0], msg.batch.ts...)
		putBatch(msg.batch)
	}
	flush()
	if n := testing.AllocsPerRun(100, flush); n != 0 {
		t.Fatalf("a coded flush allocated %v times per batch, want 0", n)
	}
	if em.Err() != nil || len(got) != len(in) {
		t.Fatalf("received %d of %d tuples (err %v)", len(got), len(in), em.Err())
	}
	for i := range in {
		if a, b := in[i], got[i]; a.Key != b.Key || a.Fields != b.Fields || a.Time != b.Time ||
			a.IngestNanos != b.IngestNanos || a.Stream != b.Stream || !a.QuerySet.Equal(b.QuerySet) {
			t.Fatalf("tuple %d came through the codec as %+v, sent %+v", i, b, a)
		}
	}
}
