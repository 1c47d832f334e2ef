//go:build !race

package spe

import (
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
)

// TestCodedFlushAllocs: a full batch through an edge — on a coded edge
// encoded into the emitter's frame and decoded into a pooled batch — then
// received by the instance runtime's handle, which recycles it, allocates
// nothing once the frame and the pool are warm. The race detector drops a
// quarter of all sync.Pool puts on purpose, so this file is built without
// -race only.
func TestCodedFlushAllocs(t *testing.T) {
	in := make([]event.Tuple, DefaultExchangeBatch)
	for i := range in {
		in[i] = event.Tuple{Key: int64(i), Time: event.Time(i), IngestNanos: int64(-i), Stream: 1,
			Fields: [event.NumFields]int64{int64(i), -1, 2, -3, 4}, QuerySet: bitset.FromIndexes(i%64, 63)}
	}
	for _, coded := range []bool{true, false} {
		ch := make(chan message, 1)
		em := &Emitter{
			batchSize: DefaultExchangeBatch,
			consumers: []consumer{{mode: Keyed, targets: []target{{ch: ch, coded: coded}}}},
		}
		rec := &recording{}
		rt := newBareRT(1, rec)
		flush := func() {
			for i := range in {
				em.EmitTuple(in[i])
			}
			rec.tuples = rec.tuples[:0]
			if err := rt.handle(<-ch); err != nil {
				t.Fatal(err)
			}
		}
		flush()
		if n := testing.AllocsPerRun(100, flush); n != 0 {
			t.Fatalf("coded=%v: a flush allocated %v times per batch, want 0", coded, n)
		}
		if em.Err() != nil || len(rec.tuples) != len(in) {
			t.Fatalf("coded=%v: received %d of %d tuples (err %v)", coded, len(rec.tuples), len(in), em.Err())
		}
		for i := range in {
			if a, b := in[i], rec.tuples[i]; a.Key != b.Key || a.Fields != b.Fields || a.Time != b.Time ||
				a.IngestNanos != b.IngestNanos || a.Stream != b.Stream || !a.QuerySet.Equal(b.QuerySet) {
				t.Fatalf("coded=%v: tuple %d came through as %+v, sent %+v", coded, i, b, a)
			}
		}
	}
}
