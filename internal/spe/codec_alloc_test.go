//go:build !race

package spe

import (
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
)

// TestCodedFlushAllocs: a full batch through an edge — on a coded edge
// encoded into the emitter's frame and decoded into a pooled batch — then
// received by the instance runtime's handle, which recycles it, and a
// watermark after it, which handle advances and the instance's emitter
// forwards on an edge of the same kind, allocate nothing once the frames and
// the pool are warm. The race detector drops a quarter of all sync.Pool puts
// on purpose, so this file is built without -race only.
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
		down := make(chan message, 1)
		rt.emitter.consumers = []consumer{{mode: Keyed, targets: []target{{ch: down, coded: coded}}}}
		var wm event.Time
		flush := func() {
			for i := range in {
				em.EmitTuple(in[i])
			}
			rec.tuples, rec.wms = rec.tuples[:0], rec.wms[:0]
			if err := rt.handle(<-ch); err != nil {
				t.Fatal(err)
			}
			wm++
			if err := rt.handle(message{elem: event.NewWatermark(wm)}); err != nil {
				t.Fatal(err)
			}
			if err := rt.emitter.Err(); err != nil { // as run checks after every element
				t.Fatal(err)
			}
			if got := <-down; got.elem.Kind != event.KindWatermark || got.elem.Watermark != wm {
				t.Fatalf("coded=%v: forwarded %+v, want watermark %v", coded, got.elem, wm)
			}
		}
		flush()
		if n := testing.AllocsPerRun(100, flush); n != 0 {
			t.Fatalf("coded=%v: a flush and a watermark allocated %v times per batch, want 0", coded, n)
		}
		if em.Err() != nil || len(rec.tuples) != len(in) || len(rec.wms) != 1 || rec.wms[0] != wm {
			t.Fatalf("coded=%v: received %d of %d tuples and watermarks %v (err %v)", coded, len(rec.tuples), len(in), rec.wms, em.Err())
		}
		for i := range in {
			if a, b := in[i], rec.tuples[i]; a.Key != b.Key || a.Fields != b.Fields || a.Time != b.Time ||
				a.IngestNanos != b.IngestNanos || a.Stream != b.Stream || !a.QuerySet.Equal(b.QuerySet) {
				t.Fatalf("coded=%v: tuple %d came through as %+v, sent %+v", coded, i, b, a)
			}
		}
	}
}
