package spe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/wire/wiretest"
)

// orderLog records every callback as one string in arrival order, so tests
// can assert the exact interleaving of tuples and control elements that the
// exchange batching must preserve.
type orderLog struct {
	BaseLogic
	mu  sync.Mutex
	log []string
}

func (l *orderLog) add(s string) {
	l.mu.Lock()
	l.log = append(l.log, s)
	l.mu.Unlock()
}

func (l *orderLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.log...)
}

func (l *orderLog) OnTuple(_ int, t event.Tuple, _ *Emitter) { l.add(fmt.Sprintf("t%d", t.Key)) }
func (l *orderLog) OnWatermark(wm event.Time, _ *Emitter)    { l.add(fmt.Sprintf("wm%d", wm)) }
func (l *orderLog) OnChangelog(_ any, at event.Time, _ *Emitter) {
	l.add(fmt.Sprintf("cl%d", at))
}
func (l *orderLog) OnBarrier(id uint64, _ *Emitter) []byte {
	l.add(fmt.Sprintf("b%d", id))
	return nil
}
func (l *orderLog) OnEOS(*Emitter) { l.add("eos") }

// TestBatchingPreservesEdgeOrder drives a single source→sink edge with a
// small batch size and an emission sequence that interleaves full batches,
// partial batches, watermarks, changelogs, and barriers. Because every
// control element flushes pending batches first (Emitter.broadcast), the sink
// must observe exactly the emission order — batching may group channel sends
// but never reorder an edge.
func TestBatchingPreservesEdgeOrder(t *testing.T) {
	topo := NewTopology()
	topo.exchangeBatch = 8
	src := topo.AddSource("src", 1)
	lg := &orderLog{}
	topo.AddOperator("sink", 1, func(int) Logic { return lg }, KeyedInput(src))

	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := job.SourceContext(src, 0)
	if err != nil {
		t.Fatal(err)
	}

	var want []string
	key := int64(0)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			sc.EmitTuple(event.Tuple{Key: key, Time: event.Time(key)})
			want = append(want, fmt.Sprintf("t%d", key))
			key++
		}
	}
	emit(20) // two full flushes at 8, 4 left pending
	sc.EmitWatermark(19)
	want = append(want, "wm19")
	emit(3) // partial batch pending
	sc.EmitChangelog(&testChangelog{1}, 23)
	want = append(want, "cl23")
	emit(8) // exactly one full batch
	sc.EmitBarrier(1)
	want = append(want, "b1")
	emit(5)
	sc.EmitWatermark(35)
	want = append(want, "wm35")
	job.Stop()
	want = append(want, "eos")

	got := lg.snapshot()
	if len(got) != len(want) {
		t.Fatalf("log length %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q\ngot:  %v\nwant: %v", i, got[i], want[i], got, want)
		}
	}
}

// TestBatchingEOSFlushesPartialBatch checks that closing a source delivers a
// batch that never reached the flush threshold: EOS is broadcast, and
// broadcast flushes every pending edge vector first.
func TestBatchingEOSFlushesPartialBatch(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	lg := &orderLog{}
	topo.AddOperator("sink", 1, func(int) Logic { return lg }, KeyedInput(src))
	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := job.SourceContext(src, 0)
	for i := int64(0); i < 5; i++ {
		sc.EmitTuple(event.Tuple{Key: i})
	}
	job.Stop()

	got := lg.snapshot()
	want := []string{"t0", "t1", "t2", "t3", "t4", "eos"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
}

// TestBatchingBarrierAlignmentBuffersBatches checks checkpoint alignment with
// batched exchanges and two senders: pre-barrier tuples from both senders
// arrive before the barrier fires, and post-barrier tuples from the
// already-aligned sender (which arrive as whole batch messages and must be
// buffered as such) replay only after alignment completes.
func TestBatchingBarrierAlignmentBuffersBatches(t *testing.T) {
	topo := NewTopology()
	topo.exchangeBatch = 8
	src := topo.AddSource("src", 2)
	lg := &orderLog{}
	topo.AddOperator("sink", 1, func(int) Logic { return lg }, GlobalInput(src))
	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc0, _ := job.SourceContext(src, 0)
	sc1, _ := job.SourceContext(src, 1)

	// Sender 0 finishes all its sends before sender 1 starts, so the inbox
	// arrival order is deterministic.
	for i := int64(0); i < 5; i++ {
		sc0.EmitTuple(event.Tuple{Key: i})
	}
	sc0.EmitBarrier(1)
	sc0.EmitTuple(event.Tuple{Key: 10})
	sc0.EmitTuple(event.Tuple{Key: 11})
	sc0.Close() // flushes the post-barrier partial batch, then EOS
	for i := int64(5); i < 10; i++ {
		sc1.EmitTuple(event.Tuple{Key: i})
	}
	sc1.EmitBarrier(1)
	sc1.Close()
	job.Wait()

	got := lg.snapshot()
	want := []string{
		"t0", "t1", "t2", "t3", "t4", // sender 0, flushed by its barrier
		"t5", "t6", "t7", "t8", "t9", // sender 1 flows during alignment
		"b1",         // alignment completes
		"t10", "t11", // sender 0's buffered post-barrier batch replays
		"eos",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("log = %v\nwant  %v", got, want)
	}
}

// TestBatchingThroughOperatorChain runs batched exchanges across two hops
// with a parallel middle operator: every tuple must survive, and the final
// watermark — which trails all tuples on every edge — must reach the sink
// after all of them.
func TestBatchingThroughOperatorChain(t *testing.T) {
	topo := NewTopology()
	topo.exchangeBatch = 8
	src := topo.AddSource("src", 1)
	mid := topo.AddOperator("double", 2, NewMapLogic(func(tu *event.Tuple) bool {
		tu.Fields[0] *= 2
		return true
	}), KeyedInput(src))
	lg := &orderLog{}
	topo.AddOperator("sink", 1, func(int) Logic { return lg }, KeyedInput(mid))

	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := job.SourceContext(src, 0)
	const n = 100
	for i := int64(0); i < n; i++ {
		sc.EmitTuple(event.Tuple{Key: i, Time: event.Time(i)})
	}
	sc.EmitWatermark(n - 1)
	job.Stop()

	got := lg.snapshot()
	tuples := 0
	wmAt := -1
	for i, s := range got {
		if s == fmt.Sprintf("wm%d", n-1) {
			wmAt = i
		} else if s[0] == 't' {
			tuples++
			if wmAt >= 0 {
				t.Fatalf("tuple %q after watermark (index %d > %d)", s, i, wmAt)
			}
		}
	}
	if tuples != n {
		t.Fatalf("sink saw %d tuples, want %d", tuples, n)
	}
	if wmAt < 0 {
		t.Fatalf("final watermark missing from log %v", got)
	}
}

// TestBatchCodecRoundTrip pins the cross-node batch serialization: a batch of
// tuples — including wide (spilled) query-sets and negative field values —
// must round-trip through EncodeBatch/DecodeBatch exactly.
func TestBatchCodecRoundTrip(t *testing.T) {
	var c BinaryCodec
	batch := make([]event.Tuple, 0, 9)
	for i := 0; i < 9; i++ {
		tu := event.Tuple{
			Key:         int64(i - 4),
			Time:        event.Time(i * 1000),
			IngestNanos: int64(i * 7),
			Stream:      uint8(i % 2),
		}
		for f := range tu.Fields {
			tu.Fields[f] = int64(i*31 - f*17)
		}
		tu.QuerySet = bitset.FromIndexes(i, i*19) // i*19 crosses 64 for i ≥ 4
		batch = append(batch, tu)
	}
	enc := c.EncodeBatch(batch)
	dec, err := c.DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(batch) {
		t.Fatalf("decoded %d tuples, want %d", len(dec), len(batch))
	}
	for i := range batch {
		a, b := batch[i], dec[i]
		if a.Key != b.Key || a.Time != b.Time || a.IngestNanos != b.IngestNanos || a.Stream != b.Stream || a.Fields != b.Fields {
			t.Fatalf("tuple %d mismatch: %+v vs %+v", i, a, b)
		}
		if !a.QuerySet.Equal(b.QuerySet) {
			t.Fatalf("tuple %d query-set mismatch: %s vs %s", i, a.QuerySet, b.QuerySet)
		}
	}

	if _, err := c.DecodeBatch(enc[:3]); err == nil {
		t.Fatal("truncated batch header must error")
	}
	if _, err := c.DecodeBatch(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated batch body must error")
	}
}

// TestDecodeBatchErrorReturnsBufferToPool pins DecodeBatch's error paths:
// a decode that fails after acquiring a batch buffer must return that
// buffer to the exchange pool instead of leaking it.
func TestDecodeBatchErrorReturnsBufferToPool(t *testing.T) {
	var c BinaryCodec
	// The wide first tuple leaves room for the header's count check to pass
	// when the tail is cut, so every case fails after the buffer was
	// acquired, not before.
	enc := c.EncodeBatch([]event.Tuple{{Key: 1, QuerySet: bitset.FromIndexes(1, 70)}, {Key: 3, Time: 4}})

	// The last tuple carries no query-set, so its word count is the final
	// u32 of the encoding; patching it to a count the remaining bytes cannot
	// hold drives the bad-count path.
	oversized := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(oversized[len(oversized)-4:], 1)

	cases := []struct {
		name string
		bad  []byte
	}{
		{"truncated body", enc[:len(enc)-2]},
		{"oversized query-set", oversized},
		{"trailing byte", append(append([]byte(nil), enc...), 0xEE)},
	}
	for _, tc := range cases {
		// Under the race detector sync.Pool randomly discards Puts, so a
		// single attempt can miss even when DecodeBatch recycles
		// correctly. A leak never lands in the pool, so retrying only
		// converts correct behavior into a pass, never a leak.
		recycled := false
		for attempt := 0; attempt < 32 && !recycled; attempt++ {
			for tupleBatchPool.Get() != nil {
				// Drain so the only possible pooled buffer afterwards is
				// the one the failed decode acquired.
			}
			if _, err := c.DecodeBatch(tc.bad); err == nil {
				t.Fatalf("%s batch must error", tc.name)
			}
			recycled = tupleBatchPool.Get() != nil
		}
		if !recycled {
			t.Errorf("%s: failed decode leaked the pooled batch buffer", tc.name)
		}
	}
}

// TestDecodeBatchBoundsCountByInput: the tuple count in a batch header is
// checked against the bytes that follow before any buffer is sized from it.
// A 5-byte frame claiming 65 536 tuples used to reach getBatch(65536) — a
// 6.8 MB allocation per corrupt frame — and only then fail on the missing
// body.
func TestDecodeBatchBoundsCountByInput(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32([]byte{codecVersion}, 1<<16)
	for tupleBatchPool.Get() != nil {
		// Drain: a pooled buffer would hide the allocation.
	}
	wiretest.Bounded(t, frame, func() {
		if _, err := (BinaryCodec{}).DecodeBatch(frame); err == nil {
			t.Fatal("header-only frame claiming 65536 tuples must error")
		}
	})
}

// TestCodecRejectsTrailingBytes: bytes left over after a complete decode
// mean the frame is not what this build wrote; both decoders used to ignore
// them.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	var c BinaryCodec
	batch := append(c.EncodeBatch([]event.Tuple{{Key: 1}}), 0xEE)
	if _, err := c.DecodeBatch(batch); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("batch with a trailing byte: %v", err)
	}
	ctl := append(c.EncodeControl(event.NewWatermark(7)), 0xEE)
	if _, err := c.DecodeControl(ctl); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("control element with a trailing byte: %v", err)
	}
}

func fuzzBatch() []event.Tuple {
	return []event.Tuple{
		{Key: -4, Time: 1000, IngestNanos: 7, Stream: 1, QuerySet: bitset.FromIndexes(3, 70, 300)},
		{Key: 9, Fields: [event.NumFields]int64{1, -2, 3, -4, 5}},
	}
}

// FuzzDecodeBatch: arbitrary frames yield an error or a batch that
// re-encodes to the same bytes — never a panic or an allocation out of
// proportion to the frame.
func FuzzDecodeBatch(f *testing.F) {
	var c BinaryCodec
	enc := c.EncodeBatch(fuzzBatch())
	f.Add(enc)
	f.Add(enc[:3])
	f.Add(enc[:len(enc)-2])
	f.Add(append(append([]byte(nil), enc...), 0xEE))
	f.Add(binary.LittleEndian.AppendUint32([]byte{codecVersion}, 1<<16))
	f.Add([]byte{99, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			ts, err := c.DecodeBatch(in)
			if err != nil {
				return
			}
			if back := c.EncodeBatch(ts); !bytes.Equal(back, in) {
				// Only a non-canonical query-set (trailing zero words) may
				// re-encode shorter.
				if len(back) >= len(in) {
					t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", in, back)
				}
			}
			putBatch(ts)
		})
	})
}

// FuzzDecodeControl: same property for the control-element codec.
func FuzzDecodeControl(f *testing.F) {
	var c BinaryCodec
	for _, el := range []event.Element{event.NewWatermark(777), event.NewBarrier(3), event.EOS(), event.NewChangelog(nil, 55)} {
		enc := c.EncodeControl(el)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, 0xEE))
	}
	f.Add([]byte{codecVersion, byte(event.KindTuple)})
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			el, err := c.DecodeControl(in)
			if err != nil {
				return
			}
			if el.Kind == event.KindTuple {
				t.Fatal("a tuple decoded as a control element")
			}
			if back := c.EncodeControl(el); !bytes.Equal(back, in) {
				t.Fatalf("accepted element re-encodes differently:\n in %x\nout %x", in, back)
			}
		})
	})
}
