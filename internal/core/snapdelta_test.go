package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
)

// These tests pin the incremental-snapshot contract of the shared
// aggregation: a chain of one full snapshot plus deltas restores to the
// bit-identical state a full snapshot at the chain's end would, deltas
// re-serialize only dirtied slices, and every chain-integrity violation
// fails loudly.

const deltaFullEvery = 4

func newDeltaAgg(out *[]string, ids ...int) *SharedAggregation {
	return NewSharedAggregation(1, 10, captureRouter(out, ids...), &OpMetrics{})
}

// TestAggregationDeltaChainBitIdentical drives an instance through a
// full+delta+delta chain, restores a fresh instance from the chain, and
// asserts its next full snapshot — and its suffix emissions — match the
// original exactly.
func TestAggregationDeltaChainBitIdentical(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0,
		aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)),
		aggQ(window.SlidingSpec(20, 5), sqlstream.AggMax, 0, gt(0, -1)))
	q1, s1 := msg.CL.Created[0].Query, msg.CL.Created[0].Slot
	q2, s2 := msg.CL.Created[1].Query, msg.CL.Created[1].Slot

	var gotO, gotF []string
	orig := newDeltaAgg(&gotO, q1, q2)
	orig.OnChangelog(msg, 0, nil)

	rng := rand.New(rand.NewSource(17))
	mk := func(tm event.Time) event.Tuple {
		tu := event.Tuple{Key: int64(rng.Intn(3)), Time: tm, QuerySet: bitset.FromIndexes(s1, s2)}
		tu.Fields[0] = int64(rng.Intn(50))
		return tu
	}

	var chain [][]byte
	tm := event.Time(1)
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 12; i++ {
			orig.OnTuple(0, mk(tm), nil)
			tm += 2
		}
		orig.OnWatermark(tm-6, nil)
		// A workload change inside the chain: deltas must carry the table
		// suffix and query-set masks forward correctly.
		if seg == 1 {
			msg2 := b.create(t, tm-6, aggQ(window.TumblingSpec(5), sqlstream.AggCount, 0, gt(0, 10)))
			orig.OnChangelog(msg2, tm-6, nil)
		}
		chain = append(chain, orig.OnBarrierDelta(uint64(seg+1), nil, deltaFullEvery))
	}
	if chain[0][0] != opSnapshotVersion {
		t.Fatalf("first chain snapshot should be full, got leading byte %#x", chain[0][0])
	}
	for i, d := range chain[1:] {
		if d[0] != spe.DeltaSnapshotMagic {
			t.Fatalf("chain snapshot %d should be a delta, got leading byte %#x", i+1, d[0])
		}
	}

	fresh := newDeltaAgg(&gotF, q1, q2)
	if err := fresh.Restore(chain[0]); err != nil {
		t.Fatal(err)
	}
	for i, d := range chain[1:] {
		if err := fresh.RestoreDelta(d); err != nil {
			t.Fatalf("delta %d: %v", i+1, err)
		}
	}
	assertSameSnapshot(t, "aggregation chain", orig.OnBarrier(99, nil), fresh.OnBarrier(99, nil))

	// Identical suffix into both must emit identically.
	gotO = gotO[:0]
	rng = rand.New(rand.NewSource(19))
	suffix := make([]event.Tuple, 0, 10)
	for i := 0; i < 10; i++ {
		suffix = append(suffix, mk(tm+event.Time(i*3)))
	}
	for _, tu := range suffix {
		orig.OnTuple(0, tu, nil)
		fresh.OnTuple(0, tu, nil)
	}
	for wm := tm; wm <= tm+60; wm += 5 {
		orig.OnWatermark(wm, nil)
		fresh.OnWatermark(wm, nil)
	}
	if len(gotO) == 0 {
		t.Fatal("suffix fired no aggregation windows; test exercises nothing")
	}
	assertSameStrings(t, "aggregation chain suffix", gotF, gotO)
}

// TestAggregationDeltaOmitsCleanSlices pins the size bound deltas exist for:
// after building a long ring of slices, a barrier interval that dirtied a
// single slice must produce a delta far smaller than the full snapshot,
// carrying exactly one re-serialized aggregate index.
func TestAggregationDeltaOmitsCleanSlices(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)))
	slot := msg.CL.Created[0].Slot

	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	agg.OnChangelog(msg, 0, nil)
	rng := rand.New(rand.NewSource(23))
	for tm := event.Time(1); tm < 600; tm += 2 {
		tu := event.Tuple{Key: int64(rng.Intn(4)), Time: tm, QuerySet: bitset.FromIndexes(slot)}
		tu.Fields[0] = int64(rng.Intn(50))
		agg.OnTuple(0, tu, nil)
	}
	full := agg.OnBarrierDelta(1, nil, 8)
	if full[0] != opSnapshotVersion {
		t.Fatalf("first snapshot should be full, leading byte %#x", full[0])
	}
	nslices := len(agg.win.sides[0].slices)
	if nslices < 30 {
		t.Fatalf("ring has %d slices; too few to make the bound meaningful", nslices)
	}

	// One tuple into the newest slice, then a delta.
	agg.OnTuple(0, event.Tuple{Key: 1, Time: 601, Fields: [event.NumFields]int64{7}, QuerySet: bitset.FromIndexes(slot)}, nil)
	delta := agg.OnBarrierDelta(2, nil, 8)
	if delta[0] != spe.DeltaSnapshotMagic {
		t.Fatalf("second snapshot should be a delta, leading byte %#x", delta[0])
	}
	if len(delta)*4 > len(full) {
		t.Fatalf("delta is %d bytes vs %d full: clean slices are being re-serialized", len(delta), len(full))
	}

	// Count dirty markers in the delta by re-decoding its slice section.
	dirty, clean := countDeltaSlices(t, delta)
	if dirty != 1 {
		t.Fatalf("delta re-serialized %d slices, want exactly 1", dirty)
	}
	if clean != nslices-1 && clean != nslices {
		t.Fatalf("delta carried %d clean slices; ring had %d", clean, nslices)
	}

	// An interval with no folds at all: every slice is clean.
	empty := agg.OnBarrierDelta(3, nil, 8)
	d0, _ := countDeltaSlices(t, empty)
	if d0 != 0 {
		t.Fatalf("idle delta re-serialized %d slices, want 0", d0)
	}
}

// countDeltaSlices walks a delta blob's slice section and tallies dirty vs
// carried-forward entries, skipping dirty payloads via the same decoders the
// restore path uses.
func countDeltaSlices(t *testing.T, delta []byte) (dirty, clean int) {
	t.Helper()
	r := wire.NewReader(delta)
	r.Version("magic", spe.DeltaSnapshotMagic)
	r.U32("ports")
	r.I64("lastWM")
	r.I64("evictedThru")
	r.Bytes("table delta")
	restoreSlicer(r, &slicer{}, func(r *wire.Reader, _ *slice) {
		if r.Bool("dirty") {
			dirty++
			(&SharedAggregation{}).readAggIndex(r)
		} else {
			clean++
		}
	})
	if r.Err() != nil {
		t.Fatalf("delta decode: %v", r.Err())
	}
	return dirty, clean
}

// TestAggregationDeltaChainLengthBound: the fullEvery knob caps how many
// deltas separate full snapshots, and a restored instance always reopens its
// chain with a full snapshot (its dirtiness baseline died with the crash).
func TestAggregationDeltaChainLengthBound(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)))
	slot := msg.CL.Created[0].Slot
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	agg.OnChangelog(msg, 0, nil)

	kinds := ""
	for i := 0; i < 8; i++ {
		agg.OnTuple(0, event.Tuple{Key: 1, Time: event.Time(1 + i), Fields: [event.NumFields]int64{3}, QuerySet: bitset.FromIndexes(slot)}, nil)
		s := agg.OnBarrierDelta(uint64(i+1), nil, 3)
		if s[0] == spe.DeltaSnapshotMagic {
			kinds += "d"
		} else {
			kinds += "F"
		}
	}
	if kinds != "FddFddFd" {
		t.Fatalf("chain shape %q, want FddFddFd (fullEvery=3)", kinds)
	}

	fresh := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := fresh.Restore(agg.OnBarrier(99, nil)); err != nil {
		t.Fatal(err)
	}
	if s := fresh.OnBarrierDelta(100, nil, 3); s[0] == spe.DeltaSnapshotMagic {
		t.Fatal("restored instance opened with a delta; chain base must be a full snapshot")
	}
}

// TestAggregationRestoreDeltaRejectsCorruptChains: magic mismatch, trailing
// bytes, and carry-forward of slices the chain never restored all fail
// loudly instead of producing silently wrong state.
func TestAggregationRestoreDeltaRejectsCorruptChains(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)))
	slot := msg.CL.Created[0].Slot
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	agg.OnChangelog(msg, 0, nil)
	agg.OnTuple(0, event.Tuple{Key: 1, Time: 5, Fields: [event.NumFields]int64{3}, QuerySet: bitset.FromIndexes(slot)}, nil)
	base := agg.OnBarrierDelta(1, nil, 4)
	agg.OnTuple(0, event.Tuple{Key: 2, Time: 6, Fields: [event.NumFields]int64{4}, QuerySet: bitset.FromIndexes(slot)}, nil)
	delta := agg.OnBarrierDelta(2, nil, 4)

	restored := func() *SharedAggregation {
		fresh := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
		if err := fresh.Restore(base); err != nil {
			t.Fatal(err)
		}
		return fresh
	}

	if err := restored().RestoreDelta(base); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("full snapshot accepted as delta: %v", err)
	}
	skewed := append(append([]byte(nil), delta...), 0xEE)
	if err := restored().RestoreDelta(skewed); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes not rejected: %v", err)
	}
	if err := restored().RestoreDelta(delta[:len(delta)/2]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	// A clean delta applied out of order (to an instance that never restored
	// the base's slices) must fail on the carried-forward slice.
	empty := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := empty.RestoreDelta(delta); err == nil {
		t.Fatal("delta applied before a base was accepted")
	}
	// The happy path still works, proving the guards only fire on corruption.
	ok := restored()
	if err := ok.RestoreDelta(delta); err != nil {
		t.Fatalf("clean chain rejected: %v", err)
	}
	assertSameSnapshot(t, "chain vs original", agg.OnBarrier(99, nil), ok.OnBarrier(99, nil))
}

// TestAggregationDeltaChainAcrossSeal: a slice encoded before a fire, then
// fired over without a fold, stays clean, so the chain keeps its bytes from
// before the fire. Restoring that chain must still land in the state — the
// bytes — of a full snapshot after it. They match by construction: a slice's
// bytes are its run in (key, group) order, a function of its content alone,
// whatever order its keys arrived in and whichever of a snapshot or a fire
// sealed it first.
func TestAggregationDeltaChainAcrossSeal(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, aggQ(window.SlidingSpec(20, 10), sqlstream.AggSum, 0, gt(0, -1)))
	slot := msg.CL.Created[0].Slot
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	agg.OnChangelog(msg, 0, nil)
	for i, key := range []int64{5, 3, 9, 1} { // not ascending
		agg.OnTuple(0, event.Tuple{Key: key, Time: event.Time(1 + i), Fields: [event.NumFields]int64{3}, QuerySet: bitset.FromIndexes(slot)}, nil)
	}
	base := agg.OnBarrierDelta(1, nil, 8)
	agg.OnWatermark(10, nil)
	if x := agg.win.sides[0].slices[0].aggs; x == nil || x.run == nil {
		t.Fatal("the fire at 10 did not seal the slice; the test proved nothing")
	}
	delta := agg.OnBarrierDelta(2, nil, 8)
	if dirty, _ := countDeltaSlices(t, delta); dirty != 0 {
		t.Fatalf("the delta re-encoded %d slices; the sealed one was meant to stay clean", dirty)
	}
	fresh := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := fresh.Restore(base); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreDelta(delta); err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, "chain across a seal", agg.OnBarrier(99, nil), fresh.OnBarrier(99, nil))
}

// TestAggregationDeltaVsFullRestoreEquivalence: restoring base+deltas and
// restoring the contemporaneous full snapshot must land in byte-identical
// state (the durable backend keeps both paths alive — recovery prefers the
// chain, compaction rewrites it as a full snapshot).
func TestAggregationDeltaVsFullRestoreEquivalence(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, aggQ(window.SlidingSpec(20, 5), sqlstream.AggAvg, 0, gt(0, -1)))
	slot := msg.CL.Created[0].Slot
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	agg.OnChangelog(msg, 0, nil)

	rng := rand.New(rand.NewSource(29))
	var chain [][]byte
	tm := event.Time(1)
	for seg := 0; seg < 4; seg++ {
		for i := 0; i < 9; i++ {
			tu := event.Tuple{Key: int64(rng.Intn(3)), Time: tm, QuerySet: bitset.FromIndexes(slot)}
			tu.Fields[0] = int64(rng.Intn(100))
			agg.OnTuple(0, tu, nil)
			tm += 3
		}
		agg.OnWatermark(tm-9, nil)
		chain = append(chain, agg.OnBarrierDelta(uint64(seg+1), nil, 8))
	}
	fullNow := agg.OnBarrier(99, nil)

	viaChain := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := viaChain.Restore(chain[0]); err != nil {
		t.Fatal(err)
	}
	for _, d := range chain[1:] {
		if err := viaChain.RestoreDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	viaFull := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := viaFull.Restore(fullNow); err != nil {
		t.Fatal(err)
	}
	a, bb := viaChain.OnBarrier(100, nil), viaFull.OnBarrier(100, nil)
	if !bytes.Equal(a, bb) {
		t.Fatalf("chain restore and full restore diverged (%d vs %d bytes)", len(a), len(bb))
	}
}
