package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
)

// These tests pin the snapshot chain of the windowed operators
// (windowOp.appendLink): a chain of one full snapshot plus deltas restores to
// the bit-identical state a full snapshot at the chain's end would, deltas
// re-serialize only dirtied slices, and every chain-integrity violation
// fails loudly.

// linker is a windowed operator: appendLink writes the link of its chain a
// barrier cuts.
type linker interface {
	appendLink(b []byte, barrier uint64, full bool) []byte
}

// probeBarrier is the barrier fullLink cuts at, past any a test's chain
// reaches, so two instances' probes compare byte for byte.
const probeBarrier = 1 << 20

// fullLink cuts a full snapshot of op wherever its chain stands; the next
// link is a delta on top of it.
func fullLink(op linker) []byte { return op.appendLink(nil, probeBarrier, true) }

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
		// A workload change inside the chain: deltas must carry the grown
		// table and query-set masks forward correctly.
		if seg == 1 {
			msg2 := b.create(t, tm-6, aggQ(window.TumblingSpec(5), sqlstream.AggCount, 0, gt(0, 10)))
			orig.OnChangelog(msg2, tm-6, nil)
		}
		chain = append(chain, orig.OnBarrier(uint64(seg+1), nil))
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
		if err := fresh.Restore(d); err != nil {
			t.Fatalf("delta %d: %v", i+1, err)
		}
	}
	assertSameSnapshot(t, "aggregation chain", fullLink(orig), fullLink(fresh))

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
	full := agg.OnBarrier(1, nil)
	if full[0] != opSnapshotVersion {
		t.Fatalf("first snapshot should be full, leading byte %#x", full[0])
	}
	nslices := len(agg.win.sides[0].slices)
	if nslices < 30 {
		t.Fatalf("ring has %d slices; too few to make the bound meaningful", nslices)
	}

	// One tuple into the newest slice, then a delta.
	agg.OnTuple(0, event.Tuple{Key: 1, Time: 601, Fields: [event.NumFields]int64{7}, QuerySet: bitset.FromIndexes(slot)}, nil)
	delta := agg.OnBarrier(2, nil)
	if delta[0] != spe.DeltaSnapshotMagic {
		t.Fatalf("second snapshot should be a delta, leading byte %#x", delta[0])
	}
	if len(delta)*4 > len(full) {
		t.Fatalf("delta is %d bytes vs %d full: clean slices are being re-serialized", len(delta), len(full))
	}

	// Count dirty markers in the delta by re-decoding its slice section.
	dirty, clean := countDeltaSlices(t, delta, &agg.win)
	if dirty != 1 {
		t.Fatalf("delta re-serialized %d slices, want exactly 1", dirty)
	}
	if clean != nslices-1 && clean != nslices {
		t.Fatalf("delta carried %d clean slices; ring had %d", clean, nslices)
	}

	// An interval with no folds at all: every slice is clean.
	empty := agg.OnBarrier(3, nil)
	d0, _ := countDeltaSlices(t, empty, &agg.win)
	if d0 != 0 {
		t.Fatalf("idle delta re-serialized %d slices, want 0", d0)
	}
}

// countDeltaSlices walks a delta link's slice rings against the changelog
// table it carries and tallies dirty vs carried-forward entries, skipping
// dirty payloads via the decoders the restore path uses. w is the driver of
// the instance that cut it: a join's has two sides and stores, the
// aggregation's one side and indexes.
func countDeltaSlices(t *testing.T, delta []byte, w *windowOp) (dirty, clean int) {
	t.Helper()
	join := len(w.sides) == 2
	r := wire.NewReader(delta)
	r.Version("magic", spe.DeltaSnapshotMagic)
	r.U64("barrier")
	r.U64("predecessor")
	r.I64("lastWM")
	for range w.sides {
		r.I64("evictedThru")
	}
	tbl := changelog.ReadTable(r)
	for range w.sides {
		restoreSlicer(r, &slicer{}, tbl, w.ports, func(r *wire.Reader, _ *slice) {
			switch {
			case !r.Bool("dirty"):
				clean++
			case join:
				dirty++
				readSliceStore(r)
			default:
				dirty++
				(&SharedAggregation{}).readAggIndex(r)
			}
		})
	}
	if r.Err() != nil {
		t.Fatalf("delta decode: %v", r.Err())
	}
	return dirty, clean
}

// TestAggregationDeltaChainLengthBound: every snapFullEvery-th link is a full
// snapshot, so a chain restores from at most snapFullEvery links, and a
// restored instance always reopens its chain with a full snapshot (its
// dirtiness baseline died with the crash).
func TestAggregationDeltaChainLengthBound(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)))
	slot := msg.CL.Created[0].Slot
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	agg.OnChangelog(msg, 0, nil)

	kinds := ""
	for i := 0; i < 8; i++ {
		agg.OnTuple(0, event.Tuple{Key: 1, Time: event.Time(1 + i), Fields: [event.NumFields]int64{3}, QuerySet: bitset.FromIndexes(slot)}, nil)
		s := agg.OnBarrier(uint64(i+1), nil)
		if s[0] == spe.DeltaSnapshotMagic {
			kinds += "d"
		} else {
			kinds += "F"
		}
	}
	if kinds != "FddFddFd" || snapFullEvery != 3 {
		t.Fatalf("chain shape %q, want FddFddFd (a full link every %d)", kinds, snapFullEvery)
	}

	fresh := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := fresh.Restore(fullLink(agg)); err != nil {
		t.Fatal(err)
	}
	if s := fresh.OnBarrier(100, nil); s[0] == spe.DeltaSnapshotMagic {
		t.Fatal("restored instance opened with a delta; chain base must be a full snapshot")
	}
}

// TestAggregationRestoreDeltaRejectsCorruptChains: a leading byte of
// another layout, trailing bytes, a delta cut short, a delta applied before
// its base and a delta carrying forward a slice its base lacks all fail
// loudly instead of producing silently wrong state.
func TestAggregationRestoreDeltaRejectsCorruptChains(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)))
	slot := msg.CL.Created[0].Slot
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	agg.OnChangelog(msg, 0, nil)
	agg.OnTuple(0, event.Tuple{Key: 1, Time: 5, Fields: [event.NumFields]int64{3}, QuerySet: bitset.FromIndexes(slot)}, nil)
	base := agg.OnBarrier(1, nil)
	agg.OnTuple(0, event.Tuple{Key: 2, Time: 6, Fields: [event.NumFields]int64{4}, QuerySet: bitset.FromIndexes(slot)}, nil)
	delta := agg.OnBarrier(2, nil)

	restored := func() *SharedAggregation {
		fresh := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
		if err := fresh.Restore(base); err != nil {
			t.Fatal(err)
		}
		return fresh
	}

	// A link that leads with neither a full snapshot's version nor the
	// delta magic: one of another layout.
	if err := restored().Restore(append([]byte{opSnapshotVersion - 1}, delta[1:]...)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("a link of another layout accepted: %v", err)
	}
	skewed := append(append([]byte(nil), delta...), 0xEE)
	if err := restored().Restore(skewed); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes not rejected: %v", err)
	}
	if err := restored().Restore(delta[:len(delta)/2]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	// A delta applied to an instance that never restored its base must fail
	// on the predecessor it names.
	empty := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := empty.Restore(delta); err == nil {
		t.Fatal("delta applied before a base was accepted")
	}
	// The happy path still works, proving the guards only fire on corruption.
	ok := restored()
	if err := ok.Restore(delta); err != nil {
		t.Fatalf("clean chain rejected: %v", err)
	}
	assertSameSnapshot(t, "chain vs original", fullLink(agg), fullLink(ok))
	// A delta forged to name the base as its predecessor, carrying forward
	// a slice cut after the base, must fail on the slice the ring lacks.
	agg.OnTuple(0, event.Tuple{Key: 3, Time: 15, Fields: [event.NumFields]int64{5}, QuerySet: bitset.FromIndexes(slot)}, nil)
	agg.OnBarrier(3, nil)
	forged := agg.appendLink(nil, 4, false)
	binary.LittleEndian.PutUint64(forged[1+8:], 1)
	if err := restored().Restore(forged); err == nil || !strings.Contains(err.Error(), "absent from the restored chain") {
		t.Fatalf("a delta carrying forward a slice the base lacks: %v", err)
	}
}

// TestAggregationDeltaChainAcrossSeal: a slice's bytes are its classes and
// their rows in key order, a function of its content alone — whatever order
// its keys arrived in, whichever of a snapshot or a fire sealed it first,
// however often a tuple unsealed it since. So a slice encoded at a barrier,
// then fired over without a fold, stays clean and the chain keeps its bytes
// from before the fire; one a new key unsealed in between is dirty, sealed
// again and re-encoded by the next barrier; and restoring the chain lands in
// the bytes of a full snapshot after it.
func TestAggregationDeltaChainAcrossSeal(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0,
		aggQ(window.SlidingSpec(20, 10), sqlstream.AggSum, 0, gt(0, -1)),
		aggQ(window.SlidingSpec(20, 10), sqlstream.AggMax, 1, gt(0, -1)))
	s0, s1 := msg.CL.Created[0].Slot, msg.CL.Created[1].Slot
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query, msg.CL.Created[1].Query)
	agg.OnChangelog(msg, 0, nil)
	fold := func(key int64, at event.Time, slots ...int) {
		agg.OnTuple(0, event.Tuple{Key: key, Time: at, Fields: [event.NumFields]int64{3, key}, QuerySet: bitset.FromIndexes(slots...)}, nil)
	}
	for i, key := range []int64{5, 3, 9, 1} { // not ascending
		fold(key, event.Time(1+i), s0, s1) // [0,10): one class
		fold(key, event.Time(11+i), s0)    // [10,20): two classes
		fold(key, event.Time(15+i), s1)
	}
	base := agg.OnBarrier(1, nil)
	older, newer := agg.win.sides[0].slices[0].aggs, agg.win.sides[0].slices[1].aggs
	if older.open != nil || newer.open != nil || len(newer.classes) != 2 {
		t.Fatal("the barrier did not seal both slices into their classes; the test proved nothing")
	}
	fold(7, 12, s0)
	if newer.open == nil {
		t.Fatal("a key new to its class left [10,20) sealed; the test proved nothing")
	}
	agg.OnWatermark(10, nil) // fires [-10,10) over the sealed [0,10)
	delta := agg.OnBarrier(2, nil)
	if dirty, clean := countDeltaSlices(t, delta, &agg.win); dirty != 1 || clean != 1 {
		t.Fatalf("the delta re-encoded %d slices and carried %d; want the unsealed one re-encoded, the fired one carried", dirty, clean)
	}
	fresh := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query, msg.CL.Created[1].Query)
	if err := fresh.Restore(base); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(delta); err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, "chain across a seal", fullLink(agg), fullLink(fresh))
}

// TestAggregationRestoreDeltaRecyclesReplaced: a delta that re-encodes a
// slice, or no longer lists one the chain had, hands the restored instance's
// old index for it back to the freelists. After a base and three deltas that
// dirty and evict slices, every row backing the restored instance ever held
// is held by a live slice or on its freelist. Every slice holds the same four
// keys in one class, so any recycled backing fits any later slice and none is
// dropped for being too small.
func TestAggregationRestoreDeltaRecyclesReplaced(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)))
	slot, qid := msg.CL.Created[0].Slot, msg.CL.Created[0].Query
	agg := newDeltaAgg(&[]string{}, qid)
	agg.OnChangelog(msg, 0, nil)
	fill := func(from event.Time) {
		for key := int64(0); key < 4; key++ {
			agg.OnTuple(0, event.Tuple{Key: key, Time: from + event.Time(key), Fields: [event.NumFields]int64{key}, QuerySet: bitset.FromIndexes(slot)}, nil)
		}
	}
	fill(0)
	fill(10)
	fill(20)
	chain := [][]byte{agg.OnBarrier(1, nil)}
	for _, base := range []event.Time{20, 30, 40} {
		// Dirty the newest slice with a key it has, open the next one, evict.
		agg.OnTuple(0, event.Tuple{Key: 1, Time: base + 9, Fields: [event.NumFields]int64{5}, QuerySet: bitset.FromIndexes(slot)}, nil)
		fill(base + 10)
		agg.OnWatermark(base, nil)
		// Three deltas in a row: a chain longer than snapFullEvery links
		// restores like any other.
		chain = append(chain, agg.appendLink(nil, uint64(len(chain)+1), false))
	}

	fresh := newDeltaAgg(&[]string{}, qid)
	held := map[*aggRow]bool{}
	note := func() {
		for _, sl := range fresh.win.sides[0].slices {
			held[unsafe.SliceData(sl.aggs.rows)] = true
		}
	}
	if err := fresh.Restore(chain[0]); err != nil {
		t.Fatal(err)
	}
	note()
	for i, d := range chain[1:] {
		if err := fresh.Restore(d); err != nil {
			t.Fatalf("delta %d: %v", i+1, err)
		}
		note()
	}
	if len(held) < 5 {
		t.Fatalf("the chain restored %d row backings; the test proved nothing", len(held))
	}
	for _, sl := range fresh.win.sides[0].slices {
		delete(held, unsafe.SliceData(sl.aggs.rows))
	}
	for _, rows := range fresh.rowPool {
		delete(held, unsafe.SliceData(rows))
	}
	if len(held) != 0 {
		t.Fatalf("%d row backings are neither held by a live slice nor on the freelist", len(held))
	}
	assertSameSnapshot(t, "chain vs original", fullLink(agg), fullLink(fresh))
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
		// A base and three deltas: longer than any chain OnBarrier cuts.
		chain = append(chain, agg.appendLink(nil, uint64(seg+1), seg == 0))
	}
	fullNow := fullLink(agg)

	viaChain := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := viaChain.Restore(chain[0]); err != nil {
		t.Fatal(err)
	}
	for _, d := range chain[1:] {
		if err := viaChain.Restore(d); err != nil {
			t.Fatal(err)
		}
	}
	viaFull := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query)
	if err := viaFull.Restore(fullNow); err != nil {
		t.Fatal(err)
	}
	a, bb := fullLink(viaChain), fullLink(viaFull)
	if !bytes.Equal(a, bb) {
		t.Fatalf("chain restore and full restore diverged (%d vs %d bytes)", len(a), len(bb))
	}
}

// TestJoinDeltaChainBitIdentical is the join's TestAggregationDeltaChainBitIdentical
// and TestAggregationDeltaVsFullRestoreEquivalence: the join's links come
// from the same driver, with its slice stores as the payload. A join with a
// window longer than the run keeps every slice; it is driven through a
// full+delta+delta chain with a workload change inside, each delta
// re-encoding only the stores written since the link before. Restoring the
// chain and restoring a full snapshot at its end land in the bytes of the
// original's full snapshot, and the same suffix into all three emits alike.
func TestJoinDeltaChainBitIdentical(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0,
		joinQ(window.TumblingSpec(1000), gt(0, -1), gt(0, -1)),
		joinQ(window.SlidingSpec(20, 10), gt(0, 20), gt(0, -1)))
	q1, s1 := msg.CL.Created[0].Query, msg.CL.Created[0].Slot
	q2, s2 := msg.CL.Created[1].Query, msg.CL.Created[1].Slot
	var q3 int

	var gotO, gotC, gotF []string
	newJoin := func(out *[]string) *SharedJoin {
		return NewSharedJoin(0, 0, 10, captureRouter(out, q1, q2), &OpMetrics{})
	}
	orig := newJoin(&gotO)
	orig.OnChangelog(msg, 0, nil)
	rng := rand.New(rand.NewSource(31))
	mk := func(tm event.Time) event.Tuple {
		tu := event.Tuple{Key: int64(rng.Intn(3)), Time: tm, QuerySet: bitset.FromIndexes(s1, s2)}
		tu.Fields[0] = int64(rng.Intn(50))
		return tu
	}

	var chain [][]byte
	tm := event.Time(1)
	for seg, n := range []int{150, 8, 8} {
		for i := 0; i < n; i++ {
			orig.OnTuple(i%2, mk(tm), nil)
			tm += 2
		}
		orig.OnWatermark(tm-6, nil)
		if seg == 1 {
			msg2 := b.create(t, tm-6, joinQ(window.TumblingSpec(10), gt(0, 10), gt(0, -1)))
			q3 = msg2.CL.Created[0].Query
			orig.OnChangelog(msg2, tm-6, nil)
		}
		link := orig.OnBarrier(uint64(seg+1), nil)
		if seg > 0 {
			if link[0] != spe.DeltaSnapshotMagic {
				t.Fatalf("link %d should be a delta, leading byte %#x", seg, link[0])
			}
			dirty, clean := countDeltaSlices(t, link, &orig.win)
			if dirty == 0 || clean == 0 || dirty > 6 {
				t.Fatalf("delta %d re-encoded %d stores and carried %d; want only the few the segment wrote", seg, dirty, clean)
			}
			if len(link)*2 > len(chain[0]) {
				t.Fatalf("delta %d is %d bytes vs %d full: clean stores are being re-encoded", seg, len(link), len(chain[0]))
			}
		} else if link[0] != opSnapshotVersion {
			t.Fatalf("first link should be full, leading byte %#x", link[0])
		}
		chain = append(chain, link)
	}
	fullNow := fullLink(orig)

	viaChain := newJoin(&gotC)
	if err := viaChain.Restore(chain[0]); err != nil {
		t.Fatal(err)
	}
	for i, d := range chain[1:] {
		if err := viaChain.Restore(d); err != nil {
			t.Fatalf("delta %d: %v", i+1, err)
		}
	}
	viaFull := newJoin(&gotF)
	if err := viaFull.Restore(fullNow); err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, "join chain", fullLink(viaChain), fullNow)
	assertSameSnapshot(t, "join full", fullLink(viaFull), fullNow)

	for _, j := range []*SharedJoin{orig, viaChain, viaFull} {
		j.router.Register(q3, SinkFunc(func(Result) {}))
	}
	gotO = gotO[:0]
	suffix := make([]event.Tuple, 0, 10)
	for i := 0; i < 10; i++ {
		suffix = append(suffix, mk(tm+event.Time(i*3)))
	}
	for _, j := range []*SharedJoin{orig, viaChain, viaFull} {
		for i, tu := range suffix {
			j.OnTuple(i%2, tu, nil)
		}
		for wm := tm; wm <= tm+60; wm += 5 {
			j.OnWatermark(wm, nil)
		}
	}
	if len(gotO) == 0 {
		t.Fatal("suffix fired no join windows; test exercises nothing")
	}
	assertSameStrings(t, "join chain suffix", gotC, gotO)
	assertSameStrings(t, "join full suffix", gotF, gotO)
}

// TestJoinRestoreDeltaRejectsCorruptChains: the join's deltas go through the
// driver's decoder and its checks — a leading byte of another layout,
// trailing bytes, a delta cut short, a delta applied before its base, and a
// delta applied twice all fail.
func TestJoinRestoreDeltaRejectsCorruptChains(t *testing.T) {
	base, delta := joinChain(t)
	restored := func() *SharedJoin {
		fresh := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		if err := fresh.Restore(base); err != nil {
			t.Fatal(err)
		}
		return fresh
	}
	if err := restored().Restore(append([]byte{opSnapshotVersion - 1}, delta[1:]...)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("a link of another layout accepted: %v", err)
	}
	if err := restored().Restore(append(append([]byte(nil), delta...), 0xEE)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes not rejected: %v", err)
	}
	if err := restored().Restore(delta[:len(delta)/2]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	if err := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore(delta); err == nil {
		t.Fatal("delta applied before a base was accepted")
	}
	twice := restored()
	if err := twice.Restore(delta); err != nil {
		t.Fatalf("clean chain rejected: %v", err)
	}
	// Applied again, it names a predecessor the instance has moved past.
	if err := twice.Restore(delta); err == nil || !strings.Contains(err.Error(), "last link applied") {
		t.Fatalf("a delta applied twice: %v", err)
	}
}

// joinChain runs a join through a windowed query, tuples on both sides and a
// watermark, and cuts a full link and a delta on top of it, across a second
// query's creation, in which a few new tuples dirty the newest stores. It
// seeds FuzzJoinRestoreDelta too.
func joinChain(tb testing.TB) (full, delta []byte) {
	tb.Helper()
	b := newCLBuilder()
	msg := b.create(tb, 0, joinQ(window.SlidingSpec(20, 5), gt(0, -1), gt(1, 3)))
	j := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	j.OnChangelog(msg, 0, nil)
	feed := func(from, n int) {
		for i := from; i < from+n; i++ {
			j.OnTuple(i%2, event.Tuple{Key: int64(i % 3), Time: event.Time(1 + i),
				Fields: [event.NumFields]int64{int64(i), 4}, QuerySet: bitset.FromIndexes(0)}, nil)
		}
	}
	feed(0, 24)
	j.OnWatermark(8, nil)
	full = j.OnBarrier(1, nil)
	j.OnChangelog(b.create(tb, 25, joinQ(window.TumblingSpec(10), expr.True(), expr.True())), 25, nil)
	feed(24, 4)
	delta = j.OnBarrier(2, nil)
	if full[0] == spe.DeltaSnapshotMagic || delta[0] != spe.DeltaSnapshotMagic {
		tb.Fatal("the join's links are not a full snapshot followed by a delta")
	}
	return full, delta
}
