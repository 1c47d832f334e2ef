package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
)

// These tests pin the per-operator Snapshot/Restore contract the recovery
// path depends on: cutting a snapshot mid-stream, restoring it into a fresh
// instance, and feeding both the identical suffix must produce identical
// emissions — and identical next snapshots, which is the stronger claim that
// the restored state is equal, not merely output-equivalent so far.

// clBuilder assigns query IDs and slots the way the engine session does, so
// direct operator tests can weave realistic changelogs.
type clBuilder struct {
	reg    *changelog.Registry
	defs   map[int]*Query
	nextID int
}

func newCLBuilder() *clBuilder {
	return &clBuilder{reg: changelog.NewRegistry(changelog.SlotReuse), defs: map[int]*Query{}}
}

func (b *clBuilder) create(t testing.TB, at event.Time, qs ...*Query) *ChangelogMsg {
	t.Helper()
	ids := make([]int, 0, len(qs))
	for _, q := range qs {
		b.nextID++
		q.ID = b.nextID
		b.defs[q.ID] = q
		ids = append(ids, q.ID)
	}
	cl, err := b.reg.Apply(at, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &ChangelogMsg{CL: cl, Defs: b.defs}
}

func (b *clBuilder) remove(t testing.TB, at event.Time, ids ...int) *ChangelogMsg {
	t.Helper()
	cl, err := b.reg.Apply(at, nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	return &ChangelogMsg{CL: cl, Defs: b.defs}
}

// tupleTap is a chained capture target for operators that emit tuples.
type tupleTap struct {
	spe.BaseLogic
	out *[]string
}

func (tt tupleTap) OnTuple(_ int, t event.Tuple, _ *spe.Emitter) {
	*tt.out = append(*tt.out, fmt.Sprintf("k=%d t=%v s=%d qs=%v f=%v",
		t.Key, t.Time, t.Stream, t.QuerySet.Words(), t.Fields))
}

func tapEmitter(out *[]string) *spe.Emitter {
	return spe.NewChainedEmitter(tupleTap{out: out}, nil)
}

// captureRouter registers a formatting sink for the given query IDs.
func captureRouter(out *[]string, ids ...int) *Router {
	r := NewRouter(&OpMetrics{})
	for _, id := range ids {
		r.Register(id, SinkFunc(func(res Result) {
			*out = append(*out, fmt.Sprintf("q%d %v w=[%v,%v) key=%d val=%d join=%v et=%v",
				res.QueryID, res.Kind, res.Window.Start, res.Window.End,
				res.Key, res.Value, res.Join, res.EventTime))
		}))
	}
	return r
}

func assertSameStrings(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d emissions, want %d\ngot:  %v\nwant: %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s emission %d:\ngot:  %s\nwant: %s", what, i, got[i], want[i])
		}
	}
}

func assertSameSnapshot(t *testing.T, what string, a, b []byte) {
	t.Helper()
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: re-snapshots differ after identical suffix (%d vs %d bytes)", what, len(a), len(b))
	}
}

func TestSelectionSnapshotRoundTrip(t *testing.T) {
	b := newCLBuilder()
	orig := NewSharedSelection(0, 10, &OpMetrics{})
	msg := b.create(t, 0, selQ(gt(0, 50)), selQ(gt(1, 30)))
	firstID := msg.CL.Created[0].Query
	orig.OnChangelog(msg, 0, nil)

	rng := rand.New(rand.NewSource(5))
	mk := func(i int) event.Tuple {
		tu := event.Tuple{Key: int64(i % 3), Time: event.Time(i)}
		tu.Fields[0] = int64(rng.Intn(100))
		tu.Fields[1] = int64(rng.Intn(100))
		return tu
	}
	var pre []string
	preOut := tapEmitter(&pre)
	for i := 1; i <= 20; i++ {
		orig.OnTuple(0, mk(i), preOut)
	}
	orig.OnWatermark(15, nil)
	// A deletion right before the barrier: the snapshot must carry the
	// versioned table, not just the live predicates.
	orig.OnChangelog(b.remove(t, 15, firstID), 15, nil)

	snap := orig.OnBarrier(1, nil)
	fresh := NewSharedSelection(0, 10, &OpMetrics{})
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}

	var gotO, gotF []string
	outO, outF := tapEmitter(&gotO), tapEmitter(&gotF)
	suffix := make([]event.Tuple, 0, 20)
	for i := 16; i <= 35; i++ {
		suffix = append(suffix, mk(i))
	}
	for _, tu := range suffix {
		orig.OnTuple(0, tu, outO)
		fresh.OnTuple(0, tu, outF)
	}
	orig.OnWatermark(35, nil)
	fresh.OnWatermark(35, nil)
	if len(gotO) == 0 {
		t.Fatal("suffix produced no emissions; test exercises nothing")
	}
	assertSameStrings(t, "selection", gotF, gotO)
	assertSameSnapshot(t, "selection", orig.OnBarrier(2, nil), fresh.OnBarrier(2, nil))
}

func TestJoinSnapshotRoundTrip(t *testing.T) {
	for _, mode := range []StoreMode{StoreList, StoreGrouped} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			b := newCLBuilder()
			msg := b.create(t, 0, joinQ(window.TumblingSpec(10), gt(0, -1), gt(0, -1)))
			qid := msg.CL.Created[0].Query
			slot := msg.CL.Created[0].Slot

			var gotO, gotF []string
			orig := NewSharedJoin(0, mode, 10, captureRouter(&gotO, qid), &OpMetrics{})
			orig.OnChangelog(msg, 0, nil)

			rng := rand.New(rand.NewSource(7))
			mk := func(i int) event.Tuple {
				tu := event.Tuple{Key: int64(i % 3), Time: event.Time(i), QuerySet: bitset.FromIndexes(slot)}
				tu.Fields[0] = int64(rng.Intn(100))
				return tu
			}
			feed := func(j *SharedJoin, from, to int, out *spe.Emitter, wmEvery int) {
				for i := from; i <= to; i++ {
					tu := mk(i)
					j.OnTuple(i%2, tu, out)
					if i%wmEvery == 0 {
						j.OnWatermark(event.Time(i-2), out)
					}
				}
			}
			// Prefix: two windows' worth of pairs, some already fired.
			rng = rand.New(rand.NewSource(7))
			var sink []string
			feed(orig, 1, 22, tapEmitter(&sink), 5)

			snap := orig.OnBarrier(1, nil)
			fresh := NewSharedJoin(0, mode, 10, captureRouter(&gotF, qid), &OpMetrics{})
			if err := fresh.Restore(snap); err != nil {
				t.Fatal(err)
			}
			gotO = gotO[:0] // compare suffix emissions only

			// Identical suffix into both, driven by one rng so tuples match.
			rng = rand.New(rand.NewSource(9))
			suffix := make([]event.Tuple, 0, 20)
			for i := 23; i <= 42; i++ {
				suffix = append(suffix, mk(i))
			}
			var sinkO, sinkF []string
			outO, outF := tapEmitter(&sinkO), tapEmitter(&sinkF)
			for i, tu := range suffix {
				n := 23 + i
				orig.OnTuple(n%2, tu, outO)
				fresh.OnTuple(n%2, tu, outF)
				if n%5 == 0 {
					orig.OnWatermark(event.Time(n-2), outO)
					fresh.OnWatermark(event.Time(n-2), outF)
				}
			}
			orig.OnWatermark(45, outO)
			fresh.OnWatermark(45, outF)
			if len(gotO) == 0 {
				t.Fatal("suffix fired no join windows; test exercises nothing")
			}
			assertSameStrings(t, "join results", gotF, gotO)
			assertSameStrings(t, "join passthrough", sinkF, sinkO)
			assertSameSnapshot(t, "join", orig.OnBarrier(2, nil), fresh.OnBarrier(2, nil))
		})
	}
}

func TestAggregationSnapshotRoundTrip(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0,
		aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)),
		aggQ(window.SessionSpec(4), sqlstream.AggSum, 0, gt(0, -1)))
	tumID, tumSlot := msg.CL.Created[0].Query, msg.CL.Created[0].Slot
	sessID, sessSlot := msg.CL.Created[1].Query, msg.CL.Created[1].Slot

	var gotO, gotF []string
	orig := NewSharedAggregation(1, 10, captureRouter(&gotO, tumID, sessID), &OpMetrics{})
	orig.OnChangelog(msg, 0, nil)

	// Bursty timeline: gaps > the session gap close sessions mid-stream, so
	// the snapshot carries both closed history and open session state.
	times := []event.Time{1, 2, 3, 9, 10, 11, 17, 18, 24, 25}
	rng := rand.New(rand.NewSource(11))
	mk := func(tm event.Time) event.Tuple {
		tu := event.Tuple{Key: int64(rng.Intn(3)), Time: tm, QuerySet: bitset.FromIndexes(tumSlot, sessSlot)}
		tu.Fields[0] = int64(rng.Intn(50))
		return tu
	}
	for _, tm := range times {
		orig.OnTuple(0, mk(tm), nil)
	}
	orig.OnWatermark(20, nil)

	snap := orig.OnBarrier(1, nil)
	fresh := NewSharedAggregation(1, 10, captureRouter(&gotF, tumID, sessID), &OpMetrics{})
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	gotO = gotO[:0]

	// The suffix includes a workload change: restored instances must accept
	// the next changelog exactly like the original.
	msg2 := b.create(t, 26, aggQ(window.TumblingSpec(5), sqlstream.AggMax, 0, gt(0, -1)))
	newID := msg2.CL.Created[0].Query
	orig.router.Register(newID, SinkFunc(func(res Result) {
		gotO = append(gotO, fmt.Sprintf("q%d %v w=[%v,%v) key=%d val=%d", res.QueryID, res.Kind,
			res.Window.Start, res.Window.End, res.Key, res.Value))
	}))
	fresh.router.Register(newID, SinkFunc(func(res Result) {
		gotF = append(gotF, fmt.Sprintf("q%d %v w=[%v,%v) key=%d val=%d", res.QueryID, res.Kind,
			res.Window.Start, res.Window.End, res.Key, res.Value))
	}))
	orig.OnChangelog(msg2, 26, nil)
	fresh.OnChangelog(msg2, 26, nil)

	suffixTimes := []event.Time{26, 27, 33, 34, 40, 41, 48}
	rng = rand.New(rand.NewSource(13))
	suffix := make([]event.Tuple, 0, len(suffixTimes))
	for _, tm := range suffixTimes {
		suffix = append(suffix, mk(tm))
	}
	for _, tu := range suffix {
		orig.OnTuple(0, tu, nil)
		fresh.OnTuple(0, tu, nil)
	}
	for wm := event.Time(25); wm <= 55; wm += 5 {
		orig.OnWatermark(wm, nil)
		fresh.OnWatermark(wm, nil)
	}
	if len(gotO) == 0 {
		t.Fatal("suffix fired no aggregation windows; test exercises nothing")
	}
	assertSameStrings(t, "aggregation", gotF, gotO)
	assertSameSnapshot(t, "aggregation", orig.OnBarrier(2, nil), fresh.OnBarrier(2, nil))
}

// TestSliceStoreSnapshotRoundTrip pins the store encoding for both layouts:
// the restored store must reproduce the exact representation (mode, layout,
// group structure), not just the same tuple multiset.
func TestSliceStoreSnapshotRoundTrip(t *testing.T) {
	for _, mode := range []StoreMode{StoreList, StoreGrouped, StoreAdaptive} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			s := newSliceStore(mode)
			for i := 0; i < 150; i++ {
				s.Add(mkTuple(int64(i%5), event.Time(i), i%4))
			}
			enc := snapSliceStore(nil, s)
			r := wire.NewReader(enc)
			back := readSliceStore(r)
			if err := r.Finish("store"); err != nil {
				t.Fatal(err)
			}
			if back.Grouped() != s.Grouped() || back.Len() != s.Len() {
				t.Fatalf("restored store: grouped=%v len=%d, want grouped=%v len=%d",
					back.Grouped(), back.Len(), s.Grouped(), s.Len())
			}
			if !bytes.Equal(snapSliceStore(nil, back), enc) {
				t.Fatal("re-encoding the restored store diverged")
			}
		})
	}
	t.Run("nil", func(t *testing.T) {
		enc := snapSliceStore(nil, nil)
		r := wire.NewReader(enc)
		if back := readSliceStore(r); back != nil || r.Finish("store") != nil {
			t.Fatalf("nil store round-trip: %v, %v", back, r.Err())
		}
	})
}

// TestOperatorRestoreRejectsCorruptSnapshots: truncation and version skew
// must surface as errors, never as panics or silently wrong state.
func TestOperatorRestoreRejectsCorruptSnapshots(t *testing.T) {
	b := newCLBuilder()
	agg := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	agg.OnChangelog(b.create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1))), 0, nil)
	agg.OnTuple(0, event.Tuple{Key: 1, Time: 5, QuerySet: bitset.FromIndexes(0)}, nil)
	snap := agg.OnBarrier(1, nil)

	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{99}, snap[1:]...)},
		{"truncated", snap[:len(snap)/2]},
	} {
		fresh := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		if err := fresh.Restore(tc.b); err == nil {
			t.Fatalf("%s: Restore accepted a corrupt snapshot", tc.name)
		}
	}
	sel := NewSharedSelection(0, 10, &OpMetrics{})
	if err := sel.Restore([]byte{99}); err == nil {
		t.Fatal("selection accepted a bad version byte")
	}
	join := NewSharedJoin(0, StoreList, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	if err := join.Restore([]byte{1, 0}); err == nil {
		t.Fatal("join accepted a truncated snapshot")
	}
}

// TestVersionSkewFailsLoudly pins the trailing-bytes contract: a snapshot
// written by a newer encoder that appended a field must be rejected by
// this build's Restore, never half-parsed into silently wrong state. The
// appended suffix stands in for the unknown field; the unmodified
// snapshot must still restore, proving the guard only fires on skew.
func TestVersionSkewFailsLoudly(t *testing.T) {
	skew := func(snap []byte) []byte {
		return append(append([]byte(nil), snap...), 0xEE, 0xFF)
	}

	sel := NewSharedSelection(0, 10, &OpMetrics{})
	sel.OnChangelog(newCLBuilder().create(t, 0, selQ(gt(0, 50))), 0, nil)
	selSnap := sel.OnBarrier(1, nil)
	if err := NewSharedSelection(0, 10, &OpMetrics{}).Restore(selSnap); err != nil {
		t.Fatalf("selection: clean snapshot rejected: %v", err)
	}
	if err := NewSharedSelection(0, 10, &OpMetrics{}).Restore(skew(selSnap)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("selection: skewed snapshot not rejected loudly: %v", err)
	}

	join := NewSharedJoin(0, StoreList, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	join.OnChangelog(newCLBuilder().create(t, 0, joinQ(window.TumblingSpec(10), gt(0, -1), gt(0, -1))), 0, nil)
	join.OnTuple(0, event.Tuple{Key: 1, Time: 3, QuerySet: bitset.FromIndexes(0)}, tapEmitter(&[]string{}))
	joinSnap := join.OnBarrier(1, nil)
	fresh := func() *SharedJoin { return NewSharedJoin(0, StoreList, 10, NewRouter(&OpMetrics{}), &OpMetrics{}) }
	if err := fresh().Restore(joinSnap); err != nil {
		t.Fatalf("join: clean snapshot rejected: %v", err)
	}
	if err := fresh().Restore(skew(joinSnap)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("join: skewed snapshot not rejected loudly: %v", err)
	}

	agg := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	agg.OnChangelog(newCLBuilder().create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1))), 0, nil)
	agg.OnTuple(0, event.Tuple{Key: 1, Time: 5, QuerySet: bitset.FromIndexes(0)}, nil)
	aggSnap := agg.OnBarrier(1, nil)
	freshAgg := func() *SharedAggregation { return NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{}) }
	if err := freshAgg().Restore(aggSnap); err != nil {
		t.Fatalf("aggregation: clean snapshot rejected: %v", err)
	}
	if err := freshAgg().Restore(skew(aggSnap)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("aggregation: skewed snapshot not rejected loudly: %v", err)
	}
}
