package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/expr"
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
	return b.apply(t, at, nil, qs...)
}

func (b *clBuilder) remove(t testing.TB, at event.Time, ids ...int) *ChangelogMsg {
	t.Helper()
	return b.apply(t, at, ids)
}

// apply weaves one changelog that deletes del and creates qs; the registry
// hands the slots del frees to qs first.
func (b *clBuilder) apply(t testing.TB, at event.Time, del []int, qs ...*Query) *ChangelogMsg {
	t.Helper()
	ids := make([]int, 0, len(qs))
	for _, q := range qs {
		b.nextID++
		q.ID = b.nextID
		b.defs[q.ID] = q
		ids = append(ids, q.ID)
	}
	cl, err := b.reg.Apply(at, ids, del)
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

// TestSelectionSnapshotRoundTrip: a restored selection classifies, serves
// and emits like the original. Selection queries A and B and an
// aggregation query start at 0; at 15 A is deleted and selection D takes
// its slot, right before the barrier, so the snapshot must carry the
// versioned table, not just the live predicates, and which entries the
// instance serves. The suffix holds tuples from before the deletion, which
// A serves.
func TestSelectionSnapshotRoundTrip(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0, selQ(gt(0, 50)), selQ(gt(1, 30)), aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, 20)))
	firstID := msg.CL.Created[0].Query
	reuse := b.apply(t, 15, []int{firstID}, selQ(gt(1, 60)))
	if reuse.CL.Created[0].Slot != msg.CL.Created[0].Slot {
		t.Fatal("D does not reuse A's slot")
	}
	ids := []int{firstID, msg.CL.Created[1].Query, msg.CL.Created[2].Query, reuse.CL.Created[0].Query}
	var servedO, servedF []string
	orig := NewSharedSelection(0, 10, &OpMetrics{})
	orig.router = servedRouter(&servedO, ids...)
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
	orig.OnChangelog(reuse, 15, nil)

	snap := orig.OnBarrier(1, nil)
	fresh := NewSharedSelection(0, 10, &OpMetrics{})
	fresh.router = servedRouter(&servedF, ids...)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	servedO = servedO[:0]

	var gotO, gotF []string
	outO, outF := tapEmitter(&gotO), tapEmitter(&gotF)
	late := func(tm event.Time) event.Tuple {
		return event.Tuple{Key: 1, Time: tm, Fields: [event.NumFields]int64{90, 10}}
	}
	suffix := []event.Tuple{late(12), late(14)}
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
	for _, id := range []int{firstID, ids[1], ids[3]} {
		if !slices.ContainsFunc(servedO, func(s string) bool { return strings.HasPrefix(s, fmt.Sprintf("q%d ", id)) }) {
			t.Fatalf("selection query %d was served nothing after the barrier: %v", id, servedO)
		}
	}
	assertSameStrings(t, "selection served", servedF, servedO)
	assertSameStrings(t, "selection", gotF, gotO)
	assertSameSnapshot(t, "selection", orig.OnBarrier(2, nil), fresh.OnBarrier(2, nil))
}

func TestJoinSnapshotRoundTrip(t *testing.T) {
	t.Run("list", func(t *testing.T) {
		b := newCLBuilder()
		msg := b.create(t, 0, joinQ(window.TumblingSpec(10), gt(0, -1), gt(0, -1)))
		qid := msg.CL.Created[0].Query
		slot := msg.CL.Created[0].Slot

		var gotO, gotF []string
		orig := NewSharedJoin(0, 0, 10, captureRouter(&gotO, qid), &OpMetrics{})
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
		// A second query starting at 25, ahead of the watermark (18): its
		// windows ending by then hold nothing for it and are skipped.
		orig.OnChangelog(b.create(t, 25, joinQ(window.TumblingSpec(4), gt(0, -1), gt(0, -1))), 25, nil)

		snap := orig.OnBarrier(1, nil)
		lookups := func(j *SharedJoin) uint64 { return j.metrics.PairsDone + j.metrics.PairsReuse }
		origLookups := lookups(orig)
		fresh := NewSharedJoin(0, 0, 10, captureRouter(&gotF, qid), &OpMetrics{})
		if err := fresh.Restore(snap); err != nil {
			t.Fatal(err)
		}
		gotO = gotO[:0] // compare suffix emissions only

		// Identical suffix into both, driven by one rng so tuples match;
		// it opens with a tuple per side behind the evicted [0,10), which
		// both must drop as late. Both snapshot alike after every tuple.
		rng = rand.New(rand.NewSource(9))
		suffix := []event.Tuple{mk(4), mk(5)}
		for i := 23; i <= 42; i++ {
			suffix = append(suffix, mk(i))
		}
		var sinkO, sinkF []string
		outO, outF := tapEmitter(&sinkO), tapEmitter(&sinkF)
		for i, tu := range suffix {
			n := 21 + i
			orig.OnTuple(n%2, tu, outO)
			fresh.OnTuple(n%2, tu, outF)
			if n%5 == 0 {
				orig.OnWatermark(event.Time(n-2), outO)
				fresh.OnWatermark(event.Time(n-2), outF)
			}
			assertSameSnapshot(t, fmt.Sprintf("join, suffix tuple %d", i), fullLink(orig), fullLink(fresh))
		}
		orig.OnWatermark(45, outO)
		fresh.OnWatermark(45, outF)
		if len(gotO) == 0 {
			t.Fatal("suffix fired no join windows; test exercises nothing")
		}
		assertSameStrings(t, "join results", gotF, gotO)
		assertSameStrings(t, "join passthrough", sinkF, sinkO)
		// The pair cache is not persisted, so the restored join computes
		// pairs the original reuses; it looks up as many, firing no window
		// the original skips.
		if o, f := lookups(orig)-origLookups, lookups(fresh); o != f {
			t.Fatalf("restored join looked up %d slice pairs, the original %d", f, o)
		}
		assertSameSnapshot(t, "join", fullLink(orig), fullLink(fresh))
	})
}

func TestAggregationSnapshotRoundTrip(t *testing.T) {
	b := newCLBuilder()
	msg := b.create(t, 0,
		aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1)),
		aggQ(window.SessionSpec(4), sqlstream.AggSum, 0, gt(0, -1)),
		aggQ(window.TumblingSpec(10), sqlstream.AggMax, 0, gt(0, 20)))
	tumID, tumSlot := msg.CL.Created[0].Query, msg.CL.Created[0].Slot
	sessID, sessSlot := msg.CL.Created[1].Query, msg.CL.Created[1].Slot
	maxID, maxSlot := msg.CL.Created[2].Query, msg.CL.Created[2].Slot

	var gotO, gotF []string
	orig := NewSharedAggregation(1, 10, captureRouter(&gotO, tumID, sessID, maxID), &OpMetrics{})
	orig.OnChangelog(msg, 0, nil)

	// Bursty timeline: gaps > the session gap close sessions mid-stream, so
	// the snapshot carries both closed history and open session state. The
	// MAX query selects some tuples only, so slices hold two classes, one of
	// them in two groups.
	times := []event.Time{1, 2, 3, 9, 10, 11, 17, 18, 24, 25}
	rng := rand.New(rand.NewSource(11))
	mk := func(tm event.Time) event.Tuple {
		tu := event.Tuple{Key: int64(rng.Intn(3)), Time: tm, QuerySet: bitset.FromIndexes(tumSlot, sessSlot)}
		tu.Fields[0] = int64(rng.Intn(50))
		if tu.Fields[0] > 20 {
			tu.QuerySet.Set(maxSlot)
		}
		return tu
	}
	for _, tm := range times {
		orig.OnTuple(0, mk(tm), nil)
	}
	orig.OnWatermark(20, nil)

	snap := orig.OnBarrier(1, nil)
	fresh := NewSharedAggregation(1, 10, captureRouter(&gotF, tumID, sessID, maxID), &OpMetrics{})
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
	assertSameSnapshot(t, "aggregation", fullLink(orig), fullLink(fresh))

	// Tumbling, session and second-port queries across a restore and slot
	// reuse. At 0 a COUNT query, two-slice tumbling A, session C and
	// two-stream P (fed on port 1) start; A and C are deleted at 12, and at
	// 14 session D and tumbling B take C's and A's slots. The snapshot falls
	// after the watermark evicted [0,10) and before it passes the deletions.
	// After it: a tuple behind the evicted slice (late), one of A's and C's
	// time on the reused slots (theirs alone), one of B's and D's time
	// (theirs alone), a changelog opening an epoch with new port masks, and
	// a tuple for P on port 1. Both instances snapshot alike after every
	// step. (The selection's own round trip covers selection queries on a
	// reused slot.)
	b = newCLBuilder()
	msg0 := b.create(t, 0,
		aggQ(window.TumblingSpec(10), sqlstream.AggCount, 0, expr.True()),
		aggQ(window.TumblingSpec(2), sqlstream.AggCount, 0, expr.True()),
		aggQ(window.SessionSpec(4), sqlstream.AggCount, 0, expr.True()),
		complexQ(window.TumblingSpec(10), window.TumblingSpec(10), sqlstream.AggCount, -1, expr.True(), expr.True()))
	cntID, aID, cID, pID := msg0.CL.Created[0].Query, msg0.CL.Created[1].Query, msg0.CL.Created[2].Query, msg0.CL.Created[3].Query
	delAC := b.remove(t, 12, aID, cID)
	msgDB := b.create(t, 14,
		aggQ(window.SessionSpec(4), sqlstream.AggCount, 0, expr.True()),
		aggQ(window.TumblingSpec(2), sqlstream.AggCount, 0, expr.True()))
	dID, bID := msgDB.CL.Created[0].Query, msgDB.CL.Created[1].Query
	slot := map[int]int{} // query ID -> slot
	for _, c := range slices.Concat(msg0.CL.Created, msgDB.CL.Created) {
		slot[c.Query] = c.Slot
	}
	if slot[dID] != slot[cID] || slot[bID] != slot[aID] || slot[aID] == 0 {
		t.Fatalf("slots %v: D must reuse C's, B A's, and A's must not be 0", slot)
	}
	tuple := func(tm event.Time, ids ...int) event.Tuple {
		tu := event.Tuple{Key: int64(tm % 3), Time: tm}
		for _, id := range ids {
			tu.QuerySet.Set(slot[id])
		}
		return tu
	}
	ids := []int{cntID, aID, cID, pID, dID, bID}
	gotO, gotF = nil, nil
	orig = NewSharedAggregation(2, 10, captureRouter(&gotO, ids...), &OpMetrics{})
	orig.OnChangelog(msg0, 0, nil)
	for tm := event.Time(1); tm < 10; tm += 2 {
		orig.OnTuple(0, tuple(tm, cntID, aID, cID), nil)
	}
	orig.OnTuple(1, tuple(4, pID), nil)
	orig.OnWatermark(10, nil)
	orig.OnChangelog(delAC, 12, nil)
	orig.OnChangelog(msgDB, 14, nil)
	orig.OnTuple(0, tuple(15, cntID, bID, dID), nil)
	fresh = NewSharedAggregation(2, 10, captureRouter(&gotF, ids...), &OpMetrics{})
	if err := fresh.Restore(fullLink(orig)); err != nil {
		t.Fatal(err)
	}
	gotO = gotO[:0]
	delB := b.remove(t, 18, bID)
	for i, step := range []func(op *SharedAggregation){
		func(op *SharedAggregation) { op.OnTuple(0, tuple(5, cntID), nil) },
		func(op *SharedAggregation) { op.OnTuple(0, tuple(11, cntID, aID, cID), nil) },
		func(op *SharedAggregation) { op.OnTuple(0, tuple(16, bID, dID), nil) },
		func(op *SharedAggregation) { op.OnChangelog(delB, 18, nil) },
		func(op *SharedAggregation) { op.OnTuple(1, tuple(19, pID), nil) },
		func(op *SharedAggregation) { op.OnTuple(0, tuple(19, cntID), nil) },
		func(op *SharedAggregation) { op.OnWatermark(30, nil) },
	} {
		step(orig)
		step(fresh)
		assertSameSnapshot(t, fmt.Sprintf("aggregation queries, step %d", i), fullLink(orig), fullLink(fresh))
	}
	for _, id := range []int{bID, dID, pID} {
		if !slices.ContainsFunc(gotO, func(s string) bool { return strings.HasPrefix(s, fmt.Sprintf("q%d ", id)) }) {
			t.Fatalf("query %d received nothing after the restore: %v", id, gotO)
		}
	}
	assertSameStrings(t, "aggregation queries", gotF, gotO)
}

// TestSliceStoreSnapshotRoundTrip pins the store encoding: the restored
// store holds the same tuples at the same positions.
func TestSliceStoreSnapshotRoundTrip(t *testing.T) {
	t.Run("list", func(t *testing.T) {
		s := &sliceStore{}
		for i := 0; i < 150; i++ {
			s.Add(mkTuple(int64(i%5), event.Time(i), i%4))
		}
		enc := snapSliceStore(nil, s)
		r := wire.NewReader(enc)
		back := readSliceStore(r)
		if err := r.Finish("store"); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.tuples, s.tuples) {
			t.Fatalf("restored store holds %d tuples, not the %d snapshotted in order", back.Len(), s.Len())
		}
		if !bytes.Equal(snapSliceStore(nil, back), enc) {
			t.Fatal("re-encoding the restored store diverged")
		}
	})
}

// TestSliceStoreRestoreRejectsForgedShapes: a join slice store restores
// only from what snapSliceStore writes — a store count that is not the
// number of tuples that follow fails, fewer as trailing bytes, more as a
// count the input cannot back.
func TestSliceStoreRestoreRejectsForgedShapes(t *testing.T) {
	counted := func(n uint32) []byte {
		s := &sliceStore{}
		for i := 0; i < 6; i++ {
			s.Add(mkTuple(int64(i%2), event.Time(i), i%3))
		}
		enc := snapSliceStore(nil, s)
		binary.LittleEndian.PutUint32(enc, n)
		return enc
	}
	for _, tc := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"store count under the tuples'", counted(5), "trailing"},
		{"store count over the tuples'", counted(7), "store tuple count"},
	} {
		r := wire.NewReader(tc.enc)
		readSliceStore(r)
		if err := r.Finish("store"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restored (%v)", tc.name, err)
		}
	}
}

// TestSelectionRestoreRejectsForgedVersions: a selection table restored
// from no version at all (it re-encoded as one) or from versions whose start
// times fall — versionAt then binary-searched an unsorted table. Two
// changelogs released at one event-time do share a start, and restore.
func TestSelectionRestoreRejectsForgedVersions(t *testing.T) {
	forge := func(edit func(s *SharedSelection)) error {
		sel := NewSharedSelection(0, 10, &OpMetrics{})
		b := newCLBuilder()
		sel.OnChangelog(b.create(t, 5, selQ(gt(0, 50))), 5, nil)
		sel.OnChangelog(b.create(t, 9, selQ(gt(1, 50))), 9, nil)
		edit(sel)
		return NewSharedSelection(0, 10, &OpMetrics{}).Restore(sel.OnBarrier(1, nil))
	}
	if err := forge(func(s *SharedSelection) { s.versions = nil }); err == nil || !strings.Contains(err.Error(), "no table version") {
		t.Errorf("a table without a version restored: %v", err)
	}
	if err := forge(func(s *SharedSelection) { s.versions[1].from = 10 }); err == nil || !strings.Contains(err.Error(), "before version") {
		t.Errorf("versions out of start order restored: %v", err)
	}
	if err := forge(func(s *SharedSelection) { s.versions[1].from = 9 }); err != nil {
		t.Errorf("two versions starting together rejected: %v", err)
	}
}

// TestOperatorRestoreRejectsCorruptSnapshots: truncation and version skew
// must surface as errors, never as panics or silently wrong state.
func TestOperatorRestoreRejectsCorruptSnapshots(t *testing.T) {
	b := newCLBuilder()
	agg := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	agg.OnChangelog(b.create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, -1))), 0, nil)
	agg.OnTuple(0, event.Tuple{Key: 1, Time: 5, QuerySet: bitset.FromIndexes(0)}, nil)
	snap := agg.OnBarrier(1, nil)
	badTable := append([]byte(nil), snap...)
	badTable[bytes.Index(snap, agg.win.table.AppendSnapshot(nil))] ^= 0xFF // the table's version byte

	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, ""},
		{"bad version", append([]byte{99}, snap[1:]...), ""},
		{"truncated", snap[:len(snap)/2], ""},
		{"undecodable changelog table", badTable, "changelog table snapshot version"},
	} {
		fresh := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		if err := fresh.Restore(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Restore accepted a corrupt snapshot (%v)", tc.name, err)
		}
	}
	if err := NewSharedAggregation(2, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore(snap); err == nil || !strings.Contains(err.Error(), "ports") {
		t.Fatalf("a one-port snapshot restored into a two-port aggregation (%v)", err)
	}
	sel := NewSharedSelection(0, 10, &OpMetrics{})
	if err := sel.Restore([]byte{99}); err == nil {
		t.Fatal("selection accepted a bad version byte")
	}
	join := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
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

	join := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	join.OnChangelog(newCLBuilder().create(t, 0, joinQ(window.TumblingSpec(10), gt(0, -1), gt(0, -1))), 0, nil)
	join.OnTuple(0, event.Tuple{Key: 1, Time: 3, QuerySet: bitset.FromIndexes(0)}, tapEmitter(&[]string{}))
	joinSnap := join.OnBarrier(1, nil)
	fresh := func() *SharedJoin { return NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{}) }
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

// forgeAggSnapshot folds a COUNT over three tuples of one key into one slice
// group and one tuple into the next, lets forge edit the instance and that slice's index the way no fold
// can, and cuts the snapshot: the encoder then writes the forged shape with
// valid framing.
func forgeAggSnapshot(t *testing.T, forge func(a *SharedAggregation, x *aggIndex)) []byte {
	t.Helper()
	agg := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	agg.OnChangelog(newCLBuilder().create(t, 0, aggQ(window.TumblingSpec(10), sqlstream.AggCount, 0, expr.True())), 0, nil)
	for tm := event.Time(1); tm <= 3; tm++ {
		agg.OnTuple(0, event.Tuple{Key: 4, Time: tm, QuerySet: bitset.FromIndexes(0)}, nil)
	}
	// A second slice leaves input behind the forged one, so a count there
	// meets the check it forges rather than the input's end.
	agg.OnTuple(0, event.Tuple{Key: 4, Time: 12, QuerySet: bitset.FromIndexes(0)}, nil)
	sl := agg.win.sides[0].slices[0]
	forge(agg, sl.aggs)
	return agg.OnBarrier(1, nil)
}

// TestAggregationRestoreRejectsRepeatedKey: a slice snapshot listing one key
// twice in a class would fire the window's COUNT of 3 as 6.
func TestAggregationRestoreRejectsRepeatedKey(t *testing.T) {
	snap := forgeAggSnapshot(t, func(a *SharedAggregation, x *aggIndex) {
		a.seal(x)
		x.rows = append(x.rows, x.rows[len(x.rows)-1])
		x.classes[len(x.classes)-1].rowEnd++
	})
	err := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "key 4 twice") {
		t.Fatalf("a class listing key 4 twice restored: %v", err)
	}
}

// TestAggregationRestoreRejectsRepeatedGroup: a slice snapshot listing one
// class twice would double-count the same way, through two classes holding
// one slot.
func TestAggregationRestoreRejectsRepeatedGroup(t *testing.T) {
	snap := forgeAggSnapshot(t, func(a *SharedAggregation, x *aggIndex) {
		a.seal(x)
		x.slots = append(x.slots, x.classSlots(0)...)
		x.rows = append(x.rows, x.classRows(0)...)
		x.classes = append(x.classes, aggClass{slotEnd: int32(len(x.slots)), rowEnd: int32(len(x.rows))})
	})
	err := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "out of order or repeated") {
		t.Fatalf("a slice listing one class twice restored: %v", err)
	}
}

// TestAggregationRestoreRejectsForgedClasses: the rest of what the class
// encoder never writes — overlapping classes, slots out of order, classes out
// of smallest-slot order, a class without rows or slots, a slice without
// classes, rows out of key order or repeated, a slot no engine assigns — and
// an epoch whose port masks name a port the aggregation does not have, which
// OnTuple would index. A layout of the same shape that breaks no rule
// restores.
func TestAggregationRestoreRejectsForgedClasses(t *testing.T) {
	// layout replaces the slice's classes: per class its slots and row keys,
	// every row the sealed slice's one value.
	layout := func(slots [][]int32, keys [][]int64) func(*SharedAggregation, *aggIndex) {
		return func(a *SharedAggregation, x *aggIndex) {
			a.seal(x)
			v := x.rows[0].v
			x.classes, x.slots, x.rows = nil, nil, nil
			for c := range slots {
				x.slots = append(x.slots, slots[c]...)
				for _, k := range keys[c] {
					x.rows = append(x.rows, aggRow{key: k, v: v})
				}
				x.classes = append(x.classes, aggClass{slotEnd: int32(len(x.slots)), rowEnd: int32(len(x.rows))})
			}
		}
	}
	restore := func(forge func(*SharedAggregation, *aggIndex)) error {
		return NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore(forgeAggSnapshot(t, forge))
	}
	if err := restore(layout([][]int32{{0, 5}, {3}}, [][]int64{{1, 4}, {2}})); err != nil {
		t.Fatalf("a well-formed layout was rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		forge func(a *SharedAggregation, x *aggIndex)
		want  string
	}{
		{"slot in two classes", layout([][]int32{{0, 5}, {3, 5}}, [][]int64{{4}, {4}}), "slot 5 lies in two classes"},
		{"slots out of order", layout([][]int32{{5, 3}}, [][]int64{{4}}), "lists slot 3 after slot 5"},
		{"slot repeated in a class", layout([][]int32{{3, 3}}, [][]int64{{4}}), "lists slot 3 after slot 3"},
		{"classes out of order", layout([][]int32{{3}, {1}}, [][]int64{{4}, {4}}), "out of order or repeated"},
		{"class without rows", layout([][]int32{{0}}, [][]int64{{}}), "holds no row"},
		{"class without slots", layout([][]int32{{}, {0}}, [][]int64{{4}, {4}}), "holds no slot"},
		{"slice without classes", layout(nil, nil), "holds no class"},
		{"rows out of order", layout([][]int32{{0}}, [][]int64{{4, 1}}), "lists key 1 after key 4"},
		{"row key repeated", layout([][]int32{{0}}, [][]int64{{4, 4}}), "lists key 4 twice"},
		{"slot beyond MaxSlots", layout([][]int32{{changelog.MaxSlots}}, [][]int64{{4}}), "beyond the"},
		{"epoch masks a port the aggregation lacks", func(a *SharedAggregation, _ *aggIndex) {
			ep := &a.win.sides[0].epochs[len(a.win.sides[0].epochs)-1]
			ep.portMasks = append(ep.portMasks, bitset.FromIndexes(0))
		}, "masks 2 ports, the operator has 1"},
	} {
		if err := restore(tc.forge); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restored (%v)", tc.name, err)
		}
	}
}

// ringForge edits a slicer and the operator's changelog table the way no
// changelog, tuple or watermark can.
type ringForge func(s *slicer, tbl *changelog.Table)

// forgeRingSnapshot runs an operator through a windowed query created at 0,
// tuples in three of its slices on every side and a selection query started
// at 30 (a non-cutting changelog: the slices are relabeled to epoch 2), lets
// forge edit one ring — the join's right side, whose slice IDs are odd — and
// cuts the snapshot: the encoder then writes the forged ring with valid
// framing. restore is a fresh instance's Restore.
func forgeRingSnapshot(tb testing.TB, join bool, forge ringForge) (snap []byte, restore func([]byte) error) {
	tb.Helper()
	b := newCLBuilder()
	var op spe.Logic
	var win *windowOp
	var q *Query
	if join {
		j := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		op, win, q = j, &j.win, joinQ(window.TumblingSpec(10), expr.True(), expr.True())
		restore = NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore
	} else {
		a := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		op, win, q = a, &a.win, aggQ(window.TumblingSpec(10), sqlstream.AggCount, 0, expr.True())
		restore = NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore
	}
	op.OnChangelog(b.create(tb, 0, q), 0, nil)
	for tm := event.Time(1); tm < 30; tm += 4 {
		for port := range win.sides {
			op.OnTuple(port, event.Tuple{Key: 4, Time: tm, QuerySet: bitset.FromIndexes(0)}, nil)
		}
	}
	op.OnChangelog(b.create(tb, 30, selQ(expr.True())), 30, nil)
	forge(win.sides[len(win.sides)-1], win.table)
	return op.OnBarrier(1, nil), restore
}

// ringForgeries are the rings snapSlicer never writes, each with the error
// it must restore to: restored, each would panic in boundsAt, addEpoch or the
// fire's Rel, or cut slices the fire double-counts.
var ringForgeries = []struct {
	name  string
	forge ringForge
	want  string
}{
	{"no epoch", func(s *slicer, _ *changelog.Table) { s.epochs = nil }, "holds no epoch"},
	{"epoch starts falling", func(s *slicer, _ *changelog.Table) { s.epochs[0].from = 5 }, "does not follow"},
	{"epoch seqs not rising", func(s *slicer, _ *changelog.Table) { s.epochs[0].seq = 2 }, "does not follow"},
	{"newest epoch not the table's", func(s *slicer, _ *changelog.Table) { s.epochs[1].seq = 3 }, "newest epoch is 3"},
	{"slices out of order", func(s *slicer, _ *changelog.Table) { s.slices[0], s.slices[1] = s.slices[1], s.slices[0] }, "starts before"},
	{"slices overlapping", func(s *slicer, _ *changelog.Table) { s.slices[1].ext.Start-- }, "starts before"},
	{"empty slice", func(s *slicer, _ *changelog.Table) { s.slices[1].ext.End = s.slices[1].ext.Start }, "is empty"},
	{"slice epoch past the table", func(s *slicer, _ *changelog.Table) { s.slices[1].epoch = 3 }, "outside the table"},
	{"slice epoch compacted away", func(s *slicer, tbl *changelog.Table) {
		tbl.Compact(2)
		s.slices[1].epoch = 1
	}, "outside the table"},
	{"stride 0", func(s *slicer, _ *changelog.Table) { s.stride = 0 }, "stride is 0"},
	{"slice ID at nextID", func(s *slicer, _ *changelog.Table) { s.nextID = s.slices[2].id }, "at or past"},
}

// TestSlicerRestoreRejectsForgedRings: a slice ring restores, for either
// operator, only from what snapSlicer writes. Before, every forgery below
// decoded; the first tuple or fire then panicked or read another epoch's
// changelog-set. A ring holding relabeled slices restores.
func TestSlicerRestoreRejectsForgedRings(t *testing.T) {
	for _, join := range []bool{false, true} {
		snap, restore := forgeRingSnapshot(t, join, func(s *slicer, tbl *changelog.Table) {
			if len(s.slices) != 3 || s.slices[0].epoch != 2 || tbl.Latest() != 2 || tbl.Base() != 0 {
				t.Fatalf("join=%v: fixture ring has %d slices (first at epoch %d), table [%d,%d]; want 3 relabeled to epoch 2 of [0,2]",
					join, len(s.slices), s.slices[0].epoch, tbl.Base(), tbl.Latest())
			}
		})
		if err := restore(snap); err != nil {
			t.Fatalf("join=%v: a well-formed ring was rejected: %v", join, err)
		}
		for _, tc := range ringForgeries {
			snap, restore := forgeRingSnapshot(t, join, tc.forge)
			if err := restore(snap); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("join=%v, %s: restored (%v)", join, tc.name, err)
			}
		}
	}
}

// newControlEngine is an empty two-stream engine for control snapshots to
// restore into.
func newControlEngine(tb testing.TB) *Engine {
	eng, err := NewEngine(Config{Streams: 2, Parallelism: 1, BatchSize: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// controlEngine is a control snapshot's source: an aggregation and a join
// running, a third query stopped so the registry holds a free slot, and a
// tuple ingested on each stream.
func controlEngine(tb testing.TB) *Engine {
	eng := newControlEngine(tb)
	var ids []int
	for _, q := range []*Query{
		aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, 1)),
		selQ(gt(1, 3)),
		joinQ(window.TumblingSpec(10), expr.True(), gt(2, 4)),
	} {
		id, ack, err := eng.Submit(q, SinkFunc(func(Result) {}))
		if err != nil {
			tb.Fatal(err)
		}
		<-ack
		ids = append(ids, id)
	}
	ack, err := eng.StopQuery(ids[1])
	if err != nil {
		tb.Fatal(err)
	}
	<-ack
	eng.Ingest(0, event.Tuple{Key: 1, Time: 5})
	eng.Ingest(1, event.Tuple{Key: 1, Time: 6})
	return eng
}

// TestControlSnapshotRoundTrip: the engine's control state — registry with a
// free slot, changelog clock, ingress marks, ID counter, horizon and query
// definitions — restores into a fresh engine that
// snapshots to the same bytes and runs the same queries.
func TestControlSnapshotRoundTrip(t *testing.T) {
	eng := controlEngine(t)
	defer eng.Drain()
	snap := eng.ControlSnapshot()
	fresh := newControlEngine(t)
	defer fresh.Drain()
	if err := fresh.RestoreControl(snap); err != nil {
		t.Fatal(err)
	}
	assertSameSnapshot(t, "control", fresh.ControlSnapshot(), snap)
	if got, want := fmt.Sprint(fresh.ActiveQueryIDs()), fmt.Sprint(eng.ActiveQueryIDs()); got != want || got != "[1 3]" {
		t.Fatalf("restored queries %s, want %s = [1 3]", got, want)
	}
	if n := fresh.registry.NumSlots() - fresh.registry.ActiveCount(); n != 1 {
		t.Fatalf("restored registry has %d free slots, want 1", n)
	}
}

// TestRestoreControlRejectsForgedShapes: query definitions out of ID order
// re-encoded sorted.
func TestRestoreControlRejectsForgedShapes(t *testing.T) {
	eng := controlEngine(t)
	eng.Drain() // the forgery below edits a query the operators hold
	eng.defs[1].ID = 9
	snap := eng.ControlSnapshot()
	eng.defs[1].ID = 1
	fresh := newControlEngine(t)
	err := fresh.RestoreControl(snap)
	fresh.Drain()
	if err == nil || !strings.Contains(err.Error(), "after query 9") {
		t.Fatalf("queries out of ID order: restored (%v)", err)
	}
}
