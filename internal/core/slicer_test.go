package core

import (
	"testing"

	"astream/internal/event"
	"astream/internal/window"
)

func TestSlicerNoQueriesOneBigSliceUntilEpoch(t *testing.T) {
	s := newSlicer()
	sl := s.sliceFor(50)
	if sl.ext.Start != event.MinTime || sl.ext.End != event.MaxTime {
		t.Fatalf("no-spec slice extent = %v", sl.ext)
	}
	if s.sliceFor(90) != sl {
		t.Fatal("same slice should be returned")
	}
}

func TestSlicerCutsAtWindowEdgesAndEpochs(t *testing.T) {
	s := newSlicer()
	// Epoch 1 at t=10 with a tumbling(10) query.
	if err := s.addEpoch(epochInfo{from: 10, seq: 1, specs: []window.Spec{window.TumblingSpec(10)}}, true); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 at t=35 adds a sliding(10,5) query.
	if err := s.addEpoch(epochInfo{from: 35, seq: 2, specs: []window.Spec{window.TumblingSpec(10), window.SlidingSpec(10, 5)}}, true); err != nil {
		t.Fatal(err)
	}

	// t=5: before epoch 1 → one open-ended slice clipped at 10.
	sl := s.sliceFor(5)
	if sl.ext != (window.Extent{Start: event.MinTime, End: 10}) || sl.epoch != 0 {
		t.Fatalf("pre-epoch slice = %v epoch %d", sl.ext, sl.epoch)
	}
	// t=12: inside epoch 1; tumbling edges at 10, 20 → [10,20).
	sl = s.sliceFor(12)
	if sl.ext != (window.Extent{Start: 10, End: 20}) || sl.epoch != 1 {
		t.Fatalf("epoch1 slice = %v epoch %d", sl.ext, sl.epoch)
	}
	// t=33: tumbling edges 30,40, epoch boundary 35 → [30,35).
	sl = s.sliceFor(33)
	if sl.ext != (window.Extent{Start: 30, End: 35}) || sl.epoch != 1 {
		t.Fatalf("pre-epoch2 slice = %v epoch %d", sl.ext, sl.epoch)
	}
	// t=36: epoch 2; edges: tumbling 40, sliding starts 35/40, sliding ends
	// 40/45 → [35,40).
	sl = s.sliceFor(36)
	if sl.ext != (window.Extent{Start: 35, End: 40}) || sl.epoch != 2 {
		t.Fatalf("epoch2 slice = %v epoch %d", sl.ext, sl.epoch)
	}
	// Slices tile without overlap.
	exts := map[window.Extent]bool{}
	for _, sl := range s.slices {
		if exts[sl.ext] {
			t.Fatalf("duplicate slice extent %v", sl.ext)
		}
		exts[sl.ext] = true
	}
	for i := 1; i < len(s.slices); i++ {
		if s.slices[i-1].ext.End > s.slices[i].ext.Start {
			t.Fatalf("overlapping slices %v, %v", s.slices[i-1].ext, s.slices[i].ext)
		}
	}
}

func TestSlicerLazyCreationOrderIndependent(t *testing.T) {
	build := func(times []event.Time) []window.Extent {
		s := newSlicer()
		if err := s.addEpoch(epochInfo{from: 0, seq: 1, specs: []window.Spec{window.SlidingSpec(6, 3)}}, true); err != nil {
			t.Fatal(err)
		}
		for _, tm := range times {
			s.sliceFor(tm)
		}
		var out []window.Extent
		for _, sl := range s.slices {
			out = append(out, sl.ext)
		}
		return out
	}
	a := build([]event.Time{1, 4, 7, 10, 13})
	b := build([]event.Time{13, 1, 10, 4, 7})
	if len(a) != len(b) {
		t.Fatalf("slice counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slice extents differ: %v vs %v", a, b)
		}
	}
}

func TestSlicerOverlapping(t *testing.T) {
	s := newSlicer()
	if err := s.addEpoch(epochInfo{from: 0, seq: 1, specs: []window.Spec{window.TumblingSpec(10)}}, true); err != nil {
		t.Fatal(err)
	}
	for _, tm := range []event.Time{5, 15, 25, 35} {
		s.sliceFor(tm)
	}
	lo, hi := s.overlappingRange(window.Extent{Start: 10, End: 30})
	if got := s.slices[lo:hi]; len(got) != 2 || got[0].ext.Start != 10 || got[1].ext.Start != 20 {
		t.Fatalf("overlapping = %v", got)
	}
	if lo, hi := s.overlappingRange(window.Extent{Start: 100, End: 200}); lo != hi {
		t.Fatalf("overlapping empty range = [%d,%d)", lo, hi)
	}
}

func TestSlicerEvict(t *testing.T) {
	s := newSlicer()
	if err := s.addEpoch(epochInfo{from: 0, seq: 1, specs: []window.Spec{window.TumblingSpec(10)}}, true); err != nil {
		t.Fatal(err)
	}
	for _, tm := range []event.Time{5, 15, 25} {
		s.sliceFor(tm)
	}
	var evicted []window.Extent
	retain := func(sl *slice) event.Time { return sl.ext.End }
	s.evict(20, retain, func(sl *slice) { evicted = append(evicted, sl.ext) })
	if len(evicted) != 2 || s.liveSlices() != 1 {
		t.Fatalf("evicted %v, live %d", evicted, s.liveSlices())
	}
	// A slice whose end is past the watermark is never evicted even if its
	// retention horizon has passed.
	s2 := newSlicer()
	if err := s2.addEpoch(epochInfo{from: 0, seq: 1, specs: []window.Spec{window.TumblingSpec(10)}}, true); err != nil {
		t.Fatal(err)
	}
	s2.sliceFor(5)
	s2.evict(7, func(*slice) event.Time { return 0 }, func(*slice) { t.Fatal("must not evict open slice") })
}

func TestSlicerEpochBookkeeping(t *testing.T) {
	s := newSlicer()
	if s.currentEpoch() != 0 {
		t.Fatal("fresh slicer epoch should be 0")
	}
	if err := s.addEpoch(epochInfo{from: 10, seq: 1}, true); err != nil {
		t.Fatal(err)
	}
	if err := s.addEpoch(epochInfo{from: 5, seq: 2}, true); err == nil {
		t.Fatal("epoch time regression must fail")
	}
	if err := s.addEpoch(epochInfo{from: 20, seq: 3}, true); err == nil {
		t.Fatal("epoch seq gap must fail")
	}
	if err := s.addEpoch(epochInfo{from: 20, seq: 2}, true); err != nil {
		t.Fatal(err)
	}
	if s.epochAt(15).seq != 1 || s.epochAt(25).seq != 2 || s.epochAt(0).seq != 0 {
		t.Fatal("epochAt lookup wrong")
	}
	newest := s.sliceFor(25)
	if got := s.oldestEpochInUse(); got != 2 {
		t.Fatalf("oldestEpochInUse = %d, want 2", got)
	}

	// A non-cutting changelog is checked like a cut, then relabels: the
	// newest epoch keeps its start and specs and takes the seq, so does the
	// slice carrying the old one, and nothing is truncated.
	if err := s.addEpoch(epochInfo{from: 5, seq: 3}, false); err == nil {
		t.Fatal("relabel: epoch time regression must fail")
	}
	if err := s.addEpoch(epochInfo{from: 30, seq: 4}, false); err == nil {
		t.Fatal("relabel: epoch seq gap must fail")
	}
	if err := s.addEpoch(epochInfo{from: 30, seq: 3}, false); err != nil {
		t.Fatal(err)
	}
	if len(s.epochs) != 3 || s.epochs[2].from != 20 || s.currentEpoch() != 3 {
		t.Fatalf("relabel left epochs %+v, want the one from 20 relabeled to 3", s.epochs)
	}
	if newest.epoch != 3 || newest.ext != (window.Extent{Start: 20, End: event.MaxTime}) {
		t.Fatalf("relabeled slice %v epoch %d, want [20,MaxTime) epoch 3", newest.ext, newest.epoch)
	}
	if got := s.oldestEpochInUse(); got != 3 {
		t.Fatalf("oldestEpochInUse after relabel = %d, want 3", got)
	}
	// An older slice keeps its epoch through the next relabel.
	older := s.sliceFor(15)
	if err := s.addEpoch(epochInfo{from: 35, seq: 4}, false); err != nil {
		t.Fatal(err)
	}
	if older.epoch != 1 || newest.epoch != 4 || s.epochAt(25).seq != 4 || s.epochAt(15).seq != 1 {
		t.Fatalf("after a second relabel: older slice epoch %d, newest %d; want 1 and 4", older.epoch, newest.epoch)
	}
	// The next cut truncates the relabeled slice at its time.
	if err := s.addEpoch(epochInfo{from: 40, seq: 5}, true); err != nil {
		t.Fatal(err)
	}
	if newest.ext.End != 40 || newest.epoch != 4 || s.currentEpoch() != 5 {
		t.Fatalf("cut after relabel: slice %v epoch %d, current %d", newest.ext, newest.epoch, s.currentEpoch())
	}
	s.pruneEpochs(41)
	if len(s.epochs) != 1 || s.epochs[0].seq != 5 {
		t.Fatalf("pruneEpochs kept %d epochs (first seq %d)", len(s.epochs), s.epochs[0].seq)
	}
}

func TestSlicerIDNamespacing(t *testing.T) {
	a := newSlicerWithIDs(0, 2)
	b := newSlicerWithIDs(1, 2)
	ea := a.sliceFor(0)
	eb := b.sliceFor(0)
	ea2 := a.sliceFor(1 << 40)
	if ea.id%2 != 0 || ea2.id%2 != 0 || eb.id%2 != 1 {
		t.Fatalf("ids not namespaced: %d %d %d", ea.id, ea2.id, eb.id)
	}
}
