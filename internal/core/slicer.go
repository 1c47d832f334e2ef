package core

import (
	"fmt"
	"sort"

	"astream/internal/event"
	"astream/internal/window"
)

// slicer cuts a stream's event-time axis into the dynamic slices of paper
// §3.1.3. Slice boundaries are the union of (a) window edges of every query
// active at that point in event-time and (b) changelog times. Boundaries are
// therefore a deterministic function of the changelog history, so every
// operator instance — and every replay — cuts identical slices.
//
// Slices are created lazily when a tuple lands in uncut territory, which is
// how "the lengths of slices are determined at runtime" (Figure 4e).
type slicer struct {
	epochs []epochInfo // ascending by from; epochs[0] = {MinTime, seq 0}
	slices []*slice    // ascending by ext.Start, non-overlapping
	nextID uint64
	stride uint64 // slice-ID step (namespacing across slicers)
}

type epochInfo struct {
	from  event.Time
	seq   uint64
	specs []window.Spec // time-based window specs active during this epoch
}

// slice is one disjoint segment of stream time under a single epoch.
type slice struct {
	id    uint64
	ext   window.Extent
	epoch uint64 // changelog epoch in effect throughout the slice
	// Payloads: a join side uses store; the aggregation uses aggs.
	store *sliceStore
	aggs  *qsIndex[aggGroup] // by canonical query-set key
	// folds counts aggregation folds absorbed by this slice; incremental
	// snapshots compare it against the value at the previous barrier to
	// re-encode only slices that changed (snapdelta.go). Derived activity
	// counter: it is not snapshotted and restarts at zero after Restore,
	// whose first delta-mode snapshot is always full.
	folds uint64
}

func newSlicer() *slicer {
	return newSlicerWithIDs(0, 1)
}

// newSlicerWithIDs creates a slicer whose slice IDs are offset, offset+step,
// offset+2·step, … so several slicers can share one ID namespace.
func newSlicerWithIDs(offset, step uint64) *slicer {
	return &slicer{
		epochs: []epochInfo{{from: event.MinTime, seq: 0}},
		nextID: offset,
		stride: step,
	}
}

// addEpoch registers a changelog boundary: from time at, the active
// time-based specs are specs and the epoch is seq. Times must be
// non-decreasing.
//
// An already-open slice can straddle the new boundary: it was created lazily
// before the changelog arrived, when the epoch's window edges alone shaped
// it. Every tuple it holds is older than `at` (the session picks changelog
// times after everything ingested, and stream order delivers the marker
// before any tuple at or past it), so truncating the slice at the boundary
// is safe and restores the invariant that no slice spans two epochs.
func (s *slicer) addEpoch(at event.Time, seq uint64, specs []window.Spec) error {
	last := s.epochs[len(s.epochs)-1]
	if at < last.from {
		return fmt.Errorf("core: epoch time %v before previous %v", at, last.from)
	}
	if seq != last.seq+1 {
		return fmt.Errorf("core: epoch seq %d after %d", seq, last.seq)
	}
	if n := len(s.slices); n > 0 {
		if sl := s.slices[n-1]; sl.ext.Start < at && at < sl.ext.End {
			sl.ext.End = at
		}
	}
	s.epochs = append(s.epochs, epochInfo{from: at, seq: seq, specs: specs})
	return nil
}

// epochAt returns the epoch info in effect at event-time t.
func (s *slicer) epochAt(t event.Time) *epochInfo {
	// Last epoch with from ≤ t.
	i := sort.Search(len(s.epochs), func(i int) bool { return s.epochs[i].from > t }) - 1
	if i < 0 {
		i = 0
	}
	return &s.epochs[i]
}

// currentEpoch returns the newest epoch seq.
func (s *slicer) currentEpoch() uint64 { return s.epochs[len(s.epochs)-1].seq }

// boundsAt computes the slice extent containing t: the nearest boundaries on
// both sides, where boundaries are window edges of the epoch's specs plus
// epoch transition times.
func (s *slicer) boundsAt(t event.Time) (window.Extent, uint64) {
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(s.epochs), func(i int) bool { return s.epochs[i].from > t }) - 1
	if i < 0 {
		i = 0
	}
	ep := &s.epochs[i]
	lo := window.PrevEdgeAll(ep.specs, t)
	if ep.from > lo {
		lo = ep.from
	}
	hi := window.NextEdgeAll(ep.specs, t)
	if i+1 < len(s.epochs) && s.epochs[i+1].from < hi {
		hi = s.epochs[i+1].from
	}
	return window.Extent{Start: lo, End: hi}, ep.seq
}

// sliceFor returns the slice containing t, creating it if necessary.
func (s *slicer) sliceFor(t event.Time) *slice {
	// Binary search: first slice with Start > t, step back one.
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	i := sort.Search(len(s.slices), func(i int) bool { return s.slices[i].ext.Start > t }) - 1
	if i >= 0 && s.slices[i].ext.Contains(t) {
		return s.slices[i]
	}
	ext, epoch := s.boundsAt(t)
	// Clip against neighbours: lazily created slices can otherwise reach
	// into territory an existing slice already owns when boundaries were
	// computed under a since-extended epoch list. Boundaries are
	// deterministic, so clipping only defends the invariant.
	if i >= 0 && s.slices[i].ext.End > ext.Start {
		ext.Start = s.slices[i].ext.End
	}
	if i+1 < len(s.slices) && s.slices[i+1].ext.Start < ext.End {
		ext.End = s.slices[i+1].ext.Start
	}
	//lint:ignore hotalloc cold: runs once per newly opened window slice
	sl := &slice{id: s.nextID, ext: ext, epoch: epoch}
	s.nextID += s.stride
	//lint:ignore hotalloc cold: slice list grows once per newly opened window slice
	s.slices = append(s.slices, nil)
	copy(s.slices[i+2:], s.slices[i+1:])
	s.slices[i+1] = sl
	return sl
}

// overlappingRange returns the index range [lo, hi) of live slices
// overlapping [ext.Start, ext.End). It allocates nothing, which the
// window-fire paths rely on.
func (s *slicer) overlappingRange(ext window.Extent) (int, int) {
	//lint:ignore hotalloc sort.Search does not retain its predicate; the closure is stack-allocated
	lo := sort.Search(len(s.slices), func(i int) bool { return s.slices[i].ext.End > ext.Start })
	hi := lo
	for hi < len(s.slices) && s.slices[hi].ext.Start < ext.End {
		hi++
	}
	return lo, hi
}

// evict removes slices whose retention horizon (computed by retain) is ≤ wm,
// invoking onEvict for each. Slices are removed from the front only (older
// first); a younger slice with a shorter horizon waits for its elders, which
// keeps the slice list contiguous and matches how windows expire.
func (s *slicer) evict(wm event.Time, retain func(*slice) event.Time, onEvict func(*slice)) {
	n := 0
	for n < len(s.slices) {
		sl := s.slices[n]
		if sl.ext.End > wm || retain(sl) > wm {
			break
		}
		onEvict(sl)
		n++
	}
	if n > 0 {
		s.slices = append(s.slices[:0], s.slices[n:]...)
	}
}

// oldestEpochInUse returns the smallest epoch seq still referenced by a live
// slice (or the current epoch when no slices live); the changelog table can
// be compacted up to it.
func (s *slicer) oldestEpochInUse() uint64 {
	if len(s.slices) == 0 {
		return s.currentEpoch()
	}
	min := s.slices[0].epoch
	for _, sl := range s.slices[1:] {
		if sl.epoch < min {
			min = sl.epoch
		}
	}
	return min
}

// pruneEpochs drops epoch history that no future tuple can reference:
// everything strictly before the epoch in effect at horizon.
func (s *slicer) pruneEpochs(horizon event.Time) {
	i := sort.Search(len(s.epochs), func(i int) bool { return s.epochs[i].from > horizon }) - 1
	if i > 0 {
		s.epochs = append(s.epochs[:0], s.epochs[i:]...)
	}
}

// liveSlices returns the number of live slices (for tests and metrics).
func (s *slicer) liveSlices() int { return len(s.slices) }
