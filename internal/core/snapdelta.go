package core

import (
	"fmt"
	"slices"

	"astream/internal/spe"
	"astream/internal/wire"
)

// This file implements incremental snapshots for the shared aggregation —
// the one operator whose state (per-slice partial aggregates) grows with the
// data instead of the workload. A delta re-serializes only the slices whose
// fold counter moved since the previous snapshot, plus the cheap workload
// tables (masks, queries, changelog-table suffix) in full; everything else
// is carried forward from the chain's base by identity. The selection and
// join operators deliberately do not implement spe.DeltaSnapshotter: their
// snapshots are already proportional to the workload, not the stream.
//
// A delta blob starts with spe.DeltaSnapshotMagic where a full snapshot
// starts with opSnapshotVersion, so a snapshot store can classify a deposit
// without understanding the encoding. Chains restore through Restore (base)
// followed by RestoreDelta per delta, strictly in order.

// OnBarrierDelta implements spe.DeltaSnapshotter: emit a full snapshot when
// no prior snapshot anchors a chain (first barrier, or first after a
// restore) or the chain has reached fullEvery-1 deltas; otherwise emit a
// delta covering only slices dirtied since the previous barrier.
func (a *SharedAggregation) OnBarrierDelta(id uint64, out *spe.Emitter, fullEvery int) []byte {
	if a.snapFolds == nil || a.sinceFull >= fullEvery-1 {
		b := a.OnBarrier(id, out)
		a.noteSnapshot(true)
		return b
	}
	b := a.appendDelta(nil)
	a.noteSnapshot(false)
	return b
}

// noteSnapshot records what the snapshot just taken captured: every live
// slice's fold counter (the dirtiness baseline for the next delta) and the
// changelog table's latest epoch (the base for the next table delta).
func (a *SharedAggregation) noteSnapshot(full bool) {
	if full {
		a.sinceFull = 0
	} else {
		a.sinceFull++
	}
	if a.snapFolds == nil {
		a.snapFolds = make(map[uint64]uint64, len(a.win.sides[0].slices))
	} else {
		clear(a.snapFolds)
	}
	for _, sl := range a.win.sides[0].slices {
		a.snapFolds[sl.id] = sl.folds
	}
	a.snapTableSeq = a.win.table.Latest()
}

// appendDelta serializes the incremental snapshot: the full-snapshot layout
// with the changelog table replaced by its delta and every slice's aggregate
// index preceded by a dirty flag. The slicer ring is walked in full — slice
// identity, extent, and epoch are a handful of words each — but a slice's
// aggregate index is re-encoded only when its fold counter moved since the
// last snapshot (folds is bumped on every fold, and the only other aggregate
// mutation is eviction, which removes the slice from the ring entirely).
// Extents are always re-encoded because epoch transitions may truncate the
// newest slice in place without folding anything.
func (a *SharedAggregation) appendDelta(b []byte) []byte {
	b = wire.AppendU8(b, spe.DeltaSnapshotMagic)
	b = a.appendClock(b)
	a.tblScratch = a.win.table.AppendDelta(a.tblScratch[:0], a.snapTableSeq)
	b = wire.AppendBytes(b, a.tblScratch)
	b = a.win.appendSlices(b, func(b []byte, sl *slice) []byte {
		old, ok := a.snapFolds[sl.id]
		dirty := !ok || old != sl.folds
		b = wire.AppendBool(b, dirty)
		if dirty {
			b = a.appendAggIndex(b, sl.aggs)
		}
		return b
	})
	return a.appendWorkload(b)
}

// RestoreDelta implements spe.DeltaRestorable: advance a restored instance
// by one appendDelta blob. Clean slices keep the aggregate index the base
// (or previous delta) restored for the same slice id; dirty slices decode a
// fresh one, and the index each replaces — like that of every slice the delta
// no longer lists — goes back to the freelists. Applying a delta to anything
// other than the exact state it was encoded against is a chain-integrity
// error and fails loudly.
func (a *SharedAggregation) RestoreDelta(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	r.Version("aggregation delta magic", spe.DeltaSnapshotMagic)
	a.readClock(r)
	tdelta := r.Bytes("agg delta table")
	if err := r.Err(); err != nil {
		return err
	}
	if a.win.table == nil {
		return fmt.Errorf("core: aggregation delta applied before a restored base")
	}
	if err := a.win.table.ApplyDelta(tdelta); err != nil {
		return err
	}
	// The ring is rebuilt in place, so the slices it held are listed first.
	old := slices.Clone(a.win.sides[0].slices)
	prev := make(map[uint64]*aggIndex, len(old))
	for _, sl := range old {
		prev[sl.id] = sl.aggs
	}
	a.win.readSlices(r, func(r *wire.Reader, sl *slice) {
		if r.Bool("agg delta slice dirty") {
			sl.aggs = a.readAggIndex(r)
		} else if aggs, ok := prev[sl.id]; ok {
			sl.aggs = aggs
			delete(prev, sl.id)
		} else if r.Err() == nil {
			r.Fail(fmt.Errorf("core: aggregation delta carries forward slice %d absent from the restored chain", sl.id))
		}
	})
	for _, sl := range old {
		if x := prev[sl.id]; x != nil {
			a.dropIndex(x)
		}
	}
	a.readWorkload(r)
	return r.Finish("aggregation delta")
}
