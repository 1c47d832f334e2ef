package core

import (
	"fmt"
	"slices"

	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/window"
	"astream/internal/wire"
)

// This file implements Snapshot/Restore for the shared operators: each
// logic's OnBarrier serializes the state a recovered instance needs to
// resume mid-stream, and Restore (spe.Restorable) rebuilds that state into
// a freshly constructed instance. Together with the checkpoint store this
// turns recovery from full-log replay into restore-at-barrier plus
// suffix replay (paper §3.3's determinism makes the two equivalent; the
// snapshot only bounds the replay length).
//
// Everything is written with internal/wire (DESIGN.md "Wire format"), one
// leading version byte per operator snapshot. Everything serialized is a
// deterministic function of the operator's event-time input, so two
// instances that processed the same prefix produce byte-identical
// snapshots.

const opSnapshotVersion = 10

// readSlot reads a query slot, rejecting numbers no engine could have
// assigned (changelog.MaxSlots) before anything is sized from them.
func readSlot(r *wire.Reader, what string) int {
	slot := int(r.U32(what))
	if slot >= changelog.MaxSlots {
		r.Fail(fmt.Errorf("core: %s %d is beyond the %d slots an engine can hold", what, slot, changelog.MaxSlots))
	}
	return slot
}

// --- slice store ---

// snapSliceStore serializes a store's tuples in position order, which the
// key index and the cached pair rows are rebuilt against.
func snapSliceStore(b []byte, s *sliceStore) []byte {
	b = wire.AppendCount(b, len(s.tuples))
	for i := range s.tuples {
		b = wire.AppendTuple(b, &s.tuples[i])
	}
	return b
}

func readSliceStore(r *wire.Reader) *sliceStore {
	s := &sliceStore{}
	n := r.Count("store tuple count", wire.TupleMinSize)
	for ti := 0; ti < n && r.Err() == nil; ti++ {
		s.tuples = append(s.tuples, wire.ReadTuple(r))
	}
	return s
}

// --- aggregation slice payload ---

// aggValSize is the fixed encoded size of one partial aggregate.
const aggValSize = 8 * (2 + 3*event.NumFields)

func snapAggVal(b []byte, v *aggVal) []byte {
	b = wire.AppendI64(b, v.Count)
	for i := 0; i < event.NumFields; i++ {
		b = wire.AppendI64(b, v.Sum[i])
	}
	for i := 0; i < event.NumFields; i++ {
		b = wire.AppendI64(b, v.Min[i])
	}
	for i := 0; i < event.NumFields; i++ {
		b = wire.AppendI64(b, v.Max[i])
	}
	b = wire.AppendI64(b, v.IngestNanos)
	return b
}

// readAggVal decodes one partial into v.
func readAggVal(r *wire.Reader, v *aggVal) {
	v.Count = r.I64("aggval count")
	for i := 0; i < event.NumFields; i++ {
		v.Sum[i] = r.I64("aggval sum")
	}
	for i := 0; i < event.NumFields; i++ {
		v.Min[i] = r.I64("aggval min")
	}
	for i := 0; i < event.NumFields; i++ {
		v.Max[i] = r.I64("aggval max")
	}
	v.IngestNanos = r.I64("aggval ingest")
}

// appendAggIndex seals the slice and writes its classes: their count, then
// per class its slots and its rows as (key, value). The bytes are a function
// of the slice's content alone — not of the order its keys arrived in, nor of
// whether a fire had sealed it before, nor of how often it was unsealed.
func (a *SharedAggregation) appendAggIndex(b []byte, x *aggIndex) []byte {
	a.seal(x)
	b = wire.AppendCount(b, len(x.classes))
	for c := range x.classes {
		slots := x.classSlots(c)
		b = wire.AppendCount(b, len(slots))
		for _, s := range slots {
			b = wire.AppendU32(b, uint32(s))
		}
		rows := x.classRows(c)
		b = wire.AppendCount(b, len(rows))
		for i := range rows {
			b = wire.AppendI64(b, rows[i].key)
			b = snapAggVal(b, &rows[i].v)
		}
	}
	return b
}

// aggRowSize is the encoded size of one class row.
const aggRowSize = 8 + aggValSize

// readAggIndex decodes appendAggIndex into a sealed slice. It accepts only
// what the encoder writes: at least one class; in each, at least one slot
// below changelog.MaxSlots, slots strictly ascending, and at least one row,
// keys strictly ascending; classes in strictly ascending order of smallest
// slot and no slot in two of them — overlapping classes or a repeated row
// would count tuples twice.
func (a *SharedAggregation) readAggIndex(r *wire.Reader) *aggIndex {
	x := a.takeIndex()
	rows := a.rowTmp[:0]
	nc := r.Count("agg class count", 4+4+4+aggRowSize)
	if nc == 0 && r.Err() == nil {
		r.Fail(fmt.Errorf("core: agg slice holds no class"))
	}
	for c := 0; c < nc && r.Err() == nil; c++ {
		ns := r.Count("agg class slot count", 4)
		if ns == 0 && r.Err() == nil {
			r.Fail(fmt.Errorf("core: agg class %d holds no slot", c))
		}
		for i := 0; i < ns && r.Err() == nil; i++ {
			s := int32(readSlot(r, "agg class slot"))
			switch n := len(x.slots); {
			case r.Err() != nil: // readSlot has failed the reader
			case i > 0 && s <= x.slots[n-1]:
				r.Fail(fmt.Errorf("core: agg class %d lists slot %d after slot %d", c, s, x.slots[n-1]))
			case i == 0 && c > 0 && s <= x.classSlots(c - 1)[0]:
				r.Fail(fmt.Errorf("core: agg classes out of order or repeated at class %d, which starts at slot %d", c, s))
			}
			x.slots = append(x.slots, s)
		}
		nr := r.Count("agg class row count", aggRowSize)
		if nr == 0 && r.Err() == nil {
			r.Fail(fmt.Errorf("core: agg class %d holds no row", c))
		}
		for i := 0; i < nr && r.Err() == nil; i++ {
			row := aggRow{key: r.I64("agg row key")}
			if n := len(rows); i > 0 && r.Err() == nil {
				switch prev := rows[n-1].key; {
				case row.key == prev:
					r.Fail(fmt.Errorf("core: agg class %d lists key %d twice", c, row.key))
				case row.key < prev:
					r.Fail(fmt.Errorf("core: agg class %d lists key %d after key %d", c, row.key, prev))
				}
			}
			readAggVal(r, &row.v)
			rows = append(rows, row)
		}
		x.classes = append(x.classes, aggClass{slotEnd: int32(len(x.slots)), rowEnd: int32(len(rows))})
	}
	if r.Err() == nil {
		sorted := slices.Clone(x.slots)
		slices.Sort(sorted)
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				r.Fail(fmt.Errorf("core: agg slot %d lies in two classes", sorted[i]))
				break
			}
		}
	}
	// The rows take a backing from the freelist, as a seal's do.
	x.rows = a.takeRows(len(rows))
	copy(x.rows, rows)
	a.rowTmp = rows[:0]
	return x
}

// --- slicer ---

func snapSlicer(b []byte, s *slicer, payload func([]byte, *slice) []byte) []byte {
	b = wire.AppendU64(b, s.nextID)
	b = wire.AppendU64(b, s.stride)
	b = wire.AppendCount(b, len(s.epochs))
	for i := range s.epochs {
		ep := &s.epochs[i]
		b = wire.AppendI64(b, int64(ep.from))
		b = wire.AppendU64(b, ep.seq)
		b = wire.AppendCount(b, len(ep.specs))
		for _, sp := range ep.specs {
			b = wire.AppendSpec(b, sp)
		}
		b = wire.AppendCount(b, len(ep.portMasks))
		for _, m := range ep.portMasks {
			b = wire.AppendBits(b, m)
		}
		b = wire.AppendBits(b, ep.sessMask)
	}
	b = wire.AppendCount(b, len(s.slices))
	for _, sl := range s.slices {
		b = wire.AppendU64(b, sl.id)
		b = wire.AppendI64(b, int64(sl.ext.Start))
		b = wire.AppendI64(b, int64(sl.ext.End))
		b = wire.AppendU64(b, sl.epoch)
		b = payload(b, sl)
	}
	return b
}

// restoreSlicer decodes snapSlicer into s against tbl, the changelog-set
// table the operator restored ahead of its slices, for an operator of ports
// input ports. It accepts only the rings the encoder writes, which are the
// rings the slicer can run: a non-zero stride; at least one epoch, starts
// non-decreasing, seqs strictly increasing up to tbl.Latest(), no port mask
// past the operator's ports; slices non-empty, strictly ascending and
// disjoint, each naming an epoch tbl retains and an ID below nextID.
func restoreSlicer(r *wire.Reader, s *slicer, tbl *changelog.Table, ports int, payload func(*wire.Reader, *slice)) {
	s.nextID = r.U64("slicer nextID")
	s.stride = r.U64("slicer stride")
	if s.stride == 0 && r.Err() == nil {
		r.Fail(fmt.Errorf("core: slicer slice-ID stride is 0"))
	}
	ne := r.Count("slicer epoch count", 28)
	if ne == 0 && r.Err() == nil {
		r.Fail(fmt.Errorf("core: slicer holds no epoch"))
	}
	s.epochs = s.epochs[:0]
	for i := 0; i < ne && r.Err() == nil; i++ {
		ep := epochInfo{
			from: event.Time(r.I64("epoch from")),
			seq:  r.U64("epoch seq"),
		}
		if i > 0 && r.Err() == nil {
			if prev := &s.epochs[i-1]; ep.from < prev.from || ep.seq <= prev.seq {
				r.Fail(fmt.Errorf("core: slicer epoch %d (seq %d from %v) does not follow epoch %d (seq %d from %v)", i, ep.seq, ep.from, i-1, prev.seq, prev.from))
			}
		}
		ns := r.Count("epoch spec count", wire.SpecSize)
		for j := 0; j < ns && r.Err() == nil; j++ {
			ep.specs = append(ep.specs, wire.ReadSpec(r))
		}
		np := r.Count("epoch port mask count", 4)
		if np > ports && r.Err() == nil {
			r.Fail(fmt.Errorf("core: slicer epoch %d masks %d ports, the operator has %d", i, np, ports))
		}
		for p := 0; p < np && r.Err() == nil; p++ {
			ep.portMasks = append(ep.portMasks, r.Bits("epoch port mask"))
		}
		ep.sessMask = r.Bits("epoch session mask")
		s.epochs = append(s.epochs, ep)
	}
	if r.Err() == nil && s.currentEpoch() != tbl.Latest() {
		r.Fail(fmt.Errorf("core: slicer's newest epoch is %d, the changelog table's %d", s.currentEpoch(), tbl.Latest()))
	}
	nsl := r.Count("slicer slice count", 33)
	s.slices = s.slices[:0]
	for i := 0; i < nsl && r.Err() == nil; i++ {
		sl := &slice{
			id: r.U64("slice id"),
			ext: window.Extent{
				Start: event.Time(r.I64("slice start")),
				End:   event.Time(r.I64("slice end")),
			},
			epoch: r.U64("slice epoch"),
		}
		switch {
		case r.Err() != nil:
		case sl.ext.End <= sl.ext.Start:
			r.Fail(fmt.Errorf("core: slice %d [%v,%v) is empty", sl.id, sl.ext.Start, sl.ext.End))
		case i > 0 && sl.ext.Start < s.slices[i-1].ext.End:
			r.Fail(fmt.Errorf("core: slice %d [%v,%v) starts before slice %d ends at %v", sl.id, sl.ext.Start, sl.ext.End, s.slices[i-1].id, s.slices[i-1].ext.End))
		case sl.epoch < tbl.Base() || sl.epoch > tbl.Latest():
			r.Fail(fmt.Errorf("core: slice %d names epoch %d outside the table's retained [%d,%d]", sl.id, sl.epoch, tbl.Base(), tbl.Latest()))
		case sl.id >= s.nextID:
			r.Fail(fmt.Errorf("core: slice id %d at or past the slicer's next id %d", sl.id, s.nextID))
		default:
			payload(r, sl)
		}
		if r.Err() == nil {
			s.slices = append(s.slices, sl)
		}
	}
}

// --- SharedSelection ---

// OnBarrier implements spe.Logic: serialize the versioned predicate table,
// each entry with whether the instance serves its query.
func (s *SharedSelection) OnBarrier(uint64, *spe.Emitter) []byte {
	b := wire.AppendU8(nil, opSnapshotVersion)
	b = wire.AppendCount(b, len(s.versions))
	for i := range s.versions {
		v := &s.versions[i]
		b = wire.AppendI64(b, int64(v.from))
		b = wire.AppendCount(b, len(v.entries))
		for _, e := range v.entries {
			b = wire.AppendU32(b, uint32(e.slot))
			b = wire.AppendI64(b, int64(e.id))
			b = wire.AppendBool(b, e.serve)
			b = wire.AppendPredicate(b, e.pred)
		}
	}
	return b
}

// Restore implements spe.Restorable. An instance always holds a version, and
// versionAt binary-searches them by from, so a table without one, or with
// from decreasing, is corrupt (two changelogs at one event-time share it).
func (s *SharedSelection) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	r.Version("selection snapshot version", opSnapshotVersion)
	nv := r.Count("selection version count", 12)
	if nv == 0 && r.Err() == nil {
		r.Fail(fmt.Errorf("core: selection snapshot has no table version"))
	}
	versions := make([]selVersion, 0, nv)
	for i := 0; i < nv && r.Err() == nil; i++ {
		v := selVersion{from: event.Time(r.I64("version from"))}
		if i > 0 && v.from < versions[i-1].from && r.Err() == nil {
			r.Fail(fmt.Errorf("core: selection version %d starts at %v, before version %d at %v", i, v.from, i-1, versions[i-1].from))
		}
		ne := r.Count("version entry count", 17)
		for j := 0; j < ne && r.Err() == nil; j++ {
			slot, id, serve := readSlot(r, "entry slot"), int(r.I64("entry id")), r.Bool("entry serve")
			v.entries = append(v.entries, newSelEntry(slot, id, serve, wire.ReadPredicate(r)))
		}
		versions = append(versions, v)
	}
	if err := r.Finish("selection"); err != nil {
		return err
	}
	s.versions = versions
	s.rebuildIndexes()
	return nil
}

// --- SharedJoin ---

// OnBarrier implements spe.Logic: the next link of the join's snapshot chain
// (windowOp.appendLink), whose slice payload is the slice's store. The
// stores' key indexes and cached pairs are deliberately excluded — both are
// derived from the tuples and rebuild on demand.
func (j *SharedJoin) OnBarrier(id uint64, _ *spe.Emitter) []byte {
	return j.appendLink(nil, id, j.win.nextLinkFull())
}

func (j *SharedJoin) appendLink(b []byte, barrier uint64, full bool) []byte {
	b = j.win.appendLink(b, barrier, full, func(b []byte, sl *slice) []byte {
		return snapSliceStore(b, sl.store)
	})
	return j.win.queries.appendTo(b)
}

// Restore implements spe.Restorable: it applies one link of the join's
// chain, a full one or a delta.
func (j *SharedJoin) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	j.win.readLink(r, "join", func(r *wire.Reader, sl *slice) { sl.store = readSliceStore(r) }, func(*slice) {})
	j.win.queries.readFrom(r, j.win.ports)
	return r.Finish("join")
}

// --- SharedAggregation ---

// OnBarrier implements spe.Logic: the next link of the aggregation's
// snapshot chain (windowOp.appendLink), whose slice payload is the slice's
// sealed aggregate index. The port count and the query table, open session
// windows included, follow the rings.
func (a *SharedAggregation) OnBarrier(id uint64, _ *spe.Emitter) []byte {
	return a.appendLink(nil, id, a.win.nextLinkFull())
}

func (a *SharedAggregation) appendLink(b []byte, barrier uint64, full bool) []byte {
	b = a.win.appendLink(b, barrier, full, func(b []byte, sl *slice) []byte {
		return a.appendAggIndex(b, sl.aggs)
	})
	return a.appendWorkload(b)
}

// appendWorkload writes what follows the slice rings in every link: the port
// count and the query table.
func (a *SharedAggregation) appendWorkload(b []byte) []byte {
	b = wire.AppendU32(b, uint32(a.win.ports))
	return a.win.queries.appendTo(b)
}

// Restore implements spe.Restorable: it applies one link of the
// aggregation's chain, a full one or a delta. The index of a slice the link
// re-encodes or no longer lists goes back to the freelists.
func (a *SharedAggregation) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	a.win.readLink(r, "aggregation", func(r *wire.Reader, sl *slice) { sl.aggs = a.readAggIndex(r) }, func(sl *slice) { a.dropIndex(sl.aggs) })
	a.readWorkload(r)
	return r.Finish("aggregation snapshot")
}

// readWorkload decodes appendWorkload.
func (a *SharedAggregation) readWorkload(r *wire.Reader) {
	if ports := int(r.U32("agg ports")); r.Err() == nil && ports != a.win.ports {
		r.Fail(fmt.Errorf("core: aggregation snapshot has %d ports, instance has %d", ports, a.win.ports))
	}
	a.win.queries.readFrom(r, a.win.ports)
}
