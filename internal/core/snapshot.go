package core

import (
	"fmt"

	"astream/internal/bitset"
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

const opSnapshotVersion = 4

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

// snapSliceStore serializes the exact store representation (mode, layout,
// and group structure), not just the tuples: re-inserting tuples through
// Add could cross the adaptive degenerate threshold at a different point
// than the original run did, and the layout must survive restores
// byte-for-byte for replay determinism.
func snapSliceStore(b []byte, s *sliceStore) []byte {
	b = wire.AppendU8(b, uint8(s.mode))
	b = wire.AppendBool(b, s.grouped)
	b = wire.AppendCount(b, len(s.tuples))
	if s.grouped {
		b = wire.AppendCount(b, s.groups.len())
		for _, g := range s.groups.order {
			b = wire.AppendBits(b, g.qs)
			b = wire.AppendCount(b, len(g.pos))
			for _, p := range g.pos {
				b = wire.AppendTuple(b, &s.tuples[p])
			}
		}
		return b
	}
	for i := range s.tuples {
		b = wire.AppendTuple(b, &s.tuples[i])
	}
	return b
}

// readSliceStore accepts only what snapSliceStore writes: a known mode and a
// layout that mode can have, groups in strictly ascending canonical
// query-set order, each holding at least one tuple and only tuples of its
// set, and a store count equal to the tuples that follow.
func readSliceStore(r *wire.Reader) *sliceStore {
	s := &sliceStore{
		mode:    readStoreMode(r, "store mode"),
		grouped: r.Bool("store grouped"),
	}
	if r.Err() == nil && s.grouped != (s.mode == StoreGrouped) && s.mode != StoreAdaptive {
		r.Fail(fmt.Errorf("core: a %v store with grouped=%v", s.mode, s.grouped))
	}
	n := r.Count("store tuple count", wire.TupleMinSize)
	if s.grouped {
		s.groups = newQSIndex[tupleGroup]()
		ng := r.Count("store group count", 8)
		for gi := 0; gi < ng && r.Err() == nil; gi++ {
			g := &tupleGroup{qs: r.Bits("group query-set")}
			if k := g.qs.Key(); gi > 0 && !s.groups.keys[gi-1].Less(k) {
				r.Fail(fmt.Errorf("core: store group query-sets out of order or repeated at group %d", gi))
			}
			nt := r.Count("group tuple count", wire.TupleMinSize)
			if nt == 0 && r.Err() == nil {
				r.Fail(fmt.Errorf("core: store group %d holds no tuple", gi))
			}
			for ti := 0; ti < nt && r.Err() == nil; ti++ {
				t := wire.ReadTuple(r)
				if r.Err() == nil && !t.QuerySet.Equal(g.qs) {
					r.Fail(fmt.Errorf("core: store group %d holds a tuple of another query-set", gi))
				}
				g.pos = append(g.pos, uint32(len(s.tuples)))
				s.tuples = append(s.tuples, t)
			}
			if r.Err() == nil {
				s.groups.put(g.qs, g)
			}
		}
	} else {
		for ti := 0; ti < n && r.Err() == nil; ti++ {
			s.tuples = append(s.tuples, wire.ReadTuple(r))
		}
	}
	if r.Err() == nil && n != len(s.tuples) {
		r.Fail(fmt.Errorf("core: store counts %d tuples and holds %d", n, len(s.tuples)))
	}
	return s
}

// readStoreMode reads a StoreMode byte, rejecting values no StoreMode has.
func readStoreMode(r *wire.Reader, what string) StoreMode {
	m := StoreMode(r.U8(what))
	if m > StoreList && r.Err() == nil {
		r.Fail(fmt.Errorf("core: %s %d is no store mode", what, m))
	}
	return m
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

// readAggVal decodes one partial into storage from the instance's freelist
// and slabs, so restored state recycles exactly like folded state.
func (a *SharedAggregation) readAggVal(r *wire.Reader) *aggVal {
	v := a.getVal()
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
	return v
}

// appendAggIndex seals the slice and writes its groups' query-sets, then its
// run: every partial as (group, key, value) in (key, group) order. The bytes
// are a function of the slice's content alone — not of the order its keys
// arrived in, nor of whether a fire had sealed it before.
func (a *SharedAggregation) appendAggIndex(b []byte, x *aggIndex) []byte {
	a.seal(x)
	b = wire.AppendCount(b, x.len())
	for _, g := range x.order {
		b = wire.AppendBits(b, g.qs)
	}
	b = wire.AppendCount(b, len(x.run))
	for _, p := range x.run {
		b = wire.AppendU32(b, uint32(p.group))
		b = wire.AppendI64(b, p.key)
		b = snapAggVal(b, p.v)
	}
	return b
}

// readAggIndex decodes appendAggIndex into a sealed slice. It accepts only
// what the encoder writes: query-sets in strictly ascending canonical order,
// partials in strictly ascending (key, group) order naming existing groups,
// and a partial of every group — a repeated set or partial would count its
// tuples twice.
func (a *SharedAggregation) readAggIndex(r *wire.Reader) *aggIndex {
	x := newAggIndex()
	ng := r.Count("agg group count", 4)
	for gi := 0; gi < ng && r.Err() == nil; gi++ {
		g := &aggGroup{qs: r.Bits("agg group query-set"), pos: int32(gi)}
		if k := g.qs.Key(); gi > 0 && !x.keys[gi-1].Less(k) {
			r.Fail(fmt.Errorf("core: agg group query-sets out of order or repeated at group %d", gi))
		}
		if r.Err() == nil {
			x.put(g.qs, g)
		}
	}
	n := r.Count("agg partial count", 4+8+aggValSize)
	x.run = a.takeRun(n)
	var held bitset.Bits
	for i := 0; i < n && r.Err() == nil; i++ {
		gi := r.U32("agg partial group")
		p := aggPart{key: r.I64("agg partial key"), group: int32(gi)}
		c := 1
		if i > 0 {
			c = cmpPart(p, x.run[i-1])
		}
		switch {
		case gi >= uint32(ng):
			r.Fail(fmt.Errorf("core: agg partial of key %d names group %d of %d", p.key, gi, ng))
		case c == 0:
			r.Fail(fmt.Errorf("core: agg group %d lists key %d twice", gi, p.key))
		case c < 0:
			r.Fail(fmt.Errorf("core: agg partials out of (key, group) order at key %d", p.key))
		}
		if r.Err() != nil {
			break
		}
		held.Set(int(gi))
		p.v = a.readAggVal(r)
		x.run = append(x.run, p)
	}
	if r.Err() == nil && (n == 0 || held.Count() != ng) {
		r.Fail(fmt.Errorf("core: agg slice holds %d groups but partials of %d", ng, held.Count()))
	}
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

func restoreSlicer(r *wire.Reader, s *slicer, payload func(*wire.Reader, *slice)) {
	s.nextID = r.U64("slicer nextID")
	s.stride = r.U64("slicer stride")
	ne := r.Count("slicer epoch count", 20)
	s.epochs = s.epochs[:0]
	for i := 0; i < ne && r.Err() == nil; i++ {
		ep := epochInfo{
			from: event.Time(r.I64("epoch from")),
			seq:  r.U64("epoch seq"),
		}
		ns := r.Count("epoch spec count", wire.SpecSize)
		for j := 0; j < ns && r.Err() == nil; j++ {
			ep.specs = append(ep.specs, wire.ReadSpec(r))
		}
		s.epochs = append(s.epochs, ep)
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
		payload(r, sl)
		if r.Err() == nil {
			s.slices = append(s.slices, sl)
		}
	}
}

// --- changelog table (length-prefixed passthrough) ---

func snapTable(b []byte, t *changelog.Table) []byte {
	return wire.AppendBytes(b, t.Snapshot())
}

func readSnapTable(r *wire.Reader) *changelog.Table {
	enc := r.Bytes("changelog table")
	if r.Err() != nil {
		return nil
	}
	t, err := changelog.TableFromSnapshot(enc)
	if err != nil {
		r.Fail(err)
		return nil
	}
	return t
}

// --- SharedSelection ---

// OnBarrier implements spe.Logic: serialize the versioned predicate table.
func (s *SharedSelection) OnBarrier(uint64, *spe.Emitter) []byte {
	b := wire.AppendU8(nil, opSnapshotVersion)
	b = wire.AppendI64(b, int64(s.wm))
	b = wire.AppendCount(b, len(s.versions))
	for i := range s.versions {
		v := &s.versions[i]
		b = wire.AppendI64(b, int64(v.from))
		b = wire.AppendCount(b, len(v.entries))
		for _, e := range v.entries {
			b = wire.AppendU32(b, uint32(e.slot))
			b = wire.AppendI64(b, int64(e.id))
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
	wm := event.Time(r.I64("selection wm"))
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
		ne := r.Count("version entry count", 16)
		for j := 0; j < ne && r.Err() == nil; j++ {
			v.entries = append(v.entries, selEntry{
				slot: readSlot(r, "entry slot"),
				id:   int(r.I64("entry id")),
				pred: wire.ReadPredicate(r),
			})
		}
		versions = append(versions, v)
	}
	if err := r.Finish("selection"); err != nil {
		return err
	}
	s.wm = wm
	s.versions = versions
	s.rebuildIndexes()
	return nil
}

// --- SharedJoin ---

// OnBarrier implements spe.Logic: serialize both side slicers (with their
// slice stores), the changelog-set table, and the active query table. The
// stores' key indexes and cached pairs are deliberately excluded — both are
// derived from the tuples and rebuild on demand.
func (j *SharedJoin) OnBarrier(uint64, *spe.Emitter) []byte {
	b := wire.AppendU8(nil, opSnapshotVersion)
	b = wire.AppendU8(b, uint8(j.storeMode))
	b = j.win.appendClock(b)
	b = snapTable(b, j.win.table)
	b = j.win.appendSlices(b, func(b []byte, sl *slice) []byte {
		return snapSliceStore(b, sl.store)
	})
	return j.win.queries.appendTo(b)
}

// Restore implements spe.Restorable.
func (j *SharedJoin) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	r.Version("join snapshot version", opSnapshotVersion)
	j.storeMode = readStoreMode(r, "join store mode")
	j.win.readClock(r)
	j.win.table = readSnapTable(r)
	j.win.readSlices(r, func(r *wire.Reader, sl *slice) {
		sl.store = readSliceStore(r)
	})
	j.win.queries.readFrom(r, 1)
	if err := r.Finish("join"); err != nil {
		return err
	}
	return nil
}

// --- SharedAggregation ---

// OnBarrier implements spe.Logic: serialize the slicer (with per-slice
// partials), the changelog-set table, the versioned masks, and both query
// tables including open session windows.
func (a *SharedAggregation) OnBarrier(uint64, *spe.Emitter) []byte {
	b := wire.AppendU8(nil, opSnapshotVersion)
	b = a.appendClock(b)
	b = snapTable(b, a.win.table)
	b = a.win.appendSlices(b, func(b []byte, sl *slice) []byte {
		return a.appendAggIndex(b, sl.aggs)
	})
	return a.appendWorkload(b)
}

// appendClock and appendWorkload write the parts full and delta snapshots
// (snapdelta.go) share verbatim: the port count and event-time marks ahead
// of the slice state, the versioned masks and both query tables after it.
func (a *SharedAggregation) appendClock(b []byte) []byte {
	b = wire.AppendU32(b, uint32(a.ports))
	return a.win.appendClock(b)
}

func (a *SharedAggregation) appendWorkload(b []byte) []byte {
	b = wire.AppendCount(b, len(a.maskVersions))
	for i := range a.maskVersions {
		mv := &a.maskVersions[i]
		b = wire.AppendI64(b, int64(mv.from))
		b = wire.AppendCount(b, len(mv.portMasks))
		for _, pm := range mv.portMasks {
			b = wire.AppendBits(b, pm)
		}
		b = wire.AppendBits(b, mv.selMask)
		b = wire.AppendBits(b, mv.sessMask)
	}
	b = a.win.queries.appendTo(b)
	return a.selection.appendTo(b)
}

// Restore implements spe.Restorable.
func (a *SharedAggregation) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	r.Version("aggregation snapshot version", opSnapshotVersion)
	a.readClock(r)
	a.win.table = readSnapTable(r)
	a.win.readSlices(r, func(r *wire.Reader, sl *slice) {
		sl.aggs = a.readAggIndex(r)
	})
	a.readWorkload(r)
	return r.Finish("aggregation snapshot")
}

func (a *SharedAggregation) readClock(r *wire.Reader) {
	if ports := int(r.U32("agg ports")); r.Err() == nil && ports != a.ports {
		r.Fail(fmt.Errorf("core: aggregation snapshot has %d ports, instance has %d", ports, a.ports))
	}
	a.win.readClock(r)
}

// readWorkload decodes appendWorkload and rebuilds what derives from it. An
// instance always holds a mask version, so a table without one is corrupt.
func (a *SharedAggregation) readWorkload(r *wire.Reader) {
	nmv := r.Count("mask version count", 20)
	a.maskVersions = a.maskVersions[:0]
	for i := 0; i < nmv && r.Err() == nil; i++ {
		mv := maskVersion{from: event.Time(r.I64("mask from"))}
		if i > 0 && mv.from < a.maskVersions[i-1].from && r.Err() == nil {
			r.Fail(fmt.Errorf("core: mask version %d starts at %v, before version %d at %v", i, mv.from, i-1, a.maskVersions[i-1].from))
		}
		np := r.Count("port mask count", 4)
		mv.portMasks = make([]bitset.Bits, 0, np)
		for p := 0; p < np && r.Err() == nil; p++ {
			mv.portMasks = append(mv.portMasks, r.Bits("port mask"))
		}
		mv.selMask = r.Bits("sel mask")
		mv.sessMask = r.Bits("sess mask")
		a.maskVersions = append(a.maskVersions, mv)
	}
	if r.Err() == nil && nmv == 0 {
		r.Fail(fmt.Errorf("core: aggregation snapshot has no mask version"))
	}
	a.win.queries.readFrom(r, a.ports)
	a.selection.readFrom(r, 1)
}
