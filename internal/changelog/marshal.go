package changelog

import (
	"fmt"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/wire"
)

// This file implements binary snapshots of the changelog data model for
// checkpoint recovery (paper §3.3): a recovered operator must resume with
// the exact slot table, changelog-set table, and sequence counters it held
// at the barrier, or replayed changelogs would hit the runtime's gap check.
// Layouts are compositions of internal/wire (DESIGN.md "Wire format").

const snapshotVersion = 3

// changelogMinSize is a changelog with no assignments and empty sets.
const changelogMinSize = 8 + 8 + 4 + 4 + 4 + 4

func appendAssignments(b []byte, as []Assignment) []byte {
	b = wire.AppendCount(b, len(as))
	for _, a := range as {
		b = wire.AppendI64(b, int64(a.Query))
		b = wire.AppendU32(b, uint32(a.Slot))
	}
	return b
}

func readAssignments(r *wire.Reader, what string) []Assignment {
	var as []Assignment
	n := r.Count(what, 12)
	for i := 0; i < n; i++ {
		as = append(as, Assignment{Query: int(r.I64(what)), Slot: int(r.U32(what))})
	}
	return as
}

func appendChangelog(b []byte, cl *Changelog) []byte {
	b = wire.AppendU64(b, cl.Seq)
	b = wire.AppendI64(b, int64(cl.Time))
	b = wire.AppendU32(b, uint32(cl.Slots))
	b = appendAssignments(b, cl.Created)
	b = appendAssignments(b, cl.Deleted)
	return wire.AppendBits(b, cl.Set)
}

func readChangelog(r *wire.Reader) *Changelog {
	cl := &Changelog{
		Seq:     r.U64("changelog seq"),
		Time:    event.Time(r.I64("changelog time")),
		Slots:   int(r.U32("changelog slots")),
		Created: readAssignments(r, "changelog created"),
		Deleted: readAssignments(r, "changelog deleted"),
		Set:     r.Bits("changelog set"),
	}
	// Every slot is either unchanged (in Set) or named by an assignment
	// (Registry.Apply). A count the rest of the changelog cannot account
	// for is corruption, and the table would size a row from it.
	if accounted := cl.Set.Count() + len(cl.Created) + len(cl.Deleted); cl.Slots > accounted {
		r.Fail(fmt.Errorf("changelog: changelog %d claims %d slots but accounts for %d", cl.Seq, cl.Slots, accounted))
	}
	return cl
}

// addChangelogs reads n changelogs into t through Add, which rebuilds the
// derived rows and re-verifies seq continuity.
func (t *Table) addChangelogs(r *wire.Reader, n int) {
	for i := 0; i < n; i++ {
		cl := readChangelog(r)
		if r.Err() != nil {
			return
		}
		if err := t.Add(cl); err != nil {
			r.Fail(err)
		}
	}
}

// Snapshot serializes the table. Only the root row (all slots of the base
// epoch, which also carries that epoch's slot count) and the retained
// changelogs are written: the remaining rows are a pure function of those
// (Equation 1's recurrence), so TableFromSnapshot rebuilds them with Add,
// which also re-verifies seq continuity.
func (t *Table) Snapshot() []byte { return t.appendSnapshot(nil) }

func (t *Table) appendSnapshot(b []byte) []byte {
	b = wire.AppendU8(b, snapshotVersion)
	b = wire.AppendU64(b, t.base)
	b = wire.AppendBits(b, t.rows[0][0])
	b = wire.AppendCount(b, len(t.logs))
	for _, cl := range t.logs {
		b = appendChangelog(b, cl)
	}
	return b
}

// TableFromSnapshot reconstructs a table from Snapshot output.
func TableFromSnapshot(b []byte) (*Table, error) {
	r := wire.NewReader(b)
	t := readTable(r)
	if err := r.Finish("changelog table snapshot"); err != nil {
		return nil, err
	}
	return t, nil
}

func readTable(r *wire.Reader) *Table {
	r.Version("changelog table snapshot version", snapshotVersion)
	t := &Table{base: r.U64("table base")}
	root := r.Bits("table root row")
	t.rows = append(t.rows, []bitset.Bits{root})
	t.addChangelogs(r, r.Count("table log count", changelogMinSize))
	return t
}

// Table delta modes. A delta is normally incremental — the changelogs the
// receiver has not seen plus the sender's new base — but falls back to a
// full snapshot when compaction has advanced the sender's base past the
// receiver's latest epoch (the incremental suffix alone could no longer
// reproduce the retained window).
const (
	tableDeltaFull        = 0
	tableDeltaIncremental = 1
)

// AppendDelta serializes the table's change since a previous snapshot whose
// Latest() was sinceLatest. Applying the result with ApplyDelta to a table
// restored at exactly that epoch reproduces this table bit-for-bit.
func (t *Table) AppendDelta(b []byte, sinceLatest uint64) []byte {
	if sinceLatest < t.base || sinceLatest > t.Latest() {
		return t.appendSnapshot(wire.AppendU8(b, tableDeltaFull))
	}
	b = wire.AppendU8(b, tableDeltaIncremental)
	b = wire.AppendU64(b, sinceLatest)
	b = wire.AppendU64(b, t.base)
	b = wire.AppendCount(b, int(t.Latest()-sinceLatest))
	for _, cl := range t.logs {
		if cl.Seq > sinceLatest {
			b = appendChangelog(b, cl)
		}
	}
	return b
}

// ApplyDelta advances the table by one AppendDelta blob: new changelogs are
// appended through Add (re-verifying seq continuity) and the sender's
// compaction point is replayed. The table must be at exactly the epoch the
// delta was encoded against; chains therefore apply strictly in order.
func (t *Table) ApplyDelta(b []byte) error {
	r := wire.NewReader(b)
	switch mode := r.U8("table delta mode"); mode {
	case tableDeltaFull:
		nt := readTable(r)
		if err := r.Finish("changelog table delta"); err != nil {
			return err
		}
		*t = *nt
		return nil
	case tableDeltaIncremental:
		since := r.U64("table delta since")
		newBase := r.U64("table delta base")
		n := r.Count("table delta log count", changelogMinSize)
		if r.Err() == nil && t.Latest() != since {
			return fmt.Errorf("changelog: table delta encoded against epoch %d, table is at %d (chain applied out of order?)", since, t.Latest())
		}
		t.addChangelogs(r, n)
		if err := r.Finish("changelog table delta"); err != nil {
			return err
		}
		// The sender's compaction point lies in the table the receiver now
		// holds: a base only rises, and never past the newest epoch.
		if newBase < t.base || newBase > t.Latest() {
			return fmt.Errorf("changelog: table delta compacts to epoch %d, outside the table's [%d,%d]", newBase, t.base, t.Latest())
		}
		t.Compact(newBase)
		return nil
	default:
		return fmt.Errorf("changelog: unknown table delta mode %d", mode)
	}
}

// Snapshot serializes the registry: mode, counters, the full slot table,
// and the free-slot stack. The query→slot index is rebuilt on restore.
func (r *Registry) Snapshot() []byte {
	b := wire.AppendU8(nil, snapshotVersion)
	b = wire.AppendU8(b, uint8(r.mode))
	b = wire.AppendU64(b, r.seq)
	b = wire.AppendI64(b, int64(r.lastAt))
	b = wire.AppendBool(b, r.started)
	b = wire.AppendCount(b, len(r.slots))
	for _, q := range r.slots {
		b = wire.AppendI64(b, int64(q))
	}
	b = wire.AppendCount(b, len(r.free))
	for _, s := range r.free {
		b = wire.AppendU32(b, uint32(s))
	}
	return b
}

// RegistryFromSnapshot reconstructs a registry from Snapshot output.
func RegistryFromSnapshot(b []byte) (*Registry, error) {
	rd := wire.NewReader(b)
	rd.Version("registry snapshot version", snapshotVersion)
	reg := &Registry{
		mode:    Mode(rd.U8("registry mode")),
		seq:     rd.U64("registry seq"),
		lastAt:  event.Time(rd.I64("registry lastAt")),
		started: rd.Bool("registry started"),
		slotOf:  make(map[int]int),
	}
	if reg.mode > AppendOnly && rd.Err() == nil {
		rd.Fail(fmt.Errorf("changelog: registry snapshot has slot mode %d", reg.mode))
	}
	ns := rd.Count("registry slot count", 8)
	for i := 0; i < ns; i++ {
		q := int(rd.I64("registry slot"))
		reg.slots = append(reg.slots, q)
		if _, dup := reg.slotOf[q]; dup && rd.Err() == nil {
			rd.Fail(fmt.Errorf("changelog: registry snapshot runs query %d in two slots", q))
		}
		if q != NoQuery {
			reg.slotOf[q] = i
		}
	}
	nf := rd.Count("registry free count", 4)
	var freed bitset.Bits
	for i := 0; i < nf; i++ {
		s := int(rd.U32("registry free slot"))
		if s >= ns || reg.slots[s] != NoQuery || freed.Test(s) {
			// Apply would index the slot table with it, or hand an occupied
			// slot, or one slot twice, to the next queries.
			rd.Fail(fmt.Errorf("changelog: registry snapshot lists slot %d as free; it is occupied, listed twice or beyond the %d slots", s, ns))
			break
		}
		freed.Set(s)
		reg.free = append(reg.free, s)
	}
	if err := rd.Finish("registry snapshot"); err != nil {
		return nil, err
	}
	return reg, nil
}
