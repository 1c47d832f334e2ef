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

// AppendSnapshot appends the table's serialization to b. Only the root row
// (all slots of the base epoch, which also carries that epoch's slot count)
// and the retained changelogs are written: the remaining rows are a pure
// function of those (Equation 1's recurrence), so ReadTable rebuilds them
// with Add, which also re-verifies seq continuity.
func (t *Table) AppendSnapshot(b []byte) []byte {
	b = wire.AppendU8(b, snapshotVersion)
	b = wire.AppendU64(b, t.base)
	b = wire.AppendBits(b, t.rows[0][0])
	b = wire.AppendCount(b, len(t.logs))
	for _, cl := range t.logs {
		b = appendChangelog(b, cl)
	}
	return b
}

// TableFromSnapshot reconstructs a table from AppendSnapshot output.
func TableFromSnapshot(b []byte) (*Table, error) {
	r := wire.NewReader(b)
	t := ReadTable(r)
	if err := r.Finish("changelog table snapshot"); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadTable decodes an AppendSnapshot encoding from r; the table it returns
// is meaningless once r has failed.
func ReadTable(r *wire.Reader) *Table {
	r.Version("changelog table snapshot version", snapshotVersion)
	t := &Table{base: r.U64("table base")}
	root := r.Bits("table root row")
	t.rows = append(t.rows, []bitset.Bits{root})
	t.addChangelogs(r, r.Count("table log count", changelogMinSize))
	return t
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
