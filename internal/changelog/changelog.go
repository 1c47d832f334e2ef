// Package changelog implements AStream's query changelog data model
// (paper §2.1.2): slot assignment for ad-hoc queries, changelog-sets, and
// the dynamic-programming table of Equation 1 that relates non-adjacent
// time slots.
//
// Every running query occupies a bit position (a "slot") in tuple query-sets.
// When the workload changes, a Changelog records which queries were created
// and deleted and carries a changelog-set: bit i set means slot i holds the
// same query before and after the change; bit i unset means the slot's query
// was deleted or replaced. Masking tuple query-sets with the changelog-set
// between two time slots removes stale query bits, which is what makes
// operations between tuples created at different times consistent.
package changelog

import (
	"fmt"

	"astream/internal/bitset"
	"astream/internal/event"
)

// Mode selects how slots are assigned to new queries.
type Mode uint8

const (
	// SlotReuse reuses slots of deleted queries (the AStream approach,
	// Figure 3c); query-sets stay compact.
	SlotReuse Mode = iota
	// AppendOnly always appends a fresh slot (the naive approach,
	// Figure 3b); kept for the ablation benchmark.
	AppendOnly
)

func (m Mode) String() string {
	if m == AppendOnly {
		return "append-only"
	}
	return "slot-reuse"
}

// NoQuery marks an unoccupied slot.
const NoQuery = -1

// Changelog is one batch of query creations and deletions applied at a
// definite event-time. Changelogs are woven into the data stream so that the
// workload history is deterministically replayable (paper §3.3).
type Changelog struct {
	// Seq numbers changelogs 1,2,3,… in application order. Seq 0 is the
	// implicit "empty workload" epoch before the first changelog.
	Seq uint64
	// Time is the event-time at which the change takes effect.
	Time event.Time
	// Created lists (query ID, slot) pairs for new queries.
	Created []Assignment
	// Deleted lists (query ID, slot) pairs for removed queries.
	Deleted []Assignment
	// Set is the changelog-set relative to the previous epoch: bit i set
	// iff slot i is occupied by the same query before and after (free
	// slots untouched on both sides also read as set; no tuple carries
	// their bits).
	Set bitset.Bits
	// Slots is the number of slot positions in use after the change.
	Slots int
}

// MaxSlots bounds the slot numbers snapshot decoders accept. A slot is a bit
// position in every tuple's query-set, so an engine anywhere near this many
// slots (128 KiB of query-set per tuple) stopped being operable long before;
// a snapshot naming a higher slot is corrupt, and restore would size mask
// bitsets and predicate-index nodes from it.
const MaxSlots = 1 << 20

// Assignment binds a query ID to its slot.
type Assignment struct {
	Query int
	Slot  int
}

func (c *Changelog) String() string {
	return fmt.Sprintf("changelog{seq=%d t=%v +%d -%d set=%s}",
		c.Seq, c.Time, len(c.Created), len(c.Deleted), c.Set)
}

// Registry tracks the query↔slot mapping and produces changelogs.
// Registry is not safe for concurrent use; in the engine it is owned by the
// shared session and its changelogs are broadcast to operators, which keep
// their own copies of the active-query table.
type Registry struct {
	mode    Mode
	slots   []int       // slot -> query ID or NoQuery
	slotOf  map[int]int // query ID -> slot: the inverse of slots, rebuilt on restore
	free    []int       // free slots, LIFO (only in SlotReuse mode)
	seq     uint64
	lastAt  event.Time
	started bool
}

// NewRegistry creates an empty registry.
func NewRegistry(mode Mode) *Registry {
	return &Registry{mode: mode, slotOf: make(map[int]int), lastAt: event.MinTime}
}

// Mode returns the slot assignment mode.
func (r *Registry) Mode() Mode { return r.mode }

// NumSlots returns the number of slot positions in use (occupied or free but
// previously used).
func (r *Registry) NumSlots() int { return len(r.slots) }

// ActiveCount returns the number of running queries.
func (r *Registry) ActiveCount() int { return len(r.slotOf) }

// SlotOf returns the slot of a running query.
func (r *Registry) SlotOf(query int) (int, bool) {
	s, ok := r.slotOf[query]
	return s, ok
}

// QueryAt returns the query occupying a slot, or NoQuery.
func (r *Registry) QueryAt(slot int) int {
	if slot < 0 || slot >= len(r.slots) {
		return NoQuery
	}
	return r.slots[slot]
}

// ActiveSlots returns the bitset of occupied slots.
func (r *Registry) ActiveSlots() bitset.Bits {
	var b bitset.Bits
	for s, q := range r.slots {
		if q != NoQuery {
			b.Set(s)
		}
	}
	return b
}

// ActiveQueries returns the IDs of all running queries in slot order.
func (r *Registry) ActiveQueries() []int {
	out := make([]int, 0, len(r.slotOf))
	for _, q := range r.slots {
		if q != NoQuery {
			out = append(out, q)
		}
	}
	return out
}

// Apply registers a batch of creations and deletions taking effect at the
// given event-time and returns the resulting changelog. Times must be
// non-decreasing across calls (event-time ordering is what makes replays
// deterministic). Deleting an unknown query or creating a duplicate is an
// error; on error the registry is unchanged.
func (r *Registry) Apply(at event.Time, create, del []int) (*Changelog, error) {
	if r.started && at < r.lastAt {
		return nil, fmt.Errorf("changelog: time %v before previous changelog at %v", at, r.lastAt)
	}
	seen := make(map[int]bool, len(create))
	for _, q := range create {
		if _, ok := r.slotOf[q]; ok {
			return nil, fmt.Errorf("changelog: query %d already running", q)
		}
		if seen[q] {
			return nil, fmt.Errorf("changelog: query %d created twice in one batch", q)
		}
		seen[q] = true
	}
	delSeen := make(map[int]bool, len(del))
	for _, q := range del {
		if _, ok := r.slotOf[q]; !ok {
			return nil, fmt.Errorf("changelog: query %d not running, cannot delete", q)
		}
		if delSeen[q] {
			return nil, fmt.Errorf("changelog: query %d deleted twice in one batch", q)
		}
		if seen[q] {
			return nil, fmt.Errorf("changelog: query %d both created and deleted", q)
		}
		delSeen[q] = true
	}

	cl := &Changelog{Seq: r.seq + 1, Time: at}
	var changed bitset.Bits

	for _, q := range del {
		s := r.slotOf[q]
		delete(r.slotOf, q)
		r.slots[s] = NoQuery
		if r.mode == SlotReuse {
			r.free = append(r.free, s)
		}
		changed.Set(s)
		cl.Deleted = append(cl.Deleted, Assignment{Query: q, Slot: s})
	}
	for _, q := range create {
		var s int
		if r.mode == SlotReuse && len(r.free) > 0 {
			s = r.free[len(r.free)-1]
			r.free = r.free[:len(r.free)-1]
		} else {
			s = len(r.slots)
			r.slots = append(r.slots, NoQuery)
		}
		r.slots[s] = q
		r.slotOf[q] = s
		changed.Set(s)
		cl.Created = append(cl.Created, Assignment{Query: q, Slot: s})
	}

	cl.Slots = len(r.slots)
	cl.Set = bitset.AllUpTo(cl.Slots).AndNot(changed)
	r.seq = cl.Seq
	r.lastAt = at
	r.started = true
	return cl, nil
}

// Seq returns the sequence number of the most recent changelog (0 before the
// first).
func (r *Registry) LastSeq() uint64 { return r.seq }
