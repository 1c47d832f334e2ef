// Package snapcover is a lint fixture: every field of a Snapshot/Restore
// state type must be serialized by the encode root, repopulated by the
// decode root, or annotated //lint:ephemeral; derived annotations must be
// rebuilt on the restore path, and annotations must not contradict the
// encoder. State held in a nested struct is audited field by field.
package snapcover

import "errors"

var errTruncated = errors.New("truncated")

// State pairs Snapshot with Restore; its fields exercise every verdict.
type State struct {
	a uint8 // serialized and repopulated: clean
	b uint8 // want "field State\.b is not serialized by Snapshot and not annotated //lint:ephemeral"
	c uint8 // want "field State\.c is not repopulated by Restore and not annotated //lint:ephemeral"
	d uint8 // want "field State\.d is not serialized by Snapshot" "field State\.d is not repopulated by Restore"
	//lint:ephemeral per-call scratch buffer, rebuilt from zero on first use
	tmp []byte
	//lint:ephemeral the annotation lies: the encode path writes this field
	e uint8 // want "field State\.e is annotated //lint:ephemeral but Snapshot serializes it; drop the annotation or the encoding"
	//lint:ephemeral derived index over a, rebuilt by reindex
	idx map[uint8]bool
	//lint:ephemeral derived never actually rebuilt on the restore path
	stale uint8 // want "field State\.stale is annotated //lint:ephemeral derived but no function reachable from Restore repopulates it"
}

// Snapshot serializes a and c directly and e through a helper: the
// helper's field touch must count via call-graph reachability.
func (s *State) Snapshot() []byte {
	b := []byte{s.a, s.c}
	return s.encTail(b)
}

func (s *State) encTail(b []byte) []byte {
	return append(b, s.e)
}

func (s *State) Restore(data []byte) error {
	if len(data) < 2 {
		return errTruncated
	}
	s.a = data[0]
	s.b = data[1]
	s.reindex()
	return nil
}

// reindex rebuilds the derived index; reachable from Restore, so idx
// counts as repopulated.
func (s *State) reindex() {
	s.idx = map[uint8]bool{s.a: true}
}

// Counter exercises the other discovery spellings: OnBarrier as the
// encode root and a package-level FromSnapshot constructor as the decode
// root (whose composite-literal keys count as repopulation).
type Counter struct {
	n    uint64
	seen uint8 // want "field Counter\.seen is not serialized by OnBarrier" "field Counter\.seen is not repopulated by CounterFromSnapshot"
}

func (c *Counter) OnBarrier(id int) []byte {
	return []byte{byte(c.n)}
}

func CounterFromSnapshot(b []byte) (*Counter, error) {
	if len(b) != 1 {
		return nil, errTruncated
	}
	return &Counter{n: uint64(b[0])}, nil
}

// Nested keeps most of its state in structs of its own package, one held by
// value and one by pointer: the audit descends into both and names every
// verdict from the state type down. The annotated field is not descended —
// its directive covers the whole struct — and neither is a type that is a
// state pair itself.
type Nested struct {
	n    uint8
	core coreState
	tail *tailState
	//lint:ephemeral scratch arena, rebuilt from zero: nothing inside it is audited
	arena   coreState
	counter *Counter
}

type coreState struct {
	kept    uint8 // serialized and repopulated through Nested.core: clean
	skipped uint8 // want "field Nested\.core\.skipped is not serialized by Snapshot and not annotated //lint:ephemeral"
	//lint:ephemeral per-call scratch inside the nested struct: accepted, and counted as used
	tmp []byte
}

type tailState struct {
	lost uint8 // want "field Nested\.tail\.lost is not repopulated by Restore and not annotated //lint:ephemeral"
	//lint:ephemeral the annotation lies: Nested.Snapshot writes this nested field
	lie uint8 // want "field Nested\.tail\.lie is annotated //lint:ephemeral but Snapshot serializes it; drop the annotation or the encoding"
}

func (n *Nested) Snapshot() []byte {
	b := []byte{n.n, n.core.kept, n.tail.lost, n.tail.lie}
	return append(b, n.counter.OnBarrier(0)...)
}

func (n *Nested) Restore(data []byte) error {
	if len(data) != 5 {
		return errTruncated
	}
	n.n, n.core.kept, n.core.skipped = data[0], data[1], data[2]
	n.tail = &tailState{lie: data[3]}
	var err error
	n.counter, err = CounterFromSnapshot(data[4:])
	return err
}

// Plain is not a state pair, so directives inside it cannot attach to any
// audited field. The want comments use the block form because a line
// comment cannot share a line with the directive it asserts about.
type Plain struct {
	/* want "//lint:ephemeral directive is missing a reason" */ //lint:ephemeral
	x                                                           uint8
	/* want "//lint:ephemeral directive does not annotate a field of any Snapshot/Restore state type" */ //lint:ephemeral stray: Plain has no Snapshot/Restore pair
	y                                                                                                    uint8
}

// use keeps Plain's fields referenced so the fixture type-checks cleanly.
func (p *Plain) use() uint8 { return p.x + p.y }
