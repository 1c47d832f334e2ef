package changelog

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// These tests pin Table.AppendDelta/ApplyDelta: applying a delta to a table
// restored at the delta's base epoch reproduces the sender's table
// bit-for-bit (including its compaction point), stale chains are rejected,
// and compaction past the receiver's epoch falls back to a full snapshot.

// deltaTable builds a table through n registry epochs.
func deltaTable(t *testing.T, n int) (*Table, *Registry) {
	t.Helper()
	r := NewRegistry(SlotReuse)
	tab := NewTable()
	for i := 0; i < n; i++ {
		cl := mustApply(t, r, 0, []int{i + 1}, nil)
		if err := tab.Add(cl); err != nil {
			t.Fatal(err)
		}
	}
	return tab, r
}

func TestTableDeltaRoundTrip(t *testing.T) {
	sender, reg := deltaTable(t, 4)
	receiver, err := TableFromSnapshot(sender.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	since := sender.Latest()

	// Advance the sender: two more epochs plus a compaction.
	for i := 0; i < 2; i++ {
		cl := mustApply(t, reg, 0, []int{10 + i}, nil)
		if err := sender.Add(cl); err != nil {
			t.Fatal(err)
		}
	}
	sender.Compact(3)

	delta := sender.AppendDelta(nil, since)
	if delta[0] != tableDeltaIncremental {
		t.Fatalf("delta mode %d, want incremental", delta[0])
	}
	if err := receiver.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receiver.Snapshot(), sender.Snapshot()) {
		t.Fatal("receiver diverged from sender after delta")
	}
	if receiver.Base() != sender.Base() || receiver.Latest() != sender.Latest() {
		t.Fatalf("receiver [%d,%d], sender [%d,%d]",
			receiver.Base(), receiver.Latest(), sender.Base(), sender.Latest())
	}
}

func TestTableDeltaFullFallbackAfterCompaction(t *testing.T) {
	sender, reg := deltaTable(t, 3)
	receiver, err := TableFromSnapshot(sender.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	since := sender.Latest()

	for i := 0; i < 3; i++ {
		cl := mustApply(t, reg, 0, []int{20 + i}, nil)
		if err := sender.Add(cl); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction advances past the receiver's epoch: the incremental suffix
	// can no longer reproduce the retained window, so the delta must be full.
	sender.Compact(since + 1)

	delta := sender.AppendDelta(nil, since)
	if delta[0] != tableDeltaFull {
		t.Fatalf("delta mode %d, want full fallback", delta[0])
	}
	if err := receiver.ApplyDelta(delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receiver.Snapshot(), sender.Snapshot()) {
		t.Fatal("receiver diverged from sender after full-fallback delta")
	}
}

func TestTableDeltaRejectsOutOfOrderAndCorrupt(t *testing.T) {
	sender, reg := deltaTable(t, 2)
	stale := NewTable() // still at epoch 0
	since := sender.Latest()
	baseSnap := sender.Snapshot() // the state the delta is encoded against
	cl := mustApply(t, reg, 0, []int{30}, nil)
	if err := sender.Add(cl); err != nil {
		t.Fatal(err)
	}
	delta := sender.AppendDelta(nil, since)

	if err := stale.ApplyDelta(delta); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("stale table accepted a delta: %v", err)
	}
	current, err := TableFromSnapshot(sender.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := current.ApplyDelta(delta); err == nil {
		t.Fatal("already-advanced table accepted a replayed delta")
	}
	fresh := func(t *testing.T) *Table {
		t.Helper()
		tab, err := TableFromSnapshot(baseSnap)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	if err := fresh(t).ApplyDelta(delta); err != nil {
		t.Fatalf("clean delta rejected: %v", err)
	}
	if err := fresh(t).ApplyDelta(append(append([]byte(nil), delta...), 0xEE)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if err := fresh(t).ApplyDelta([]byte{99}); err == nil || !strings.Contains(err.Error(), "unknown table delta mode") {
		t.Fatalf("unknown mode accepted: %v", err)
	}
	if err := fresh(t).ApplyDelta(nil); err == nil {
		t.Fatal("empty delta accepted")
	}
	// A compaction point past the newest epoch, which Compact would clamp:
	// the delta would restore, and re-encode as another.
	past := append([]byte(nil), delta...)
	binary.LittleEndian.PutUint64(past[9:], sender.Latest()+1)
	if err := fresh(t).ApplyDelta(past); err == nil || !strings.Contains(err.Error(), "compacts to epoch") {
		t.Fatalf("compaction past the newest epoch accepted: %v", err)
	}
}
