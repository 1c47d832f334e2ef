package changelog

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
)

func mustApply(t *testing.T, r *Registry, at event.Time, create, del []int) *Changelog {
	t.Helper()
	cl, err := r.Apply(at, create, del)
	if err != nil {
		t.Fatalf("Apply(%v, %v, %v): %v", at, create, del, err)
	}
	return cl
}

func bitsOf(s string) bitset.Bits {
	b, ok := bitset.Parse(s)
	if !ok {
		panic("bad bits literal " + s)
	}
	return b
}

// TestFigure3 replays the paper's Figure 3: at T1 queries Q1,Q2 are created;
// at T2, Q2 is deleted and Q3 created. AStream reuses Q2's slot for Q3 and
// the changelog-set is 10.
func TestFigure3SlotReuse(t *testing.T) {
	r := NewRegistry(SlotReuse)
	cl1 := mustApply(t, r, 1, []int{1, 2}, nil)
	if cl1.Slots != 2 {
		t.Fatalf("slots after T1 = %d, want 2", cl1.Slots)
	}
	if s, _ := r.SlotOf(1); s != 0 {
		t.Fatalf("Q1 slot = %d, want 0", s)
	}
	if s, _ := r.SlotOf(2); s != 1 {
		t.Fatalf("Q2 slot = %d, want 1", s)
	}
	// Both slots newly occupied: changelog-set relative to empty epoch is 00.
	if !cl1.Set.IsEmpty() {
		t.Fatalf("T1 changelog-set = %s, want empty", cl1.Set)
	}

	cl2 := mustApply(t, r, 2, []int{3}, []int{2})
	if s, _ := r.SlotOf(3); s != 1 {
		t.Fatalf("Q3 slot = %d, want 1 (reuse of Q2's slot)", s)
	}
	if !cl2.Set.Equal(bitsOf("10")) {
		t.Fatalf("T2 changelog-set = %s, want 10", cl2.Set)
	}
	if cl2.Slots != 2 {
		t.Fatalf("slots after T2 = %d, want 2 (compact)", cl2.Slots)
	}
}

func TestFigure3AppendOnly(t *testing.T) {
	r := NewRegistry(AppendOnly)
	mustApply(t, r, 1, []int{1, 2}, nil)
	cl2 := mustApply(t, r, 2, []int{3}, []int{2})
	if s, _ := r.SlotOf(3); s != 2 {
		t.Fatalf("append-only Q3 slot = %d, want 2", s)
	}
	if cl2.Slots != 3 {
		t.Fatalf("append-only slots = %d, want 3 (sparse)", cl2.Slots)
	}
	// Slot 0 unchanged, slot 1 deleted, slot 2 new: 100.
	if !cl2.Set.Equal(bitsOf("100")) {
		t.Fatalf("append-only changelog-set = %s, want 100", cl2.Set)
	}
}

// TestFigure4Changelogs replays Figure 4a/4b: the sequence of workload
// changes and the expected changelog-sets per time slot.
func TestFigure4Changelogs(t *testing.T) {
	r := NewRegistry(SlotReuse)
	// T0: Q1+                                  slots: [Q1]
	cl0 := mustApply(t, r, 0, []int{1}, nil)
	// T1: Q2+, Q3+                             slots: [Q1 Q2 Q3]        set 100
	cl1 := mustApply(t, r, 1, []int{2, 3}, nil)
	// T2: Q4+, Q2-                             slots: [Q1 Q4 Q3]        set 101
	cl2 := mustApply(t, r, 2, []int{4}, []int{2})
	// T3: Q5+, Q1-                             slots: [Q5 Q4 Q3]        set 011
	cl3 := mustApply(t, r, 3, []int{5}, []int{1})
	// T4: Q6+, Q3-                             slots: [Q5 Q4 Q6 ...]    set 1100
	// Figure 4b shows four positions at T4 (1100): Q6 takes Q3's slot and
	// the fourth position appears at T5; the paper's panel (b) widths track
	// the maximum slot count reached. Here Q6 reuses slot 2: set = 110.
	cl4 := mustApply(t, r, 4, []int{6}, []int{3})
	// T5: Q7+, Q3- already gone; paper: Q6,Q7 created, Q3 deleted at T5 in
	// one batch. Our T4/T5 split mirrors panel (a)'s per-slot markers; the
	// final state matches: Q5,Q4,Q6,Q7 running.
	cl5 := mustApply(t, r, 5, []int{7}, nil)

	if !cl1.Set.Equal(bitsOf("100")) {
		t.Errorf("T1 set = %s, want 100", cl1.Set)
	}
	if !cl2.Set.Equal(bitsOf("101")) {
		t.Errorf("T2 set = %s, want 101", cl2.Set)
	}
	if !cl3.Set.Equal(bitsOf("011")) {
		t.Errorf("T3 set = %s, want 011", cl3.Set)
	}
	if !cl4.Set.Equal(bitsOf("110")) {
		t.Errorf("T4 set = %s, want 110", cl4.Set)
	}
	if !cl5.Set.Equal(bitsOf("111")) {
		t.Errorf("T5 set = %s, want 111 (pure addition in new slot)", cl5.Set)
	}
	_ = cl0

	want := []int{5, 4, 6, 7}
	got := r.ActiveQueries()
	if len(got) != len(want) {
		t.Fatalf("active queries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("active queries = %v, want %v", got, want)
		}
	}
}

func TestApplyErrors(t *testing.T) {
	r := NewRegistry(SlotReuse)
	mustApply(t, r, 10, []int{1}, nil)
	if _, err := r.Apply(5, []int{2}, nil); err == nil {
		t.Error("time regression must fail")
	}
	if _, err := r.Apply(11, []int{1}, nil); err == nil {
		t.Error("duplicate create must fail")
	}
	if _, err := r.Apply(11, nil, []int{99}); err == nil {
		t.Error("delete of unknown query must fail")
	}
	if _, err := r.Apply(11, []int{2, 2}, nil); err == nil {
		t.Error("double create in one batch must fail")
	}
	if _, err := r.Apply(11, []int{2}, []int{2}); err == nil {
		t.Error("create+delete of same query in one batch must fail")
	}
	if _, err := r.Apply(11, nil, []int{1, 1}); err == nil {
		t.Error("double delete in one batch must fail")
	}
	// Registry must be unchanged after failures.
	if r.ActiveCount() != 1 || r.NumSlots() != 1 {
		t.Errorf("registry mutated by failed Apply: active=%d slots=%d", r.ActiveCount(), r.NumSlots())
	}
	// Equal timestamps are allowed.
	if _, err := r.Apply(10, []int{2}, nil); err != nil {
		t.Errorf("equal timestamp should be allowed: %v", err)
	}
}

func TestRegistryLookups(t *testing.T) {
	r := NewRegistry(SlotReuse)
	mustApply(t, r, 1, []int{7, 8, 9}, nil)
	mustApply(t, r, 2, nil, []int{8})
	if q := r.QueryAt(1); q != NoQuery {
		t.Errorf("QueryAt(freed slot) = %d, want NoQuery", q)
	}
	if q := r.QueryAt(0); q != 7 {
		t.Errorf("QueryAt(0) = %d, want 7", q)
	}
	if q := r.QueryAt(99); q != NoQuery {
		t.Errorf("QueryAt(out of range) = %d, want NoQuery", q)
	}
	act := r.ActiveSlots()
	if !act.Equal(bitset.FromIndexes(0, 2)) {
		t.Errorf("ActiveSlots = %s, want 101", act)
	}
	if r.LastSeq() != 2 {
		t.Errorf("LastSeq = %d, want 2", r.LastSeq())
	}
}

// TestTableEquation1 verifies the DP table against the paper's Figure 4c
// examples and the naive AND-chain.
func TestTableEquation1(t *testing.T) {
	r := NewRegistry(SlotReuse)
	tb := NewTable()
	var logs []*Changelog
	add := func(at event.Time, c, d []int) {
		cl := mustApply(t, r, at, c, d)
		logs = append(logs, cl)
		if err := tb.Add(cl); err != nil {
			t.Fatalf("table.Add: %v", err)
		}
	}
	add(0, []int{1}, nil)         // epoch 1
	add(1, []int{2, 3}, nil)      // epoch 2, set 100
	add(2, []int{4}, []int{2})    // epoch 3, set 101
	add(3, []int{5}, []int{1})    // epoch 4, set 011
	add(4, []int{6, 7}, []int{3}) // epoch 5: Q6 reuses slot 2, Q7 new slot 3

	// Figure 4c column T1 (epoch 2 here): Rel(3,2)=101; Rel(4,2)=011&101=001;
	// Rel(5,2)=001&set5. set5: slot2 replaced, slot3 new -> 1100... our
	// epoch5 set: slots 0,1 unchanged, slot 2 replaced, slot 3 new => 1100.
	rel32 := tb.Rel(3, 2)
	if !rel32.Equal(bitsOf("101")) {
		t.Errorf("Rel(3,2) = %s, want 101", rel32)
	}
	rel42 := tb.Rel(4, 2)
	if !rel42.Equal(bitsOf("001")) {
		t.Errorf("Rel(4,2) = %s, want 001", rel42)
	}
	rel52 := tb.Rel(5, 2)
	if !rel52.IsEmpty() {
		t.Errorf("Rel(5,2) = %s, want 0 (no shared queries)", rel52)
	}
	// Same epoch: all-unchanged.
	rel55 := tb.Rel(5, 5)
	if !rel55.Equal(bitset.AllUpTo(4)) {
		t.Errorf("Rel(5,5) = %s, want 1111", rel55)
	}
	// Symmetry.
	relA := tb.Rel(2, 4)
	relB := tb.Rel(4, 2)
	if !relA.Equal(relB) {
		t.Errorf("Rel not symmetric: %s vs %s", relA, relB)
	}
	// Against the reference chain for all pairs.
	for i := uint64(0); i <= tb.Latest(); i++ {
		for j := uint64(0); j <= i; j++ {
			got := tb.Rel(i, j)
			want := RelChain(logs, i, j)
			if !got.Equal(want) {
				t.Errorf("Rel(%d,%d) = %s, chain says %s", i, j, got, want)
			}
		}
	}
}

func TestTableAddSequenceEnforced(t *testing.T) {
	tb := NewTable()
	if err := tb.Add(&Changelog{Seq: 2}); err == nil {
		t.Error("gap in seq must fail")
	}
	if err := tb.Add(&Changelog{Seq: 1, Slots: 1, Set: bitset.Bits{}}); err != nil {
		t.Errorf("seq 1 should be accepted: %v", err)
	}
	if tb.Latest() != 1 {
		t.Errorf("Latest = %d, want 1", tb.Latest())
	}
}

func TestTableCompact(t *testing.T) {
	r := NewRegistry(SlotReuse)
	tb := NewTable()
	var logs []*Changelog
	for i := 0; i < 10; i++ {
		cl := mustApply(t, r, event.Time(i), []int{i + 1}, nil)
		logs = append(logs, cl)
		if err := tb.Add(cl); err != nil {
			t.Fatal(err)
		}
	}
	tb.Compact(5)
	if tb.Base() != 5 {
		t.Fatalf("Base = %d, want 5", tb.Base())
	}
	if tb.RetainedRows() != 6 {
		t.Fatalf("RetainedRows = %d, want 6", tb.RetainedRows())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Rel touching a dropped epoch must panic")
			}
		}()
		tb.Rel(7, 4)
	}()
	got := tb.Rel(9, 5)
	if want := RelChain(logs, 9, 5); !got.Equal(want) {
		t.Errorf("post-compact Rel(9,5) = %s, want %s", got, want)
	}
	// Compacting backwards is a no-op; compacting past Latest clamps.
	tb.Compact(2)
	if tb.Base() != 5 {
		t.Error("Compact backwards must be a no-op")
	}
	tb.Compact(99)
	if tb.Base() != tb.Latest() || tb.RetainedRows() != 1 {
		t.Errorf("Compact past latest should keep one row, base=%d latest=%d", tb.Base(), tb.Latest())
	}
	if _, err := tb.Log(tb.Latest()); err == nil {
		t.Error("Log for fully compacted epoch must fail (log dropped)")
	}
}

func TestTableLog(t *testing.T) {
	r := NewRegistry(SlotReuse)
	tb := NewTable()
	cl := mustApply(t, r, 0, []int{1}, nil)
	if err := tb.Add(cl); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Log(1)
	if err != nil || got != cl {
		t.Fatalf("Log(1) = %v, %v; want the added changelog", got, err)
	}
	if _, err := tb.Log(0); err == nil {
		t.Error("Log(0) must fail: epoch 0 has no changelog")
	}
	if _, err := tb.Log(2); err == nil {
		t.Error("Log(latest+1) must fail")
	}
}

// TestRandomWorkloadDPvsChain drives a random create/delete workload and
// checks every Rel pair against the AND-chain reference, in both slot modes.
func TestRandomWorkloadDPvsChain(t *testing.T) {
	for _, mode := range []Mode{SlotReuse, AppendOnly} {
		rng := rand.New(rand.NewSource(42))
		r := NewRegistry(mode)
		tb := NewTable()
		var logs []*Changelog
		next := 1
		var live []int
		for step := 0; step < 60; step++ {
			var create, del []int
			for i := 0; i < 1+rng.Intn(3); i++ {
				create = append(create, next)
				next++
			}
			if len(live) > 0 {
				for i := 0; i < rng.Intn(2); i++ {
					k := rng.Intn(len(live))
					del = append(del, live[k])
					live = append(live[:k], live[k+1:]...)
				}
			}
			live = append(live, create...)
			cl := mustApply(t, r, event.Time(step), create, del)
			logs = append(logs, cl)
			if err := tb.Add(cl); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i <= tb.Latest(); i += 3 {
			for j := uint64(0); j <= i; j += 2 {
				got := tb.Rel(i, j)
				if want := RelChain(logs, i, j); !got.Equal(want) {
					t.Fatalf("mode %v: Rel(%d,%d) = %s, chain %s", mode, i, j, got, want)
				}
			}
		}
		// Slot-reuse keeps sets compact: slot count bounded by peak live
		// queries; append-only grows monotonically with total creations.
		if mode == SlotReuse && r.NumSlots() > 4*60 {
			t.Errorf("slot-reuse slots = %d, suspiciously sparse", r.NumSlots())
		}
		if mode == AppendOnly && r.NumSlots() != next-1 {
			t.Errorf("append-only slots = %d, want %d", r.NumSlots(), next-1)
		}
	}
}

// TestSlotReuseCompactness is the Figure 3b-vs-3c claim: under churn,
// slot-reuse keeps the bitset width near the live query count while
// append-only grows without bound.
func TestSlotReuseCompactness(t *testing.T) {
	reuse := NewRegistry(SlotReuse)
	appendOnly := NewRegistry(AppendOnly)
	id := 1
	for step := 0; step < 200; step++ {
		// Steady state: one in, one out, 10 live queries.
		var del []int
		if id > 10 {
			del = []int{id - 10}
		}
		if _, err := reuse.Apply(event.Time(step), []int{id}, del); err != nil {
			t.Fatal(err)
		}
		if _, err := appendOnly.Apply(event.Time(step), []int{id}, del); err != nil {
			t.Fatal(err)
		}
		id++
	}
	if reuse.NumSlots() > 11 {
		t.Errorf("slot-reuse width = %d, want ≤ 11", reuse.NumSlots())
	}
	if appendOnly.NumSlots() != 200 {
		t.Errorf("append-only width = %d, want 200", appendOnly.NumSlots())
	}
}

func TestModeString(t *testing.T) {
	if SlotReuse.String() != "slot-reuse" || AppendOnly.String() != "append-only" {
		t.Error("Mode.String mismatch")
	}
}

// TestSnapshotVersionSkew pins the trailing-bytes contract for the
// changelog types: a snapshot with bytes a newer encoder appended must be
// rejected, not half-parsed.
func TestSnapshotVersionSkew(t *testing.T) {
	reg := NewRegistry(SlotReuse)
	cl, err := reg.Apply(5, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable()
	if err := tab.Add(cl); err != nil {
		t.Fatal(err)
	}

	regSnap := reg.Snapshot()
	if _, err := RegistryFromSnapshot(regSnap); err != nil {
		t.Fatalf("clean registry snapshot rejected: %v", err)
	}
	if _, err := RegistryFromSnapshot(append(regSnap, 0xEE)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("skewed registry snapshot not rejected loudly: %v", err)
	}

	tabSnap := tab.Snapshot()
	if _, err := TableFromSnapshot(tabSnap); err != nil {
		t.Fatalf("clean table snapshot rejected: %v", err)
	}
	if _, err := TableFromSnapshot(append(tabSnap, 0xEE)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("skewed table snapshot not rejected loudly: %v", err)
	}
}

// TestTableSnapshotRoundTrip: a table through creations, deletions, reused
// slots and a compaction restores into one that relates every pair of
// retained epochs as the original does and snapshots to the same bytes.
func TestTableSnapshotRoundTrip(t *testing.T) {
	reg := NewRegistry(SlotReuse)
	tab := NewTable()
	for i, step := range []struct{ create, del []int }{
		{[]int{1, 2, 3}, nil}, {[]int{4}, []int{2}}, {nil, []int{1}}, {[]int{5, 6}, []int{4}},
	} {
		if err := tab.Add(mustApply(t, reg, event.Time(i), step.create, step.del)); err != nil {
			t.Fatal(err)
		}
	}
	tab.Compact(2)
	snap := tab.Snapshot()
	back, err := TableFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Snapshot(), snap) {
		t.Fatal("restored table snapshots differently")
	}
	for i := tab.Base(); i <= tab.Latest(); i++ {
		for j := i; j <= tab.Latest(); j++ {
			if got, want := back.Rel(i, j), tab.Rel(i, j); !got.Equal(want) {
				t.Fatalf("Rel(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
		if i == tab.Base() {
			continue
		}
		// Every retained changelog comes back whole, its time included,
		// not only the parts Rel is built from.
		want, _ := tab.Log(i)
		got, err := back.Log(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != want.Seq || got.Time != want.Time || got.Slots != want.Slots ||
			!slices.Equal(got.Created, want.Created) || !slices.Equal(got.Deleted, want.Deleted) ||
			!got.Set.Equal(want.Set) {
			t.Fatalf("Log(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestTableFromSnapshotRejectsSeqGap: the retained changelogs are re-added
// through Add, so a snapshot whose changelogs skip a seq fails to restore
// instead of restoring a table with a hole in it.
func TestTableFromSnapshotRejectsSeqGap(t *testing.T) {
	reg := NewRegistry(SlotReuse)
	tab := NewTable()
	first := mustApply(t, reg, 0, []int{1}, nil)
	second := mustApply(t, reg, 1, []int{2}, nil)
	if err := tab.Add(first); err != nil {
		t.Fatal(err)
	}
	b := tab.Snapshot()
	// The count of retained changelogs is the last thing before them.
	b = append(b[:len(b)-len(appendChangelog(nil, first))-4], 1, 0, 0, 0)
	b = appendChangelog(b, second)
	if _, err := TableFromSnapshot(b); err == nil || !strings.Contains(err.Error(), "expected seq 1, got 2") {
		t.Fatalf("table snapshot skipping changelog 1: %v", err)
	}
}

// TestRegistrySnapshotRoundTrip: a registry of either mode, with a deleted
// query's slot free, restores into one that snapshots to the same bytes,
// refuses what the original refuses and places the next queries where the
// original does.
func TestRegistrySnapshotRoundTrip(t *testing.T) {
	for _, mode := range []Mode{SlotReuse, AppendOnly} {
		reg := NewRegistry(mode)
		mustApply(t, reg, 1, []int{1, 2, 3}, nil)
		mustApply(t, reg, 2, nil, []int{2})
		snap := reg.Snapshot()
		back, err := RegistryFromSnapshot(snap)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !bytes.Equal(back.Snapshot(), snap) {
			t.Fatalf("%v: restored registry snapshots differently", mode)
		}
		// A changelog behind the last one is refused by both.
		_, errO := reg.Apply(1, []int{9}, nil)
		_, errB := back.Apply(1, []int{9}, nil)
		if errO == nil || errB == nil || errO.Error() != errB.Error() {
			t.Fatalf("%v: a changelog at time 1 after one at 2: original %v, restored %v", mode, errO, errB)
		}
		// Query 5 follows a deletion: SlotReuse hands it 1's slot,
		// AppendOnly a new one.
		for _, step := range []struct {
			at          event.Time
			create, del []int
		}{{3, []int{4}, []int{1}}, {4, []int{5}, nil}} {
			want, got := mustApply(t, reg, step.at, step.create, step.del), mustApply(t, back, step.at, step.create, step.del)
			if got.Created[0] != want.Created[0] || got.Seq != want.Seq || !bytes.Equal(back.Snapshot(), reg.Snapshot()) {
				t.Fatalf("%v: restored registry placed query %d as %+v (seq %d), want %+v (seq %d)", mode, step.create[0], got.Created[0], got.Seq, want.Created[0], want.Seq)
			}
		}
	}
}

// TestRegistryRestoreRejectsForgedShapes: a registry snapshot with a slot
// mode no Mode has (48 restored and behaved as AppendOnly), one query in two
// slots, or one free slot listed twice (handed to two queries) restored
// without error before; each re-encodes to itself.
func TestRegistryRestoreRejectsForgedShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(r *Registry)
		want string
	}{
		{"slot mode 48", func(r *Registry) { r.mode = 48 }, "slot mode 48"},
		{"query in two slots", func(r *Registry) { r.slots[2] = r.slots[0] }, "in two slots"},
		{"free slot twice", func(r *Registry) { r.free = append(r.free, r.free[0]) }, "listed twice"},
	} {
		reg := NewRegistry(SlotReuse)
		mustApply(t, reg, 1, []int{1, 2, 3}, nil)
		mustApply(t, reg, 2, nil, []int{2})
		tc.edit(reg)
		if _, err := RegistryFromSnapshot(reg.Snapshot()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restored (%v)", tc.name, err)
		}
	}
}
