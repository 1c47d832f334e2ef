package core

import (
	"math/rand"
	"sort"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
)

func mkTuple(key int64, tm event.Time, qs ...int) event.Tuple {
	return event.Tuple{Key: key, Time: tm, QuerySet: bitset.FromIndexes(qs...)}
}

func TestStoreModes(t *testing.T) {
	g := newSliceStore(StoreGrouped)
	l := newSliceStore(StoreList)
	for i := 0; i < 100; i++ {
		tu := mkTuple(int64(i%5), event.Time(i), i%3)
		g.Add(tu)
		l.Add(tu)
	}
	if !g.Grouped() || l.Grouped() {
		t.Fatal("mode flags wrong")
	}
	if g.GroupCount() != 3 {
		t.Fatalf("grouped store has %d groups, want 3", g.GroupCount())
	}
	if g.Len() != 100 || l.Len() != 100 {
		t.Fatal("Len mismatch")
	}
	if len(g.All()) != 100 || len(l.All()) != 100 {
		t.Fatal("All() length mismatch")
	}
}

func TestAdaptiveStaysGroupedWhenGroupsAreFat(t *testing.T) {
	s := newSliceStore(StoreAdaptive)
	for i := 0; i < 200; i++ {
		s.Add(mkTuple(int64(i), event.Time(i), i%4)) // 4 groups of 50
	}
	if !s.Grouped() {
		t.Fatal("adaptive store should stay grouped with mean group size 50")
	}
}

// refJoin is the brute-force reference for joinedStores.
func refJoin(a, b []event.Tuple, mask bitset.Bits) []event.JoinedTuple {
	var out []event.JoinedTuple
	for _, x := range a {
		for _, y := range b {
			if x.Key != y.Key {
				continue
			}
			qs := x.QuerySet.And(y.QuerySet)
			qs.AndInPlace(mask)
			if qs.IsEmpty() {
				continue
			}
			jt := event.JoinedTuple{Key: x.Key, Left: x.Fields, Right: y.Fields, QuerySet: qs}
			jt.Time = x.Time
			if y.Time > jt.Time {
				jt.Time = y.Time
			}
			jt.IngestNanos = x.IngestNanos
			if y.IngestNanos > jt.IngestNanos {
				jt.IngestNanos = y.IngestNanos
			}
			out = append(out, jt)
		}
	}
	return out
}

func canonJoined(js []event.JoinedTuple) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.QuerySet.String() + "|" +
			string(rune(j.Key)) + "|" + j.Time.String() +
			"|" + string(rune(j.Left[0])) + "|" + string(rune(j.Right[0]))
	}
	sort.Strings(out)
	return out
}

func TestJoinStoresMatchesBruteForceAllModeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	modes := []StoreMode{StoreGrouped, StoreList, StoreAdaptive}
	for trial := 0; trial < 60; trial++ {
		na, nb := rng.Intn(40), rng.Intn(40)
		var ta, tb []event.Tuple
		for i := 0; i < na; i++ {
			tu := mkTuple(int64(rng.Intn(6)), event.Time(rng.Intn(50)), rng.Intn(5))
			tu.Fields[0] = int64(rng.Intn(100))
			if rng.Intn(3) == 0 {
				tu.QuerySet.Set(rng.Intn(5))
			}
			ta = append(ta, tu)
		}
		for i := 0; i < nb; i++ {
			tu := mkTuple(int64(rng.Intn(6)), event.Time(rng.Intn(50)), rng.Intn(5))
			tu.Fields[0] = int64(rng.Intn(100))
			tb = append(tb, tu)
		}
		var mask bitset.Bits
		for i := 0; i < 5; i++ {
			if rng.Intn(4) != 0 {
				mask.Set(i)
			}
		}
		want := canonJoined(refJoin(ta, tb, mask))
		for _, ma := range modes {
			for _, mb := range modes {
				sa, sb := newSliceStore(ma), newSliceStore(mb)
				for _, tu := range ta {
					sa.Add(tu)
				}
				for _, tu := range tb {
					sb.Add(tu)
				}
				var got []event.JoinedTuple
				joinedStores(sa, sb, mask, func(j event.JoinedTuple) { got = append(got, j) })
				g := canonJoined(got)
				if len(g) != len(want) {
					t.Fatalf("trial %d modes %v×%v: %d results, want %d", trial, ma, mb, len(g), len(want))
				}
				for i := range want {
					if g[i] != want[i] {
						t.Fatalf("trial %d modes %v×%v: result mismatch at %d", trial, ma, mb, i)
					}
				}
			}
		}
	}
}

func TestJoinStoresEmptyMask(t *testing.T) {
	sa, sb := newSliceStore(StoreGrouped), newSliceStore(StoreGrouped)
	sa.Add(mkTuple(1, 0, 0))
	sb.Add(mkTuple(1, 0, 0))
	n := 0
	joinedStores(sa, sb, bitset.Bits{}, func(event.JoinedTuple) { n++ })
	if n != 0 {
		t.Fatal("empty mask must produce no results")
	}
}

func TestStoreModeString(t *testing.T) {
	if StoreAdaptive.String() != "adaptive" || StoreGrouped.String() != "grouped" || StoreList.String() != "list" {
		t.Fatal("StoreMode strings")
	}
}

// All returns every stored tuple (grouped stores flatten in key order).
func (s *sliceStore) All() []event.Tuple {
	if !s.grouped {
		return s.tuples
	}
	out := make([]event.Tuple, 0, len(s.tuples))
	for _, g := range s.groups.order {
		for _, p := range g.pos {
			out = append(out, s.tuples[p])
		}
	}
	return out
}

// joinedStores is the materialising form of the kernel for tests and
// benchmarks: every row of a ⋈ b as the joined tuple the fire path builds
// from it.
func joinedStores(a, b *sliceStore, mask bitset.Bits, emit func(event.JoinedTuple)) {
	var tmp bitset.Bits
	for _, row := range joinStores(a, b, mask, &tmp, nil) {
		l, r := &a.tuples[row.l], &b.tuples[row.r]
		emit(event.JoinedTuple{
			Key: l.Key, Left: l.Fields, Right: r.Fields, QuerySet: row.qs,
			Time: max(l.Time, r.Time), IngestNanos: max(l.IngestNanos, r.IngestNanos),
		})
	}
}
