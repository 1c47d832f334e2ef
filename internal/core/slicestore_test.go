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
		sa, sb := &sliceStore{}, &sliceStore{}
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
			t.Fatalf("trial %d: %d results, want %d", trial, len(g), len(want))
		}
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("trial %d: result mismatch at %d", trial, i)
			}
		}
	}

	// Ingest into a store that keeps its capacity allocates nothing: a
	// tuple into an unindexed store, and a late tuple the standing index
	// takes too (its chain array grows only as a slice does, amortized).
	tu := mkTuple(3, 7, 1, 4)
	open := &sliceStore{tuples: make([]event.Tuple, 0, 256)}
	if avg := testing.AllocsPerRun(200, func() { open.Add(tu) }); avg != 0 {
		t.Errorf("Add into an unindexed store allocated %.1f times per tuple, want 0", avg)
	}
	indexed := &sliceStore{}
	for i := range 64 {
		indexed.Add(mkTuple(int64(i%8), event.Time(i), i%5))
	}
	indexed.index()
	if avg := testing.AllocsPerRun(100, func() { indexed.Add(tu) }); avg != 0 || indexed.heads == nil {
		t.Errorf("Add into an indexed store allocated %.1f times per tuple (index kept: %v), want 0", avg, indexed.heads != nil)
	}
}

func TestJoinStoresEmptyMask(t *testing.T) {
	sa, sb := &sliceStore{}, &sliceStore{}
	sa.Add(mkTuple(1, 0, 0))
	sb.Add(mkTuple(1, 0, 0))
	n := 0
	joinedStores(sa, sb, bitset.Bits{}, func(event.JoinedTuple) { n++ })
	if n != 0 {
		t.Fatal("empty mask must produce no results")
	}
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
