package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
	"astream/internal/wire/wiretest"
)

// The fuzz targets below share one property: arbitrary bytes handed to a
// decoder yield an error — never a panic, a hang, or an allocation out of
// proportion to the input — and bytes a decoder accepts re-encode to
// themselves (wiretest.Canonical). Seeds are valid encodings plus the torn, corrupt and
// trailing-byte fixtures of the unit tests.

func addCorruptions(f *testing.F, enc []byte) {
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:len(enc)-1])
	f.Add(append(append([]byte(nil), enc...), 0xEE, 0xFF))
	f.Add(append([]byte{99}, enc[1:]...))
}

func fuzzQueries() []*Query {
	qs := []*Query{
		aggQ(window.TumblingSpec(10), sqlstream.AggSum, 1, gt(0, 20)),
		joinQ(window.SlidingSpec(8, 2), expr.True(), gt(3, -7)),
		complexQ(window.TumblingSpec(6), window.TumblingSpec(12), sqlstream.AggCount, -1,
			expr.True(), gt(4, -3).And(expr.Comparison{Field: expr.KeyField, Op: expr.EQ, Value: 5}), expr.True()),
		selQ(gt(expr.KeyField, 5)),
		aggQ(window.SessionSpec(7), sqlstream.AggAvg, 2, expr.True()),
	}
	for i, q := range qs {
		q.ID = 100 + i
	}
	return qs
}

// TestQueryCodecRoundTrip: every query shape re-decodes to an equal value,
// ID included (the log replays it, the snapshots restore it).
func TestQueryCodecRoundTrip(t *testing.T) {
	for i, q := range fuzzQueries() {
		r := wire.NewReader(AppendQuery(nil, q))
		got := ReadQuery(r)
		if err := r.Finish("query"); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(q, got) {
			t.Fatalf("query %d round trip mismatch:\n%+v\n%+v", i, q, got)
		}
	}
	if enc := AppendQuery(nil, selQ(expr.True())); len(enc) != queryMinSize+4 {
		t.Fatalf("one-predicate query is %d bytes; queryMinSize says %d+4", len(enc), queryMinSize)
	}
	r := wire.NewReader([]byte{1, 2})
	if ReadQuery(r); r.Err() == nil {
		t.Fatal("truncated query must fail")
	}
}

func FuzzReadQuery(f *testing.F) {
	for _, q := range fuzzQueries() {
		enc := AppendQuery(nil, q)
		f.Add(enc)
		f.Add(enc[:len(enc)-9])
		f.Add(append(enc, 0xEE))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			r := wire.NewReader(in)
			q := ReadQuery(r)
			if r.Finish("query") != nil {
				return
			}
			if back := AppendQuery(nil, q); !bytes.Equal(back, in) {
				t.Fatalf("accepted query re-encodes differently:\n in %x\nout %x", in, back)
			}
		})
	})
}

// FuzzSelectionRestore: the seeds are this build's encoding and, under
// testdata, a fuzzer find (version byte moved to this layout's) whose version
// count runs past the input.
func FuzzSelectionRestore(f *testing.F) {
	b := newCLBuilder()
	sel := NewSharedSelection(0, 10, &OpMetrics{})
	sel.OnChangelog(b.create(f, 0, selQ(gt(0, 50)), aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(1, 3))), 0, nil)
	sel.OnChangelog(b.remove(f, 5, 1), 5, nil)
	sel.OnChangelog(b.create(f, 7, selQ(gt(expr.KeyField, 2))), 7, nil)
	addCorruptions(f, sel.OnBarrier(1, nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		fresh := NewSharedSelection(0, 10, &OpMetrics{})
		var err error
		got := wiretest.Allocated(func() { err = fresh.Restore(in) })
		if err == nil {
			// A restore that succeeds rebuilds the compiled index, whose
			// nodes carry dense slot bitsets (DESIGN.md §14): entries ×
			// slot-width, superlinear in the input by design. Everything
			// that runs before an error is the decoder, and is linear.
			wiretest.Canonical(t, in, fresh.OnBarrier(2, nil))
		} else if limit := wiretest.Limit(in); got > limit {
			t.Fatalf("rejecting %d bytes allocated %d bytes (limit %d)", len(in), got, limit)
		}
	})
}

// FuzzJoinRestore: the seeds are this build's encoding at two barriers — the
// second after a query's deletion and an eviction — and, under testdata, two
// fuzzer finds (version bytes moved to this layout's, so they reach a table
// check), three earlier layouts' (version 6, whose stores each carried
// a mode byte, version 7, whose join and stores did, and version 8, whose
// links named no barrier), which are rejected by their version byte, and the
// forged slice rings of TestSlicerRestoreRejectsForgedRings (ring-*).
func FuzzJoinRestore(f *testing.F) {
	b := newCLBuilder()
	join := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
	msg := b.create(f, 0, joinQ(window.TumblingSpec(10), gt(0, -1), gt(0, -1)),
		joinQ(window.SlidingSpec(20, 5), gt(0, -1), gt(0, -1)))
	join.OnChangelog(msg, 0, nil)
	out := tapEmitter(&[]string{})
	feed := func(from, to int) {
		for i := from; i < to; i++ {
			join.OnTuple(i%2, event.Tuple{Key: int64(i % 3), Time: event.Time(1 + i), QuerySet: bitset.FromIndexes(i%2, i/2%2)}, out)
		}
	}
	feed(0, 12)
	join.OnWatermark(9, out)
	addCorruptions(f, join.OnBarrier(1, nil))
	join.OnChangelog(b.remove(f, 14, msg.CL.Created[0].Query), 14, nil)
	feed(12, 40)
	join.OnWatermark(35, out)
	addCorruptions(f, join.OnBarrier(2, nil))
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			fresh := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
			if fresh.Restore(in) == nil {
				wiretest.Canonical(t, in, fresh.OnBarrier(fresh.win.lastLink, nil))
			}
		})
	})
}

// fuzzAgg builds an aggregation with a sliding and a session query, a few
// folded slices and one delta on top of a full snapshot.
func fuzzAgg(tb testing.TB) (full, delta []byte) {
	b := newCLBuilder()
	msg := b.create(tb, 0, aggQ(window.SlidingSpec(20, 5), sqlstream.AggAvg, 0, gt(0, -1)),
		aggQ(window.SessionSpec(4), sqlstream.AggSum, 1, expr.True()))
	agg := newDeltaAgg(&[]string{}, msg.CL.Created[0].Query, msg.CL.Created[1].Query)
	agg.OnChangelog(msg, 0, nil)
	fold := func(from, n int) {
		for i := from; i < from+n; i++ {
			agg.OnTuple(0, event.Tuple{Key: int64(i % 3), Time: event.Time(1 + i),
				Fields: [event.NumFields]int64{int64(i), 2}, QuerySet: bitset.FromIndexes(0, 1)}, nil)
		}
	}
	fold(0, 12)
	agg.OnWatermark(8, nil)
	full = agg.OnBarrier(1, nil)
	fold(12, 4)
	delta = agg.OnBarrier(2, nil)
	if full[0] == spe.DeltaSnapshotMagic || delta[0] != spe.DeltaSnapshotMagic {
		tb.Fatal("fuzz seeds are not a full snapshot followed by a delta")
	}
	return full, delta
}

// FuzzAggregationRestore: no accepted shape — overlapping classes, slots or
// rows out of order, an empty class — means something the encoder never
// wrote. A slice's bytes are a function of its content, sealed or not, so an
// accepted snapshot re-encodes to itself by construction. The seeds are this
// build's encoding and, under testdata, two earlier layouts' (versions 5
// and 8), which are rejected by their version byte, and the forged slice
// rings of TestSlicerRestoreRejectsForgedRings (ring-*), one per rejection.
func FuzzAggregationRestore(f *testing.F) {
	full, _ := fuzzAgg(f)
	addCorruptions(f, full)
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			fresh := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
			if fresh.Restore(in) == nil {
				wiretest.Canonical(t, in, fresh.OnBarrier(fresh.win.lastLink, nil))
			}
		})
	})
}

// FuzzAggregationRestoreDelta feeds arbitrary bytes to Restore on a restored
// base, the way recovery applies a chain's next link. Under testdata, a delta
// of the version-5 layout carries no version byte of its own, and one of the
// version-8 layout names no predecessor; both fail the predecessor check. The
// ring-* seeds are deltas over the same base whose slice ring is forged.
func FuzzAggregationRestoreDelta(f *testing.F) {
	full, delta := fuzzAgg(f)
	addCorruptions(f, delta)
	f.Add(full) // a full snapshot where a delta belongs: it replaces the base
	f.Fuzz(func(t *testing.T, in []byte) {
		base := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		if err := base.Restore(full); err != nil {
			t.Fatal(err)
		}
		wiretest.Bounded(t, in, func() {
			if base.Restore(in) == nil {
				base.OnBarrier(3, nil)
			}
		})
	})
}

// FuzzJoinRestoreDelta feeds arbitrary bytes to Restore on a restored join
// base, through the decoder the aggregation's links take. A link the join
// accepts re-encodes to itself: a full one as the full link it replaced the
// base with; a delta cut after the base, with the stores it decoded marked
// dirty and the ones it carried forward clean. The seeds under testdata are
// deltas over the same base whose slice ring is forged (ring-*, one per
// rejection of TestSlicerRestoreRejectsForgedRings), one that carries forward
// a store the base never held, one whose changelog table is compacted past
// the epochs its ring names, and one of the version-8 layout.
func FuzzJoinRestoreDelta(f *testing.F) {
	full, delta := joinChain(f)
	addCorruptions(f, delta)
	f.Add(full) // a full snapshot where a delta belongs: it replaces the base
	f.Fuzz(func(t *testing.T, in []byte) {
		j := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
		if err := j.Restore(full); err != nil {
			t.Fatal(err)
		}
		held := map[*sliceStore]bool{}
		for _, s := range j.win.sides {
			for _, sl := range s.slices {
				held[sl.store] = true
			}
		}
		base := j.win.lastLink
		wiretest.Bounded(t, in, func() {
			if j.Restore(in) == nil {
				for _, s := range j.win.sides {
					for _, sl := range s.slices {
						sl.dirty = !held[sl.store]
					}
				}
				barrier := j.win.lastLink
				j.win.lastLink = base
				wiretest.Canonical(t, in, j.appendLink(nil, barrier, in[0] != spe.DeltaSnapshotMagic))
			}
		})
	})
}

// FuzzRestoreControl: the seeds are this build's encoding and, under
// testdata, four fuzzer finds (version bytes moved to this layout's, so they
// reach the query list) and an earlier layout's (version 7, which carried the
// session's store marker), which is rejected by its version byte.
func FuzzRestoreControl(f *testing.F) {
	eng := controlEngine(f)
	addCorruptions(f, eng.ControlSnapshot())
	eng.Drain()
	f.Fuzz(func(t *testing.T, in []byte) {
		fresh := newControlEngine(t)
		defer fresh.Drain()
		wiretest.Bounded(t, in, func() {
			if fresh.RestoreControl(in) == nil {
				wiretest.Canonical(t, in, fresh.ControlSnapshot())
			}
		})
	})
}

// TestCommittedSeedsPassTheirVersionBytes: a seed committed under
// testdata/fuzz, unless it is named version*, was found or forged to reach
// a check past its decoder's version bytes. Once a version bump has the
// decoder reject it at one of them — the leading byte or a nested table's —
// it replays nothing it was committed for, and the fuzz target, which only
// requires an error, would not notice.
func TestCommittedSeedsPassTheirVersionBytes(t *testing.T) {
	aggFull, _ := fuzzAgg(t)
	joinFull, _ := joinChain(t)
	decoders := map[string]func(in []byte) error{
		"FuzzSelectionRestore": func(in []byte) error { return NewSharedSelection(0, 10, &OpMetrics{}).Restore(in) },
		"FuzzJoinRestore": func(in []byte) error {
			return NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore(in)
		},
		"FuzzAggregationRestore": func(in []byte) error {
			return NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{}).Restore(in)
		},
		"FuzzAggregationRestoreDelta": func(in []byte) error {
			a := NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
			if err := a.Restore(aggFull); err != nil {
				t.Fatal(err)
			}
			return a.Restore(in)
		},
		"FuzzJoinRestoreDelta": func(in []byte) error {
			j := NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{})
			if err := j.Restore(joinFull); err != nil {
				t.Fatal(err)
			}
			return j.Restore(in)
		},
		"FuzzRestoreControl": func(in []byte) error {
			eng := newControlEngine(t)
			defer eng.Drain()
			return eng.RestoreControl(in)
		},
	}
	targets, err := os.ReadDir("testdata/fuzz")
	if err != nil {
		t.Fatal(err)
	}
	seeds := 0
	for _, target := range targets {
		decode := decoders[target.Name()]
		if decode == nil {
			t.Fatalf("testdata/fuzz/%s: no decoder to replay its seeds through", target.Name())
		}
		files, err := os.ReadDir(filepath.Join("testdata/fuzz", target.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasPrefix(f.Name(), "version") {
				continue
			}
			path := filepath.Join("testdata/fuzz", target.Name(), f.Name())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
			lit, ok2 := strings.CutSuffix(strings.TrimSpace(lit), ")")
			in, err := strconv.Unquote(lit)
			if !ok || !ok2 || err != nil {
				t.Fatalf("%s: not one []byte seed", path)
			}
			seeds++
			if err := decode([]byte(in)); err != nil && strings.Contains(err.Error(), "snapshot version") {
				t.Errorf("%s is rejected at a version byte: %v", path, err)
			}
		}
	}
	if seeds == 0 {
		t.Fatal("no committed seed replayed")
	}
}
