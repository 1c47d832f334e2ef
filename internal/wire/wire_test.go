package wire

import (
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/window"
	"astream/internal/wire/wiretest"
)

func randBits(rng *rand.Rand) bitset.Bits {
	var b bitset.Bits
	for n := rng.Intn(6); n > 0; n-- {
		b.Set(rng.Intn(400)) // up to 7 words: exercises inline, the 4-word scratch, and the spill
	}
	return b
}

func randTuple(rng *rand.Rand) event.Tuple {
	t := event.Tuple{
		Key:         rng.Int63() - 1<<62,
		Time:        event.Time(rng.Int63n(1 << 40)),
		IngestNanos: rng.Int63(),
		Stream:      uint8(rng.Intn(256)),
		QuerySet:    randBits(rng),
	}
	for i := range t.Fields {
		t.Fields[i] = rng.Int63() - 1<<62
	}
	return t
}

func randPredicate(rng *rand.Rand) expr.Predicate {
	p := expr.True()
	for n := rng.Intn(4); n > 0; n-- {
		p = p.And(expr.Comparison{Field: rng.Intn(event.NumFields+1) - 1, Op: expr.Op(rng.Intn(6)), Value: rng.Int63() - 1<<62})
	}
	return p
}

func tuplesEqual(a, b event.Tuple) bool {
	return a.Key == b.Key && a.Fields == b.Fields && a.Time == b.Time &&
		a.IngestNanos == b.IngestNanos && a.Stream == b.Stream && a.QuerySet.Equal(b.QuerySet)
}

// TestTupleEncodingGolden pins the tuple's bytes. WAL records, join-store
// snapshots and exchange frames all carry them, so a faster encoder must
// write exactly what earlier builds wrote: the hex below was captured from
// the field-by-field encoder. Each tuple is appended after two bytes already
// in the buffer, which must survive.
func TestTupleEncodingGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		tu   event.Tuple
		hex  string
	}{
		{"empty query-set", event.Tuple{
			Key: -1, Fields: [event.NumFields]int64{-2, 3, -4, 1 << 40, math.MinInt64},
			Time: 12345, IngestNanos: -7, Stream: 3,
		},
			"abcdfffffffffffffffffeffffffffffffff0300000000000000fcffffffffffffff000000000001000000000000000000803930000000000000f9ffffffffffffff0300000000"},
		{"one-word query-set", event.Tuple{
			Key: 1<<62 + 5, Fields: [event.NumFields]int64{0, -1, math.MaxInt64, 7, -300},
			Time: -1, IngestNanos: 1_700_000_000_000_000_000, Stream: 0,
			QuerySet: bitset.FromIndexes(0, 5, 63),
		},
			"abcd05000000000000400000000000000000ffffffffffffffffffffffffffffff7f0700000000000000d4feffffffffffffffffffffffffffff00002a36fe9c971700010000002100000000000080"},
		{"spilled query-set", event.Tuple{
			Key: 0, Fields: [event.NumFields]int64{-9, -8, -7, -6, -5},
			Time: event.MaxTime, IngestNanos: 0, Stream: 255,
			QuerySet: bitset.FromIndexes(1, 64, 200),
		},
			"abcd0000000000000000f7fffffffffffffff8fffffffffffffff9fffffffffffffffafffffffffffffffbffffffffffffffffffffffffffff3f0000000000000000ff040000000200000000000000010000000000000000000000000000000001000000000000"},
	} {
		enc := AppendTuple([]byte{0xAB, 0xCD}, &tc.tu)
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", tc.name, got, tc.hex)
			continue
		}
		r := NewReader(enc[2:])
		if got := ReadTuple(r); r.Finish("tuple") != nil || !tuplesEqual(got, tc.tu) {
			t.Errorf("%s: decoded %+v (err %v), want %+v", tc.name, got, r.Err(), tc.tu)
		}
	}
}

// The four round-trip properties below share one shape: a random value
// re-decodes to itself, consumes exactly its own bytes (Finish accepts), and
// no longer decodes once any suffix is cut off.

// TestTupleRoundTrip cuts every encoding at every byte offset. Each cut must
// fail, and name the field it falls in, as reading field by field does:
// key at 0, five fields from 8, time at 48, ingest at 56, stream at 64,
// query-set from 65.
func TestTupleRoundTrip(t *testing.T) {
	field := func(cut int) string {
		switch {
		case cut < 8:
			return "truncated reading tuple key"
		case cut < 48:
			return "truncated reading tuple field"
		case cut < 56:
			return "truncated reading tuple time"
		case cut < 64:
			return "truncated reading tuple ingest"
		case cut < 65:
			return "truncated reading tuple stream"
		}
		return "tuple query-set"
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		want := randTuple(rng)
		enc := AppendTuple(nil, &want)
		r := NewReader(enc)
		got := ReadTuple(r)
		if err := r.Finish("tuple"); err != nil || !tuplesEqual(got, want) {
			t.Fatalf("tuple %d: err %v\n got %+v\nwant %+v", i, err, got, want)
		}
		for cut := 0; cut < len(enc); cut++ {
			r = NewReader(enc[:cut])
			ReadTuple(r)
			if r.Err() == nil || !strings.Contains(r.Err().Error(), field(cut)) {
				t.Fatalf("tuple %d cut at %d of %d bytes: error %v, want one naming %q", i, cut, len(enc), r.Err(), field(cut))
			}
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		want := randBits(rng)
		enc := AppendBits(nil, want)
		if len(enc) != 4+8*want.WordCount() {
			t.Fatalf("bits %d: %d bytes for %d words", i, len(enc), want.WordCount())
		}
		r := NewReader(enc)
		got := r.Bits("bits")
		if err := r.Finish("bits"); err != nil || !got.Equal(want) {
			t.Fatalf("bits %d: err %v, got %s want %s", i, err, got, want)
		}
		r = NewReader(enc[:rng.Intn(len(enc))])
		r.Bits("bits")
		if r.Err() == nil {
			t.Fatalf("bits %d: truncated encoding decoded", i)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specs := []window.Spec{{}, window.TumblingSpec(10), window.SlidingSpec(12, 4), window.SessionSpec(7)}
	for i := 0; i < 100; i++ {
		specs = append(specs, window.Spec{Kind: window.Kind(rng.Intn(3)),
			Length: event.Time(rng.Int63()), Slide: event.Time(rng.Int63()), Gap: event.Time(rng.Int63())})
	}
	for i, want := range specs {
		enc := AppendSpec(nil, want)
		if len(enc) != SpecSize {
			t.Fatalf("spec %d: %d bytes, SpecSize says %d", i, len(enc), SpecSize)
		}
		r := NewReader(enc)
		if got := ReadSpec(r); r.Finish("spec") != nil || got != want {
			t.Fatalf("spec %d: got %+v want %+v (err %v)", i, got, want, r.Err())
		}
		r = NewReader(enc[:rng.Intn(len(enc))])
		ReadSpec(r)
		if r.Err() == nil {
			t.Fatalf("spec %d: truncated encoding decoded", i)
		}
	}
}

func TestPredicateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		want := randPredicate(rng)
		enc := AppendPredicate(nil, want)
		if len(enc) != 4+comparisonSize*len(want.Conj) {
			t.Fatalf("predicate %d: %d bytes for %d comparisons", i, len(enc), len(want.Conj))
		}
		r := NewReader(enc)
		// DeepEqual, not just Eval agreement: TRUE must come back with a nil
		// Conj so decoded queries compare equal to compiled ones.
		if got := ReadPredicate(r); r.Finish("predicate") != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("predicate %d: got %+v want %+v (err %v)", i, got, want, r.Err())
		}
		r = NewReader(enc[:rng.Intn(len(enc))])
		ReadPredicate(r)
		if r.Err() == nil {
			t.Fatalf("predicate %d: truncated encoding decoded", i)
		}
	}
}

func TestScalarsRoundTrip(t *testing.T) {
	b := AppendU8(nil, 200)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<63|5)
	b = AppendI64(b, -42)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendBytes(b, []byte("abc"))
	b = AppendBytes(b, nil)
	r := NewReader(b)
	if v := r.U8("u8"); v != 200 {
		t.Fatalf("u8 = %d", v)
	}
	if v := r.U32("u32"); v != 0xDEADBEEF {
		t.Fatalf("u32 = %#x", v)
	}
	if v := r.U64("u64"); v != 1<<63|5 {
		t.Fatalf("u64 = %#x", v)
	}
	if v := r.I64("i64"); v != -42 {
		t.Fatalf("i64 = %d", v)
	}
	if !r.Bool("t") || r.Bool("f") {
		t.Fatal("bools did not round-trip")
	}
	if v := r.Bytes("bytes"); string(v) != "abc" {
		t.Fatalf("bytes = %q", v)
	}
	if v := r.Bytes("empty"); len(v) != 0 {
		t.Fatalf("empty bytes = %q", v)
	}
	if err := r.Finish("scalars"); err != nil {
		t.Fatal(err)
	}
}

// TestReaderFailuresStick: the first failure is the one reported, every
// later read yields zero without moving, and Finish returns it.
func TestReaderFailuresStick(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32("first"); v != 0 || r.Err() == nil {
		t.Fatalf("short u32 = %d, err %v", v, r.Err())
	}
	first := r.Err()
	if r.U8("later") != 0 || r.U64("later") != 0 || r.Count("later", 1) != 0 ||
		len(r.Bytes("later")) != 0 || !r.Bits("later").IsEmpty() || r.Bool("later") {
		t.Fatal("reads after a failure must yield zero values")
	}
	r.Version("later", 9)
	r.Fail(errShouldNotReplace)
	if r.Err() != first || r.Finish("x") != first {
		t.Fatalf("sticky error replaced: %v", r.Err())
	}
	if !strings.Contains(first.Error(), "first") {
		t.Fatalf("error does not name what was being read: %v", first)
	}
}

var errShouldNotReplace = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "replaced" }

func TestFinishRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{7, 0xEE})
	r.U8("v")
	if err := r.Finish("thing"); err == nil || !strings.Contains(err.Error(), "1 trailing") {
		t.Fatalf("trailing byte not rejected: %v", err)
	}
}

func TestBoolAndVersionRejectOtherValues(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool("flag"); r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
	r = NewReader([]byte{1})
	if r.Version("ver", 2); r.Err() == nil {
		t.Fatal("version 1 accepted where 2 is wanted")
	}
	r = NewReader([]byte{2})
	if r.Version("ver", 2); r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// TestCountBoundedByRemainingBytes: a length prefix is accepted exactly when
// that many unit-sized elements still fit.
func TestCountBoundedByRemainingBytes(t *testing.T) {
	body := make([]byte, 24)
	for _, tc := range []struct {
		n, unit int
		ok      bool
	}{
		{0, 8, true}, {3, 8, true}, {4, 8, false}, {24, 1, true}, {25, 1, false},
		{1, 24, true}, {1, 25, false}, {1 << 31, 1, false}, {1<<32 - 1, 1 << 30, false},
	} {
		r := NewReader(append(AppendU32(nil, uint32(tc.n)), body...))
		got := r.Count("n", tc.unit)
		if tc.ok != (r.Err() == nil) || (tc.ok && got != tc.n) || (!tc.ok && got != 0) {
			t.Errorf("Count(n=%d, unit=%d) = %d, err %v; want ok=%v", tc.n, tc.unit, got, r.Err(), tc.ok)
		}
	}
}

// FuzzReader drives every Reader method and value codec over arbitrary
// bytes, the op sequence chosen by the input itself. Properties: no panic,
// the cursor never grows, a failed reader stays failed and yields zeros,
// and a decode never allocates more than a small multiple of its input.
func FuzzReader(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	tu := randTuple(rng)
	seed := AppendTuple([]byte{6}, &tu)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(seed, 0xEE))
	f.Add(AppendBits([]byte{5}, bitset.FromIndexes(1, 300)))
	f.Add(append([]byte{5}, 0xFF, 0xFF, 0xFF, 0xFF)) // count far beyond the input
	f.Add(AppendPredicate([]byte{8}, randPredicate(rng)))
	f.Add(AppendBytes([]byte{4, 0, 1, 2, 3}, []byte("payload")))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			r := NewReader(in)
			for steps := 0; steps < 64 && r.Err() == nil && len(r.b) > 0; steps++ {
				before := len(r.b)
				switch op := r.U8("op") % 11; op {
				case 0:
					r.U32("u32")
				case 1:
					r.U64("u64")
				case 2:
					r.I64("i64")
				case 3:
					r.Bool("bool")
				case 4:
					if p := r.Bytes("bytes"); len(p) > before {
						t.Fatalf("Bytes returned %d of %d remaining bytes", len(p), before)
					}
				case 5:
					r.Bits("bits")
				case 6:
					ReadTuple(r)
				case 7:
					ReadSpec(r)
				case 8:
					ReadPredicate(r)
				case 9:
					if n := r.Count("count", 3); n*3 > before {
						t.Fatalf("Count accepted %d×3 bytes with %d remaining", n, before)
					}
				case 10:
					r.Version("version", 2)
				}
				if len(r.b) > before {
					t.Fatalf("cursor moved backwards: %d -> %d bytes remain", before, len(r.b))
				}
			}
			if r.Err() != nil {
				if r.U64("after") != 0 || len(r.Bytes("after")) != 0 || r.Finish("after") != r.Err() {
					t.Fatal("failed reader did not stay failed")
				}
			}
		})
	})
}
