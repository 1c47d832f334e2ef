package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var b Bits
	if !b.IsEmpty() {
		t.Fatal("zero value should be empty")
	}
	if b.Count() != 0 || b.Len() != 0 {
		t.Fatalf("Count=%d Len=%d, want 0,0", b.Count(), b.Len())
	}
	if b.Test(0) || b.Test(1000) {
		t.Fatal("no bit should be set in zero value")
	}
	if got := b.String(); got != "0" {
		t.Fatalf("String() = %q, want \"0\"", got)
	}
	if b.NextSet(0) != -1 {
		t.Fatal("NextSet on empty should be -1")
	}
}

func TestSetClearTest(t *testing.T) {
	var b Bits
	idx := []int{0, 1, 63, 64, 65, 127, 128, 300, 1023}
	for _, i := range idx {
		b.Set(i)
	}
	for _, i := range idx {
		if !b.Test(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	if b.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(idx))
	}
	if b.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024", b.Len())
	}
	for _, i := range idx {
		b.Clear(i)
		if b.Test(i) {
			t.Fatalf("bit %d should be cleared", i)
		}
	}
	if !b.IsEmpty() {
		t.Fatal("should be empty after clearing all")
	}
}

func TestClearBeyondLengthNoop(t *testing.T) {
	b := FromIndexes(3)
	b.Clear(1000)
	if !b.Equal(FromIndexes(3)) {
		t.Fatal("clearing out-of-range bit changed the set")
	}
}

func TestSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) should panic")
		}
	}()
	var b Bits
	b.Set(-1)
}

func TestPaperExampleFigure3(t *testing.T) {
	// Figure 3a: t1=10, t2=10, t3=01, t4=11 (slot 0 leftmost).
	t1, _ := Parse("10")
	t2, _ := Parse("10")
	t3, _ := Parse("01")
	t4, _ := Parse("11")
	if t2.Intersects(t3) {
		t.Fatal("t2 and t3 share no query")
	}
	if !t4.Intersects(t2) || !t4.Intersects(t1) || !t4.Intersects(t3) {
		t.Fatal("t4 shares Q1 with t1,t2 and Q2 with t3")
	}
	// Joining t7 (query-set 11) with t4 (11) through changelog-set 10
	// yields 10 (paper end of §2.1.2).
	t7, _ := Parse("11")
	cl, _ := Parse("10")
	got := t7.And(t4).And(cl)
	want, _ := Parse("10")
	if !got.Equal(want) {
		t.Fatalf("t7&t4&cl = %s, want %s", got, want)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "10", "01", "0010", "101", "11111111"}
	for _, s := range cases {
		b, ok := Parse(s)
		if !ok {
			t.Fatalf("Parse(%q) failed", s)
		}
		// String trims trailing zeros (Len-based), so compare set equality.
		b2, _ := Parse(b.String())
		if !b.Equal(b2) {
			t.Fatalf("round trip of %q lost bits: %s vs %s", s, b, b2)
		}
	}
	if _, ok := Parse("10x1"); ok {
		t.Fatal("Parse should reject non-binary characters")
	}
}

func TestAndOrAndNot(t *testing.T) {
	a := FromIndexes(0, 2, 64, 100)
	b := FromIndexes(2, 3, 100, 200)
	and := a.And(b)
	if !and.Equal(FromIndexes(2, 100)) {
		t.Fatalf("And = %v", and.Indexes())
	}
	or := a.Or(b)
	if !or.Equal(FromIndexes(0, 2, 3, 64, 100, 200)) {
		t.Fatalf("Or = %v", or.Indexes())
	}
	diff := a.AndNot(b)
	if !diff.Equal(FromIndexes(0, 64)) {
		t.Fatalf("AndNot = %v", diff.Indexes())
	}
}

func TestInPlaceOpsMatchPure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomBits(rng, 256)
		b := randomBits(rng, 256)
		ai := a.Clone()
		ai.AndInPlace(b)
		if !ai.Equal(a.And(b)) {
			t.Fatalf("AndInPlace mismatch: %s vs %s", ai, a.And(b))
		}
		oi := a.Clone()
		oi.OrInPlace(b)
		if !oi.Equal(a.Or(b)) {
			t.Fatalf("OrInPlace mismatch")
		}
		ni := a.Clone()
		ni.AndNotInPlace(b)
		if !ni.Equal(a.AndNot(b)) {
			t.Fatalf("AndNotInPlace mismatch")
		}
	}
}

func TestIntersectsAgainstAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a := randomBits(rng, 200)
		b := randomBits(rng, 200)
		if a.Intersects(b) != !a.And(b).IsEmpty() {
			t.Fatalf("Intersects disagrees with And: a=%s b=%s", a, b)
		}
		if a.CountAnd(b) != a.And(b).Count() {
			t.Fatalf("CountAnd disagrees with And().Count()")
		}
	}
}

func TestNextSetAndForEach(t *testing.T) {
	b := FromIndexes(1, 63, 64, 130)
	var got []int
	for i := b.NextSet(0); i != -1; i = b.NextSet(i + 1) {
		got = append(got, i)
	}
	want := []int{1, 63, 64, 130}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk = %v, want %v", got, want)
		}
	}
	var fe []int
	b.ForEach(func(i int) bool { fe = append(fe, i); return true })
	if len(fe) != len(want) {
		t.Fatalf("ForEach = %v, want %v", fe, want)
	}
	// Early stop.
	n := 0
	b.ForEach(func(i int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("ForEach early stop visited %d, want 2", n)
	}
	if b.NextSet(-5) != 1 {
		t.Fatal("NextSet with negative start should clamp to 0")
	}
}

func TestAllUpTo(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		b := AllUpTo(n)
		if b.Count() != n {
			t.Fatalf("AllUpTo(%d).Count() = %d", n, b.Count())
		}
		if n > 0 && (!b.Test(0) || !b.Test(n-1) || b.Test(n)) {
			t.Fatalf("AllUpTo(%d) boundary bits wrong", n)
		}
	}
}

// TestEqualIgnoresTrailingWords: Equal compares bits, not representations
// or backing lengths.
func TestEqualIgnoresTrailingWords(t *testing.T) {
	inline := FromWords([]uint64{5})
	var spilled Bits
	spilled.Set(130)
	spilled.Clear(130)
	spilled.Set(0)
	spilled.Set(2)
	for _, b := range []Bits{View([]uint64{5, 0, 0}), spilled} {
		if !b.Equal(inline) || !inline.Equal(b) {
			t.Fatalf("%v must equal its inline twin", b.Words())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndexes(1, 2, 3)
	c := a.Clone()
	c.Set(100)
	c.Clear(1)
	if !a.Equal(FromIndexes(1, 2, 3)) {
		t.Fatal("mutating clone affected original")
	}
}

func TestReset(t *testing.T) {
	b := FromIndexes(1, 99)
	b.Reset()
	if !b.IsEmpty() {
		t.Fatal("Reset should empty the set")
	}
	b.Set(5)
	if !b.Equal(FromIndexes(5)) {
		t.Fatal("set after Reset misbehaves")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	a := FromIndexes(0, 64, 127)
	b := FromWords(a.Words())
	if !a.Equal(b) {
		t.Fatal("Words/FromWords round trip lost bits")
	}
}

// TestViewSharesWords: a View is the set FromWords would copy — equal to it
// and to its inline or trimmed twins, trailing zero words and all — but reads
// the caller's words in place.
func TestViewSharesWords(t *testing.T) {
	for _, words := range [][]uint64{nil, {0}, {5}, {5, 0, 0}, {1, 0, 1 << 63}, {0, 7, 0}} {
		v, c := View(words), FromWords(words)
		if !v.Equal(c) || v.WordCount() != c.WordCount() {
			t.Fatalf("View(%v) = %v, FromWords gives %v", words, v.Words(), c.Words())
		}
	}
	words := []uint64{1, 2}
	v := View(words)
	words[1] |= 1 << 4
	if !v.Test(64 + 4) {
		t.Fatal("View copied its words")
	}
}

// TestWordAccessors pins Word/WordCount against Words(): the allocation-free
// walk the snapshot encoders use must see exactly the copied view.
func TestWordAccessors(t *testing.T) {
	for _, a := range []Bits{{}, FromIndexes(3), FromIndexes(0, 64, 127), FromIndexes(200)} {
		words := a.Words()
		if got := a.WordCount(); got != len(words) {
			t.Fatalf("WordCount = %d, Words len = %d", got, len(words))
		}
		for i, w := range words {
			if got := a.Word(i); got != w {
				t.Fatalf("Word(%d) = %#x, Words()[%d] = %#x", i, got, i, w)
			}
		}
		if got := a.Word(a.WordCount()); got != 0 {
			t.Fatalf("Word past count = %#x, want 0", got)
		}
	}
}

func randomBits(rng *rand.Rand, maxBit int) Bits {
	var b Bits
	n := rng.Intn(maxBit)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			b.Set(rng.Intn(maxBit))
		}
	}
	return b
}

// --- property-based tests ------------------------------------------------

// genBits adapts random uint64 words into Bits for testing/quick.
type quickBits struct {
	W []uint64
}

func (quickBits) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(4)
	w := make([]uint64, n)
	for i := range w {
		w[i] = r.Uint64() >> uint(r.Intn(64)) // vary density
	}
	return reflect.ValueOf(quickBits{W: w})
}

func TestQuickDeMorgan(t *testing.T) {
	// (a ∪ b) \ c == (a \ c) ∪ (b \ c)
	f := func(qa, qb, qc quickBits) bool {
		a, b, c := FromWords(qa.W), FromWords(qb.W), FromWords(qc.W)
		left := a.Or(b).AndNot(c)
		right := a.AndNot(c).Or(b.AndNot(c))
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndCommutativeAssociative(t *testing.T) {
	f := func(qa, qb, qc quickBits) bool {
		a, b, c := FromWords(qa.W), FromWords(qb.W), FromWords(qc.W)
		if !a.And(b).Equal(b.And(a)) {
			return false
		}
		return a.And(b.And(c)).Equal(a.And(b).And(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrIdempotentAbsorbing(t *testing.T) {
	f := func(qa, qb quickBits) bool {
		a, b := FromWords(qa.W), FromWords(qb.W)
		if !a.Or(a).Equal(a) || !a.And(a).Equal(a) {
			return false
		}
		// absorption: a ∩ (a ∪ b) == a
		return a.And(a.Or(b)).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountUnionInclusionExclusion(t *testing.T) {
	f := func(qa, qb quickBits) bool {
		a, b := FromWords(qa.W), FromWords(qb.W)
		return a.Or(b).Count() == a.Count()+b.Count()-a.And(b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndexesMatchTest(t *testing.T) {
	f := func(qa quickBits) bool {
		a := FromWords(qa.W)
		idx := a.Indexes()
		if len(idx) != a.Count() {
			return false
		}
		for _, i := range idx {
			if !a.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnd64Queries(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomBits(rng, 64)
	y := randomBits(rng, 64)
	x.Set(63)
	y.Set(63)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.Intersects(y) {
			b.Fatal("should intersect")
		}
	}
}

func BenchmarkAnd1024Queries(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomBits(rng, 1024)
	y := randomBits(rng, 1024)
	x.Set(1023)
	y.Set(1023)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.Intersects(y) {
			b.Fatal("should intersect")
		}
	}
}
