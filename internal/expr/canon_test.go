package expr

import (
	"math"
	"math/rand"
	"testing"

	"astream/internal/event"
)

// randPredicate draws a conjunction of 0..4 comparisons with valid fields.
// Values cluster in a small domain so contradictions, redundancy, and exact
// endpoint collisions actually occur.
func randPredicate(r *rand.Rand) Predicate {
	p := True()
	n := r.Intn(5)
	for i := 0; i < n; i++ {
		field := r.Intn(event.NumFields+1) - 1 // KeyField..NumFields-1
		p = p.And(Comparison{
			Field: field,
			Op:    Op(r.Intn(6)),
			Value: int64(r.Intn(20)),
		})
	}
	return p
}

func randTuple(r *rand.Rand) event.Tuple {
	t := event.Tuple{Key: int64(r.Intn(20))}
	for f := range t.Fields {
		t.Fields[f] = int64(r.Intn(20))
	}
	return t
}

// TestCanonicalMatchAgreesWithEval is the core soundness property: for every
// canonicalizable predicate, Match on the canonical form and naive Eval
// accept exactly the same tuples.
func TestCanonicalMatchAgreesWithEval(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		p := randPredicate(r)
		c, err := Canonicalize(p)
		if err != nil {
			t.Fatalf("Canonicalize(%v): %v", p, err)
		}
		for i := 0; i < 20; i++ {
			tu := randTuple(r)
			want := p.Eval(&tu)
			got := c.Match(&tu)
			if got != want {
				t.Fatalf("predicate %v canon %v tuple %+v: Match=%v Eval=%v",
					p, c, tu, got, want)
			}
			if c.False && want {
				t.Fatalf("predicate %v canonicalized False but Eval matched %+v", p, tu)
			}
		}
	}
}

// TestCanonicalizeRejectsInvalidField: out-of-range fields are the one class
// the index must leave on the guarded path, so Canonicalize must refuse them
// no matter where they sit in the conjunction.
func TestCanonicalizeRejectsInvalidField(t *testing.T) {
	bad := []Predicate{
		True().And(Comparison{Field: event.NumFields, Op: LT, Value: 5}),
		True().And(Comparison{Field: -2, Op: EQ, Value: 5}),
		// Invalid field behind a contradiction: still rejected — naive eval
		// could panic on tuples that reach it.
		True().
			And(Comparison{Field: 0, Op: LT, Value: 3}).
			And(Comparison{Field: 0, Op: GT, Value: 5}).
			And(Comparison{Field: 99, Op: LT, Value: 5}),
	}
	for _, p := range bad {
		if _, err := Canonicalize(p); err == nil {
			t.Errorf("Canonicalize(%v): want error, got nil", p)
		}
	}
}

func mustCanon(t *testing.T, p Predicate) Canonical {
	t.Helper()
	c, err := Canonicalize(p)
	if err != nil {
		t.Fatalf("Canonicalize(%v): %v", p, err)
	}
	return c
}

// TestCanonicalizeNormalization checks the normal form directly: redundancy
// merged, contradictions collapsed, endpoint holes trimmed.
func TestCanonicalizeNormalization(t *testing.T) {
	// A > 5 AND A > 3 → A ∈ [6, ∞].
	c := mustCanon(t, True().
		And(Comparison{Field: 0, Op: GT, Value: 5}).
		And(Comparison{Field: 0, Op: GT, Value: 3}))
	if len(c.Constraints) != 1 || c.Constraints[0].Iv.Lo != 6 || c.Constraints[0].Iv.Hi != math.MaxInt64 {
		t.Fatalf("A>5 AND A>3 → %v", c)
	}
	// A > 5 AND A < 3 → False.
	if c := mustCanon(t, True().
		And(Comparison{Field: 0, Op: GT, Value: 5}).
		And(Comparison{Field: 0, Op: LT, Value: 3})); !c.False {
		t.Fatalf("A>5 AND A<3 → %v, want False", c)
	}
	// A < MinInt64 is unsatisfiable.
	if c := mustCanon(t, True().And(Comparison{Field: 0, Op: LT, Value: math.MinInt64})); !c.False {
		t.Fatalf("A < MinInt64 → %v, want False", c)
	}
	// Unknown op never matches under Op.Compare → False.
	if c := mustCanon(t, True().And(Comparison{Field: 0, Op: Op(99), Value: 5})); !c.False {
		t.Fatalf("unknown op → %v, want False", c)
	}
	// A >= 5 AND A <= 9 AND A != 5 AND A != 9 AND A != 7 → [6,8] \ {7}.
	c = mustCanon(t, True().
		And(Comparison{Field: 0, Op: GE, Value: 5}).
		And(Comparison{Field: 0, Op: LE, Value: 9}).
		And(Comparison{Field: 0, Op: NE, Value: 5}).
		And(Comparison{Field: 0, Op: NE, Value: 9}).
		And(Comparison{Field: 0, Op: NE, Value: 7}))
	fc := c.Constraints[0]
	if fc.Iv != (Interval{6, 8}) || len(fc.Holes) != 1 || fc.Holes[0] != 7 {
		t.Fatalf("holes at endpoints → %v", c)
	}
	// A == 5 AND A != 5 → False (hole consumes the point interval).
	if c := mustCanon(t, True().
		And(Comparison{Field: 0, Op: EQ, Value: 5}).
		And(Comparison{Field: 0, Op: NE, Value: 5})); !c.False {
		t.Fatalf("A==5 AND A!=5 → %v, want False", c)
	}
	// A != 5 alone: domain-wide interval with a hole is kept, not dropped.
	c = mustCanon(t, True().And(Comparison{Field: 0, Op: NE, Value: 5}))
	if len(c.Constraints) != 1 || len(c.Constraints[0].Holes) != 1 {
		t.Fatalf("A!=5 → %v", c)
	}
	// TRUE canonicalizes to the empty constraint list.
	if c := mustCanon(t, True()); !c.AlwaysTrue() {
		t.Fatalf("TRUE → %v", c)
	}
	// KeyField sorts first.
	c = mustCanon(t, True().
		And(Comparison{Field: 2, Op: LT, Value: 9}).
		And(Comparison{Field: KeyField, Op: GT, Value: 1}))
	if c.Constraints[0].Field != KeyField || c.Constraints[1].Field != 2 {
		t.Fatalf("field order → %v", c)
	}
}

// TestAppendKeyEquivalence: equal keys ⇔ structurally equal canonical forms,
// and semantically equal predicates written differently converge to one key.
func TestAppendKeyEquivalence(t *testing.T) {
	key := func(p Predicate) string {
		c := mustCanon(t, p)
		return string(c.AppendKey(nil))
	}
	// A > 5 ≡ A >= 6 ≡ A > 5 AND A > 3.
	k1 := key(True().And(Comparison{Field: 1, Op: GT, Value: 5}))
	k2 := key(True().And(Comparison{Field: 1, Op: GE, Value: 6}))
	k3 := key(True().
		And(Comparison{Field: 1, Op: GT, Value: 5}).
		And(Comparison{Field: 1, Op: GT, Value: 3}))
	if k1 != k2 || k1 != k3 {
		t.Fatalf("equivalent predicates got distinct keys")
	}
	if key(True().And(Comparison{Field: 1, Op: GT, Value: 6})) == k1 {
		t.Fatalf("distinct predicates share a key")
	}
	// Conjunct order doesn't matter.
	ka := key(True().
		And(Comparison{Field: 0, Op: LT, Value: 9}).
		And(Comparison{Field: 3, Op: GE, Value: 2}))
	kb := key(True().
		And(Comparison{Field: 3, Op: GE, Value: 2}).
		And(Comparison{Field: 0, Op: LT, Value: 9}))
	if ka != kb {
		t.Fatalf("conjunct order changed the key")
	}
	// Property: equal keys imply identical acceptance on random samples.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		p1, p2 := randPredicate(r), randPredicate(r)
		c1, c2 := mustCanon(t, p1), mustCanon(t, p2)
		if string(c1.AppendKey(nil)) != string(c2.AppendKey(nil)) {
			continue
		}
		for i := 0; i < 50; i++ {
			tu := randTuple(r)
			if p1.Eval(&tu) != p2.Eval(&tu) {
				t.Fatalf("key-equal predicates disagree: %v vs %v on %+v", p1, p2, tu)
			}
		}
	}
}

// TestConstraintSelectivity sanity-checks the estimate the index picks a
// conjunction's access constraint by.
func TestConstraintSelectivity(t *testing.T) {
	sel := func(p Predicate) float64 {
		c := mustCanon(t, p)
		return c.Constraints[0].Selectivity(1000)
	}
	wide := sel(True().And(Comparison{Field: 0, Op: LT, Value: 900}))
	narrow := sel(True().And(Comparison{Field: 0, Op: LT, Value: 100}))
	if wide != 0.9 || narrow != 0.1 {
		t.Fatalf("F0<900 estimates %v, F0<100 estimates %v; want 0.9, 0.1", wide, narrow)
	}
	if got := sel(True().And(Comparison{Field: 1, Op: GE, Value: 2000})); got != 0 {
		t.Fatalf("interval outside the domain estimates %v, want 0", got)
	}
	holed := sel(True().
		And(Comparison{Field: 0, Op: LT, Value: 100}).
		And(Comparison{Field: 0, Op: NE, Value: 50}))
	if holed != 0.099 {
		t.Fatalf("F0<100 minus one hole estimates %v, want 0.099", holed)
	}
}
