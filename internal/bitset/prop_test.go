package bitset

import (
	"math/rand"
	"testing"
)

// spillProbe is a bit index far above every slot the property tests touch;
// setting and clearing it forces a set onto the spilled representation
// without changing its contents (trim keeps spill non-nil).
const spillProbe = 1 << 12

// forceSpill returns a semantically identical copy of b whose backing is the
// spilled []uint64 representation.
func forceSpill(t *testing.T, b Bits) Bits {
	t.Helper()
	c := b.Clone()
	c.Set(spillProbe)
	c.Clear(spillProbe)
	if c.spill == nil {
		t.Fatal("forceSpill: set did not spill")
	}
	return c
}

// randBits builds a random set. width bounds the bit indexes, so widths ≤ 64
// exercise the inline fast path and larger widths the spill path; the
// boundary itself (63, 64, 65) is hit by the callers' width choices.
func randBits(rng *rand.Rand, width int) Bits {
	var b Bits
	n := rng.Intn(width + 1)
	for i := 0; i < n; i++ {
		b.Set(rng.Intn(width))
	}
	return b
}

// agree fails unless a and b are observably identical through every query
// method, regardless of representation.
func agree(t *testing.T, ctx string, a, b Bits) {
	t.Helper()
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("%s: Equal disagrees: %s vs %s", ctx, a, b)
	}
	if a.Count() != b.Count() || a.Len() != b.Len() || a.IsEmpty() != b.IsEmpty() {
		t.Fatalf("%s: Count/Len/IsEmpty disagree: %s vs %s", ctx, a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("%s: String disagrees: %q vs %q", ctx, a, b)
	}
	for i := -1; i < 3*wordBits; i++ {
		if a.Test(i) != b.Test(i) {
			t.Fatalf("%s: Test(%d) disagrees", ctx, i)
		}
		if a.NextSet(i) != b.NextSet(i) {
			t.Fatalf("%s: NextSet(%d) disagrees: %d vs %d", ctx, i, a.NextSet(i), b.NextSet(i))
		}
	}
}

// TestPropInlineSpillMutations drives the same random mutation sequence
// through an unconstrained set (free to stay inline) and a forced-spill twin,
// checking after every step that the two representations remain observably
// identical. Indexes concentrate around the 64-bit inline boundary so
// spill-in/spill-out transitions happen constantly.
func TestPropInlineSpillMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	idx := func() int {
		// Mostly near the boundary, sometimes far beyond it.
		switch rng.Intn(4) {
		case 0:
			return 56 + rng.Intn(16) // straddles 64
		case 1:
			return rng.Intn(64)
		default:
			return rng.Intn(192)
		}
	}
	for trial := 0; trial < 100; trial++ {
		var free Bits
		spilled := forceSpill(t, Bits{})
		for step := 0; step < 150; step++ {
			other := randBits(rng, 128)
			otherSpilled := forceSpill(t, other)
			switch rng.Intn(8) {
			case 0:
				i := idx()
				free.Set(i)
				spilled.Set(i)
			case 1:
				i := idx()
				free.Clear(i)
				spilled.Clear(i)
			case 2:
				i := idx()
				v := rng.Intn(2) == 0
				free.SetTo(i, v)
				spilled.SetTo(i, v)
			case 3:
				free.AndInPlace(other)
				spilled.AndInPlace(otherSpilled)
			case 4:
				free.OrInPlace(other)
				spilled.OrInPlace(otherSpilled)
			case 5:
				free.AndNotInPlace(other)
				spilled.AndNotInPlace(otherSpilled)
			case 6:
				free.CopyFrom(other)
				spilled.CopyFrom(otherSpilled)
			case 7:
				free.Reset()
				spilled.Reset()
			}
			if spilled.spill == nil {
				t.Fatalf("trial %d step %d: forced-spill twin reverted to inline", trial, step)
			}
			agree(t, "mutation", free, spilled)
		}
	}
}

// TestPropBinaryOpsRepresentation checks every binary operation across all
// four inline/spill operand combinations: each must produce a result Equal to
// the one computed on the inline-preferred operands, and must match a
// bit-by-bit reference.
func TestPropBinaryOpsRepresentation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for trial := 0; trial < 400; trial++ {
		a := randBits(rng, widths[rng.Intn(len(widths))])
		b := randBits(rng, widths[rng.Intn(len(widths))])
		as := forceSpill(t, a)
		bs := forceSpill(t, b)

		// Bit-by-bit references.
		maxLen := a.Len()
		if b.Len() > maxLen {
			maxLen = b.Len()
		}
		var refAnd, refOr, refAndNot Bits
		refIntersects := false
		refCountAnd := 0
		for i := 0; i < maxLen; i++ {
			ta, tb := a.Test(i), b.Test(i)
			if ta && tb {
				refAnd.Set(i)
				refIntersects = true
				refCountAnd++
			}
			if ta || tb {
				refOr.Set(i)
			}
			if ta && !tb {
				refAndNot.Set(i)
			}
		}

		type pair struct {
			name string
			x, y Bits
		}
		for _, p := range []pair{
			{"inline/inline", a, b},
			{"inline/spill", a, bs},
			{"spill/inline", as, b},
			{"spill/spill", as, bs},
		} {
			if got := p.x.And(p.y); !got.Equal(refAnd) {
				t.Fatalf("%s: And = %s, want %s (a=%s b=%s)", p.name, got, refAnd, a, b)
			}
			if got := p.x.Or(p.y); !got.Equal(refOr) {
				t.Fatalf("%s: Or = %s, want %s (a=%s b=%s)", p.name, got, refOr, a, b)
			}
			if got := p.x.AndNot(p.y); !got.Equal(refAndNot) {
				t.Fatalf("%s: AndNot = %s, want %s (a=%s b=%s)", p.name, got, refAndNot, a, b)
			}
			if got := p.x.Intersects(p.y); got != refIntersects {
				t.Fatalf("%s: Intersects = %v, want %v (a=%s b=%s)", p.name, got, refIntersects, a, b)
			}
			if got := p.x.CountAnd(p.y); got != refCountAnd {
				t.Fatalf("%s: CountAnd = %d, want %d (a=%s b=%s)", p.name, got, refCountAnd, a, b)
			}
			var dst Bits
			p.x.AndInto(p.y, &dst)
			if !dst.Equal(refAnd) {
				t.Fatalf("%s: AndInto = %s, want %s", p.name, dst, refAnd)
			}
			// Reused (already spilled) destination must agree too.
			dstReused := forceSpill(t, Bits{})
			p.x.AndInto(p.y, &dstReused)
			if !dstReused.Equal(refAnd) {
				t.Fatalf("%s: AndInto(reused dst) = %s, want %s", p.name, dstReused, refAnd)
			}
		}
	}
}

// TestPropWordsRoundTrip checks FromWords(b.Words()) reproduces any set, with
// or without trailing-zero padding in the input words.
func TestPropWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		b := randBits(rng, 1+rng.Intn(200))
		if rng.Intn(2) == 0 {
			b = forceSpill(t, b)
		}
		w := b.Words()
		if !FromWords(w).Equal(b) {
			t.Fatalf("FromWords(Words) != original for %s", b)
		}
		padded := append(append([]uint64{}, w...), 0, 0, 0)
		if !FromWords(padded).Equal(b) {
			t.Fatalf("FromWords(padded Words) != original for %s", b)
		}
		if s, ok := Parse(b.String()); !ok || !s.Equal(b) {
			t.Fatalf("Parse(String) != original for %s", b)
		}
	}
}
