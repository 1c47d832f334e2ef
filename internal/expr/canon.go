package expr

import (
	"fmt"
	"math"
	"sort"

	"astream/internal/event"
)

// This file lowers predicates (conjunctions of comparisons) into a canonical
// per-field interval form. The canonical form is what makes multi-query
// optimization of the shared selection possible: structurally equal
// predicates become byte-equal keys (dedup), and every conjunction becomes
// dispatchable on one of its per-field intervals (hash/stab indexes) with the
// rest checked by Match. The integer field domain means every comparison is
// an interval: f < v is f ∈ [MinInt64, v-1], f == v is f ∈ [v, v], and so on;
// a conjunction intersects the per-field intervals. NE comparisons become
// "holes" — excluded points strictly inside the interval (holes touching an
// endpoint tighten the endpoint instead, so the representation is unique).

// Interval is a closed integer interval [Lo, Hi]. Lo > Hi never occurs in a
// canonical constraint (such predicates canonicalize to False).
type Interval struct {
	Lo, Hi int64
}

// Unbounded reports whether the interval covers the whole int64 domain.
func (iv Interval) Unbounded() bool {
	return iv.Lo == math.MinInt64 && iv.Hi == math.MaxInt64
}

// FieldConstraint restricts one tuple column to an interval minus holes.
type FieldConstraint struct {
	// Field is the payload field index, or KeyField for the tuple key.
	Field int
	Iv    Interval
	// Holes are excluded points, sorted ascending, each strictly inside
	// (Lo, Hi). Only NE comparisons produce holes; the paper's templates
	// never do.
	Holes []int64
}

// Canonical is the normal form of a conjunction of comparisons: one
// constraint per referenced field, sorted by field index (KeyField first),
// with redundant comparisons merged and contradictions collapsed into False.
// Two predicates accept the same tuples on every field they constrain iff
// their Canonicals are structurally equal (compare via AppendKey).
type Canonical struct {
	// Constraints is sorted by Field; fields whose accumulated interval is
	// the whole domain with no holes are dropped entirely.
	Constraints []FieldConstraint
	// False marks a contradictory conjunction (A > 5 AND A < 3): no tuple
	// matches, so the predicate can be excluded from evaluation.
	False bool
}

// AlwaysTrue reports whether the canonical form accepts every tuple.
func (c *Canonical) AlwaysTrue() bool { return !c.False && len(c.Constraints) == 0 }

// Canonicalize lowers a predicate into canonical interval form. It fails
// only when a comparison references a field outside the tuple layout — such
// predicates can panic during naive evaluation (data-dependently, when an
// earlier conjunct does not short-circuit first), so callers must keep them
// on a guarded per-entry path instead of the index.
func Canonicalize(p Predicate) (Canonical, error) {
	// Accumulator slot 0 is KeyField, slot f+1 is payload field f.
	type acc struct {
		iv    Interval
		holes []int64
		used  bool
	}
	var accs [event.NumFields + 1]acc
	alwaysFalse := false
	for _, cmp := range p.Conj {
		if err := cmp.Validate(); err != nil {
			return Canonical{}, err
		}
		a := &accs[cmp.Field+1]
		if !a.used {
			a.iv = Interval{Lo: math.MinInt64, Hi: math.MaxInt64}
			a.used = true
		}
		switch cmp.Op {
		case LT:
			if cmp.Value == math.MinInt64 {
				alwaysFalse = true
			} else if cmp.Value-1 < a.iv.Hi {
				a.iv.Hi = cmp.Value - 1
			}
		case LE:
			if cmp.Value < a.iv.Hi {
				a.iv.Hi = cmp.Value
			}
		case GT:
			if cmp.Value == math.MaxInt64 {
				alwaysFalse = true
			} else if cmp.Value+1 > a.iv.Lo {
				a.iv.Lo = cmp.Value + 1
			}
		case GE:
			if cmp.Value > a.iv.Lo {
				a.iv.Lo = cmp.Value
			}
		case EQ:
			if cmp.Value > a.iv.Lo {
				a.iv.Lo = cmp.Value
			}
			if cmp.Value < a.iv.Hi {
				a.iv.Hi = cmp.Value
			}
		case NE:
			a.holes = append(a.holes, cmp.Value)
		default:
			// Op.Compare returns false for unknown operators, so the naive
			// evaluation of such a predicate matches nothing: exactly False.
			alwaysFalse = true
		}
	}
	if alwaysFalse {
		return Canonical{False: true}, nil
	}
	var out Canonical
	for slot := range accs {
		a := &accs[slot]
		if !a.used {
			continue
		}
		fc, empty := normalizeConstraint(slot-1, a.iv, a.holes)
		if empty {
			return Canonical{False: true}, nil
		}
		if fc.Iv.Unbounded() && len(fc.Holes) == 0 {
			continue // unconstrained after normalization
		}
		out.Constraints = append(out.Constraints, fc)
	}
	return out, nil
}

// normalizeConstraint produces the unique form of one field's constraint:
// holes are sorted and deduplicated, holes at or beyond an endpoint tighten
// the endpoint (over the integer domain [5,9] minus {5} is [6,9]), and an
// interval consumed entirely by holes reports empty.
func normalizeConstraint(field int, iv Interval, holes []int64) (FieldConstraint, bool) {
	if iv.Lo > iv.Hi {
		return FieldConstraint{}, true
	}
	if len(holes) == 0 {
		return FieldConstraint{Field: field, Iv: iv}, false
	}
	sort.Slice(holes, func(i, j int) bool { return holes[i] < holes[j] })
	dst := holes[:0]
	for i, h := range holes {
		if i == 0 || h != dst[len(dst)-1] {
			dst = append(dst, h)
		}
	}
	holes = dst
	// Trim the lower endpoint past any run of holes starting at Lo.
	i := 0
	for i < len(holes) && holes[i] < iv.Lo {
		i++
	}
	for i < len(holes) && holes[i] == iv.Lo {
		if iv.Lo == iv.Hi {
			return FieldConstraint{}, true
		}
		iv.Lo++
		i++
	}
	// Trim the upper endpoint past any run of holes ending at Hi.
	j := len(holes)
	for j > i && holes[j-1] > iv.Hi {
		j--
	}
	for j > i && holes[j-1] == iv.Hi {
		if iv.Lo == iv.Hi {
			return FieldConstraint{}, true
		}
		iv.Hi--
		j--
	}
	kept := holes[i:j]
	if len(kept) == 0 {
		kept = nil
	}
	return FieldConstraint{Field: field, Iv: iv, Holes: kept}, false
}

// Match evaluates the canonical form against a tuple. For canonicalizable
// predicates Match(t) == Predicate.Eval(t) for every tuple (the agreement is
// property-tested); unlike Eval it cannot panic, which is what lets the
// shared-selection index evaluate deduplicated predicates outside the
// per-entry panic isolation boundary.
func (c *Canonical) Match(t *event.Tuple) bool {
	if c.False {
		return false
	}
	for i := range c.Constraints {
		fc := &c.Constraints[i]
		var v int64
		if fc.Field == KeyField {
			v = t.Key
		} else {
			v = t.Fields[fc.Field]
		}
		if v < fc.Iv.Lo || v > fc.Iv.Hi {
			return false
		}
		for _, h := range fc.Holes {
			if h >= v {
				if h == v {
					return false
				}
				break
			}
		}
	}
	return true
}

// AppendKey appends a canonical byte encoding to dst and returns it. Two
// predicates have equal keys iff their canonical forms are structurally
// equal, so string(c.AppendKey(nil)) is the dedup map key. The encoding is
// length-unambiguous: a constraint count, then per constraint the field,
// endpoints, hole count, and holes, all fixed-width little-endian.
func (c *Canonical) AppendKey(dst []byte) []byte {
	if c.False {
		return append(dst, 0xFF)
	}
	dst = append(dst, byte(len(c.Constraints)))
	for i := range c.Constraints {
		fc := &c.Constraints[i]
		dst = appendI64(dst, int64(fc.Field))
		dst = appendI64(dst, fc.Iv.Lo)
		dst = appendI64(dst, fc.Iv.Hi)
		dst = appendI64(dst, int64(len(fc.Holes)))
		for _, h := range fc.Holes {
			dst = appendI64(dst, h)
		}
	}
	return dst
}

func appendI64(dst []byte, v int64) []byte {
	u := uint64(v)
	return append(dst,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// Selectivity estimates the fraction of values uniform over [0, fieldMax)
// that the constraint accepts. The shared-selection index dispatches a
// conjunction on the constraint with the smallest estimate.
func (fc *FieldConstraint) Selectivity(fieldMax int64) float64 {
	lo, hi := fc.Iv.Lo, fc.Iv.Hi
	if lo < 0 {
		lo = 0
	}
	if hi > fieldMax-1 {
		hi = fieldMax - 1
	}
	if lo > hi {
		return 0
	}
	width := float64(hi - lo + 1)
	for _, h := range fc.Holes {
		if h >= lo && h <= hi {
			width--
		}
	}
	return width / float64(fieldMax)
}

func (c Canonical) String() string {
	if c.False {
		return "FALSE"
	}
	if len(c.Constraints) == 0 {
		return "TRUE"
	}
	s := ""
	for i := range c.Constraints {
		fc := &c.Constraints[i]
		if i > 0 {
			s += " AND "
		}
		name := fmt.Sprintf("f%d", fc.Field)
		if fc.Field == KeyField {
			name = "key"
		}
		s += fmt.Sprintf("%s∈[%d,%d]", name, fc.Iv.Lo, fc.Iv.Hi)
		if len(fc.Holes) > 0 {
			s += fmt.Sprintf("\\%v", fc.Holes)
		}
	}
	return s
}
