// Package bitset implements the dynamic bitsets that carry AStream's
// query-sets and changelog-sets (paper §2.1).
//
// A query-set records, for one tuple, which of the currently-registered
// queries are interested in it: bit i is set when the query occupying slot i
// selects the tuple. A changelog-set records which slots survived a workload
// change: bit i is set when slot i holds the same query on both sides of the
// change. Both are plain bit vectors; all shared-operator decisions reduce to
// word-parallel AND/OR operations on them.
//
// # Representation
//
// Bits is a value type with a small-set fast path: sets confined to slots
// [0,64) — every benchmark grid in the paper's evaluation — live in one
// inline uint64 and never touch the heap. Larger sets spill to a []uint64.
// The hot-path operations (And, Or, Intersects, Test, Key) are
// allocation-free on the inline representation, and the *Into/*InPlace
// variants reuse a caller-owned spill so even wide sets stay allocation-free
// in steady state.
//
// The zero value is an empty set. Mutating methods have pointer receivers
// and grow the backing storage on demand; query methods tolerate any length
// difference by treating missing words as zero. Observers never depend on a
// canonical backing length: a spilled set whose high words are zero compares
// Equal (and produces the same Key) as its inline twin.
package bitset

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Bits is a variable-length bit vector. The zero value is empty and ready to
// use.
//
// Invariant: when spill is non-nil it holds every word of the set
// (least-significant first) and small is zero; when spill is nil the set is
// exactly the 64 bits of small.
type Bits struct {
	small uint64
	spill []uint64
}

// New returns a set with capacity for at least n bits pre-allocated. The set
// is empty; n only sizes the backing storage.
func New(n int) Bits {
	if n <= wordBits {
		return Bits{}
	}
	return Bits{spill: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromWords constructs a set from raw 64-bit words, least-significant word
// first. The slice is copied.
func FromWords(words []uint64) Bits {
	n := len(words)
	for n > 0 && words[n-1] == 0 {
		n--
	}
	if n <= 1 {
		var w uint64
		if n == 1 {
			w = words[0]
		}
		return Bits{small: w}
	}
	// wide sets only: a set beyond 64 slots owns a spilled backing by design
	b := Bits{spill: make([]uint64, n)}
	copy(b.spill, words)
	return b
}

// View returns the set whose words are words, least-significant first,
// without copying: the set shares the slice. It is for read-only sets laid
// out in a caller-owned arena; mutating one writes through to the arena.
func View(words []uint64) Bits {
	if len(words) == 0 {
		return Bits{}
	}
	return Bits{spill: words}
}

// FromIndexes returns a set with exactly the given bits set.
func FromIndexes(idx ...int) Bits {
	var b Bits
	for _, i := range idx {
		b.Set(i)
	}
	return b
}

// nwords returns the number of backing words (not trimmed).
func (b *Bits) nwords() int {
	if b.spill != nil {
		return len(b.spill)
	}
	if b.small != 0 {
		return 1
	}
	return 0
}

// word returns backing word i, reading past the end as zero.
func (b *Bits) word(i int) uint64 {
	if b.spill != nil {
		if i < len(b.spill) {
			return b.spill[i]
		}
		return 0
	}
	if i == 0 {
		return b.small
	}
	return 0
}

// sigWords returns the significant word count (trailing zero words ignored).
func (b *Bits) sigWords() int {
	if b.spill != nil {
		n := len(b.spill)
		for n > 0 && b.spill[n-1] == 0 {
			n--
		}
		return n
	}
	if b.small != 0 {
		return 1
	}
	return 0
}

// spillOut moves an inline set to a spilled backing of at least words words,
// reusing any existing capacity.
func (b *Bits) spillOut(words int) {
	if b.spill != nil {
		if len(b.spill) >= words {
			return
		}
		if cap(b.spill) >= words {
			old := len(b.spill)
			b.spill = b.spill[:words]
			for i := old; i < words; i++ {
				b.spill[i] = 0
			}
			return
		}
		// one-time spill growth; steady state reuses the spill capacity
		nw := make([]uint64, words)
		copy(nw, b.spill)
		b.spill = nw
		return
	}
	// one-time inline-to-spill transition; steady state stays inline or reuses the spill
	nw := make([]uint64, words)
	nw[0] = b.small
	b.small = 0
	b.spill = nw
}

// trim drops trailing zero words of a spilled backing (capacity retained).
func (b *Bits) trim() {
	if b.spill == nil {
		return
	}
	n := len(b.spill)
	for n > 0 && b.spill[n-1] == 0 {
		n--
	}
	b.spill = b.spill[:n]
}

// Words returns a copy of the backing words, least-significant first, with
// trailing zero words removed.
func (b Bits) Words() []uint64 {
	n := b.sigWords()
	w := make([]uint64, n)
	for i := 0; i < n; i++ {
		w[i] = b.word(i)
	}
	return w
}

// WordCount returns the number of significant backing words (trailing zero
// words ignored) — the length Words() would return, without the copy.
func (b Bits) WordCount() int { return b.sigWords() }

// Word returns the i-th backing word, least-significant first; indexes at or
// beyond WordCount() return zero. With WordCount this lets encoders walk the
// set without the per-call allocation Words() pays for its copy.
func (b Bits) Word(i int) uint64 { return b.word(i) }

// Set sets bit i. Negative indexes panic.
func (b *Bits) Set(i int) {
	if i < 0 {
		panic("bitset: negative index")
	}
	if b.spill == nil && i < wordBits {
		b.small |= 1 << uint(i)
		return
	}
	w := i / wordBits
	b.spillOut(w + 1)
	b.spill[w] |= 1 << uint(i%wordBits)
}

// Clear clears bit i. Clearing a bit beyond the current length is a no-op.
func (b *Bits) Clear(i int) {
	if i < 0 {
		panic("bitset: negative index")
	}
	if b.spill == nil {
		if i < wordBits {
			b.small &^= 1 << uint(i)
		}
		return
	}
	w := i / wordBits
	if w >= len(b.spill) {
		return
	}
	b.spill[w] &^= 1 << uint(i%wordBits)
	b.trim()
}

// SetTo sets bit i to v.
func (b *Bits) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Test reports whether bit i is set. Out-of-range bits read as false.
func (b Bits) Test(i int) bool {
	if i < 0 {
		return false
	}
	if b.spill == nil {
		return i < wordBits && b.small&(1<<uint(i)) != 0
	}
	w := i / wordBits
	if w >= len(b.spill) {
		return false
	}
	return b.spill[w]&(1<<uint(i%wordBits)) != 0
}

// IsEmpty reports whether no bit is set.
func (b Bits) IsEmpty() bool {
	if b.spill == nil {
		return b.small == 0
	}
	for _, w := range b.spill {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	if b.spill == nil {
		return bits.OnesCount64(b.small)
	}
	n := 0
	for _, w := range b.spill {
		n += bits.OnesCount64(w)
	}
	return n
}

// Len returns one past the index of the highest set bit, or 0 for an empty
// set.
func (b Bits) Len() int {
	for i := b.nwords() - 1; i >= 0; i-- {
		if w := b.word(i); w != 0 {
			return i*wordBits + bits.Len64(w)
		}
	}
	return 0
}

// Clone returns an independent copy. Inline and single-significant-word sets
// clone without allocating.
func (b Bits) Clone() Bits {
	n := b.sigWords()
	if n <= 1 {
		return Bits{small: b.word(0)}
	}
	out := Bits{spill: make([]uint64, n)}
	copy(out.spill, b.spill)
	return out
}

// CopyFrom replaces b's contents with o's, reusing b's spill capacity. This
// is the scratch-bitset primitive: a long-lived scratch CopyFrom'd per
// operation never allocates once its spill has grown to the workload's width.
func (b *Bits) CopyFrom(o Bits) {
	n := o.sigWords()
	if n <= 1 {
		if b.spill != nil {
			b.spill = b.spill[:0]
			// Keep the spilled representation (capacity retained) but use
			// word 0 via spill so the invariant "spill non-nil => small
			// unused" holds.
			if n == 1 {
				// appends into retained spill capacity (len 0 -> 1); never grows
				b.spill = append(b.spill, o.word(0))
			}
			return
		}
		b.small = o.word(0)
		return
	}
	if b.spill == nil || cap(b.spill) < n {
		b.spill = make([]uint64, n)
	} else {
		b.spill = b.spill[:n]
	}
	b.small = 0
	copy(b.spill, o.spill[:n])
}

// Reset clears every bit while retaining the backing storage.
func (b *Bits) Reset() {
	b.small = 0
	if b.spill != nil {
		b.spill = b.spill[:0]
	}
}

// Equal reports whether b and o contain the same bits, regardless of backing
// length or representation.
func (b Bits) Equal(o Bits) bool {
	if b.spill == nil && o.spill == nil {
		return b.small == o.small
	}
	n := b.nwords()
	if m := o.nwords(); m > n {
		n = m
	}
	for i := 0; i < n; i++ {
		if b.word(i) != o.word(i) {
			return false
		}
	}
	return true
}

// And returns the intersection b ∩ o. This is the core query-set operation:
// two tuples are joined only when their query-sets intersect (paper §2.1.1).
// When either operand fits one word the result is inline and no allocation
// happens.
func (b Bits) And(o Bits) Bits {
	if b.spill == nil || o.spill == nil {
		return Bits{small: b.word(0) & o.word(0)}
	}
	n := len(b.spill)
	if len(o.spill) < n {
		n = len(o.spill)
	}
	for n > 0 && b.spill[n-1]&o.spill[n-1] == 0 {
		n--
	}
	if n <= 1 {
		return Bits{small: b.word(0) & o.word(0)}
	}
	out := Bits{spill: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.spill[i] = b.spill[i] & o.spill[i]
	}
	return out
}

// AndInPlace replaces b with b ∩ o, avoiding allocation.
func (b *Bits) AndInPlace(o Bits) {
	if b.spill == nil {
		b.small &= o.word(0)
		return
	}
	n := len(b.spill)
	if m := o.nwords(); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		b.spill[i] &= o.word(i)
	}
	for i := n; i < len(b.spill); i++ {
		b.spill[i] = 0
	}
	b.trim()
}

// AndInto stores b ∩ o into dst, reusing dst's backing. dst must not alias
// b or o's spill.
func (b Bits) AndInto(o Bits, dst *Bits) {
	dst.CopyFrom(b)
	dst.AndInPlace(o)
}

// Or returns the union b ∪ o.
func (b Bits) Or(o Bits) Bits {
	if b.spill == nil && o.spill == nil {
		return Bits{small: b.small | o.small}
	}
	n := b.sigWords()
	if m := o.sigWords(); m > n {
		n = m
	}
	if n <= 1 {
		return Bits{small: b.word(0) | o.word(0)}
	}
	out := Bits{spill: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.spill[i] = b.word(i) | o.word(i)
	}
	return out
}

// OrInPlace replaces b with b ∪ o.
func (b *Bits) OrInPlace(o Bits) {
	n := o.sigWords()
	if b.spill == nil && n <= 1 {
		b.small |= o.word(0)
		return
	}
	if n > b.nwords() {
		b.spillOut(n)
	}
	for i := 0; i < n; i++ {
		b.spill[i] |= o.word(i)
	}
}

// AndNot returns b \ o.
func (b Bits) AndNot(o Bits) Bits {
	n := b.sigWords()
	if n <= 1 {
		return Bits{small: b.word(0) &^ o.word(0)}
	}
	out := Bits{spill: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.spill[i] = b.spill[i] &^ o.word(i)
	}
	out.trim()
	if len(out.spill) <= 1 {
		return Bits{small: out.word(0)}
	}
	return out
}

// AndNotInPlace replaces b with b \ o.
func (b *Bits) AndNotInPlace(o Bits) {
	if b.spill == nil {
		b.small &^= o.word(0)
		return
	}
	for i := range b.spill {
		b.spill[i] &^= o.word(i)
	}
	b.trim()
}

// Intersects reports whether b ∩ o is non-empty without materialising the
// intersection. Shared operators use this as the cheap "do these tuples share
// at least one query?" test.
func (b Bits) Intersects(o Bits) bool {
	if b.spill == nil || o.spill == nil {
		return b.word(0)&o.word(0) != 0
	}
	n := len(b.spill)
	if len(o.spill) < n {
		n = len(o.spill)
	}
	for i := 0; i < n; i++ {
		if b.spill[i]&o.spill[i] != 0 {
			return true
		}
	}
	return false
}

// CountAnd returns |b ∩ o| without materialising the intersection.
func (b Bits) CountAnd(o Bits) int {
	if b.spill == nil || o.spill == nil {
		return bits.OnesCount64(b.word(0) & o.word(0))
	}
	n := len(b.spill)
	if len(o.spill) < n {
		n = len(o.spill)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(b.spill[i] & o.spill[i])
	}
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1 when no
// such bit exists.
func (b Bits) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	w := i / wordBits
	n := b.nwords()
	if w >= n {
		return -1
	}
	word := b.word(w) >> uint(i%wordBits)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < n; w++ {
		if bw := b.word(w); bw != 0 {
			return w*wordBits + bits.TrailingZeros64(bw)
		}
	}
	return -1
}

// ForEach calls fn for every set bit in ascending order. fn returning false
// stops the iteration.
func (b Bits) ForEach(fn func(i int) bool) {
	n := b.nwords()
	for wi := 0; wi < n; wi++ {
		w := b.word(wi)
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Indexes returns the set bit positions in ascending order.
func (b Bits) Indexes() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Key is a comparable, canonical identity of a bit set, usable directly as a
// map key. Single-word sets (the common case: ≤64 query slots) are carried
// in W with S empty — computing such a key allocates nothing. Wider sets
// carry their little-endian word bytes in S with W zero; the two forms can
// never collide because S is only used when at least two words are
// significant. Two sets have equal Keys iff Equal reports true.
type Key struct {
	W uint64
	S string
}

// Less orders keys: single-word keys first by word value, then multi-word
// keys by byte string. Any fixed total order works for the determinism
// contract; this one is cheap.
func (k Key) Less(o Key) bool {
	if (k.S == "") != (o.S == "") {
		return k.S == ""
	}
	if k.S == "" {
		return k.W < o.W
	}
	return k.S < o.S
}

// Key returns the set's canonical comparable key. Allocation-free for sets
// confined to one significant word; wider sets build a string (use KeyWord +
// AppendKeyBytes for allocation-free lookups against wide sets).
func (b Bits) Key() Key {
	if w, ok := b.KeyWord(); ok {
		return Key{W: w}
	}
	return Key{S: string(b.AppendKeyBytes(nil))}
}

// KeyWord returns the single-word key and true when the set has at most one
// significant word (allocation-free), or (0, false) when the set is wider.
func (b Bits) KeyWord() (uint64, bool) {
	if b.spill == nil {
		return b.small, true
	}
	n := b.sigWords()
	if n <= 1 {
		return b.word(0), true
	}
	return 0, false
}

// AppendKeyBytes appends the canonical multi-word key encoding (significant
// words, little-endian) to dst and returns it. Only meaningful when KeyWord
// reported false; callers use it with dst scratch for allocation-free
// map[string] lookups via the compiler's m[string(buf)] optimization.
func (b Bits) AppendKeyBytes(dst []byte) []byte {
	n := b.sigWords()
	for i := 0; i < n; i++ {
		w := b.word(i)
		// appends into caller-owned scratch; grows only until the scratch fits the widest set
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// String renders the set in the paper's convention: slot 0 (query index 1)
// leftmost. An empty set renders as "0".
func (b Bits) String() string {
	n := b.Len()
	if n == 0 {
		return "0"
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if b.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse parses the String representation (slot 0 leftmost). Characters other
// than '0' and '1' are rejected.
func Parse(s string) (Bits, bool) {
	var b Bits
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			b.Set(i)
		case '0':
		default:
			return Bits{}, false
		}
	}
	return b, true
}

// AllUpTo returns a set with bits [0,n) all set. Changelog-sets start from
// this "everything unchanged" state before deletions and reuses unset bits.
func AllUpTo(n int) Bits {
	if n <= 0 {
		return Bits{}
	}
	if n <= wordBits {
		return Bits{small: ^uint64(0) >> uint(wordBits-n)}
	}
	b := Bits{spill: make([]uint64, (n+wordBits-1)/wordBits)}
	for w := 0; w < n/wordBits; w++ {
		b.spill[w] = ^uint64(0)
	}
	if rem := n % wordBits; rem > 0 {
		b.spill[n/wordBits] = (1 << uint(rem)) - 1
	}
	return b
}
