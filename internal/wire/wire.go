// Package wire is the module's one byte format: a family of Append* writers,
// one bounds-checked Reader, and the codecs of the values every layer
// shares (tuples, query-sets, window specs, predicates). Exchange batches,
// input-log records, operator snapshots, changelog tables and control blobs
// are all compositions of these, so truncation handling, allocation bounds
// and trailing-byte rejection live here and nowhere else (DESIGN.md "Wire
// format").
//
// The format is little-endian fixed-width integers and u32-length-prefixed
// sequences with no framing. Every byte is written and read by the same
// build; formats carry a leading version byte only so that state left behind
// by another build fails loudly instead of decoding into garbage.
package wire

import (
	"encoding/binary"
	"fmt"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/window"
)

// Minimum encoded sizes, for Reader.Count units.
const (
	// TupleMinSize is a tuple with an empty query-set.
	TupleMinSize = 8 + 8*event.NumFields + 8 + 8 + 1 + 4
	// SpecSize is the fixed size of a window spec.
	SpecSize = 1 + 8 + 8 + 8
	// comparisonSize is the fixed size of one predicate comparison.
	comparisonSize = 8 + 1 + 8
)

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte {
	//lint:ignore hotalloc appends into the caller's buffer; hot callers reuse or pre-size it
	return append(b, v)
}

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends an int64 as its two's-complement uint64.
func AppendI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

// AppendBool appends 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return AppendU8(b, 1)
	}
	return AppendU8(b, 0)
}

// AppendCount appends a sequence length (the prefix Reader.Count reads).
func AppendCount(b []byte, n int) []byte { return AppendU32(b, uint32(n)) }

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(b, p []byte) []byte {
	b = AppendCount(b, len(p))
	//lint:ignore hotalloc appends into the caller's buffer; hot callers reuse or pre-size it
	return append(b, p...)
}

// AppendBits appends a query-set as its significant words, count first.
func AppendBits(b []byte, bits bitset.Bits) []byte {
	n := bits.WordCount()
	b = AppendCount(b, n)
	for i := 0; i < n; i++ {
		b = AppendU64(b, bits.Word(i))
	}
	return b
}

// AppendTuple appends one tuple. This is the only tuple encoder in the
// module: exchange batches, log records and join-store snapshots share it.
func AppendTuple(b []byte, t *event.Tuple) []byte {
	b = AppendI64(b, t.Key)
	for _, f := range t.Fields {
		b = AppendI64(b, f)
	}
	b = AppendI64(b, int64(t.Time))
	b = AppendI64(b, t.IngestNanos)
	b = AppendU8(b, t.Stream)
	return AppendBits(b, t.QuerySet)
}

// ReadTuple decodes one AppendTuple encoding.
func ReadTuple(r *Reader) event.Tuple {
	var t event.Tuple
	t.Key = r.I64("tuple key")
	for i := range t.Fields {
		t.Fields[i] = r.I64("tuple field")
	}
	t.Time = event.Time(r.I64("tuple time"))
	t.IngestNanos = r.I64("tuple ingest")
	t.Stream = r.U8("tuple stream")
	t.QuerySet = r.Bits("tuple query-set")
	return t
}

// AppendSpec appends a window spec.
func AppendSpec(b []byte, s window.Spec) []byte {
	b = AppendU8(b, uint8(s.Kind))
	b = AppendI64(b, int64(s.Length))
	b = AppendI64(b, int64(s.Slide))
	return AppendI64(b, int64(s.Gap))
}

// ReadSpec decodes one AppendSpec encoding.
func ReadSpec(r *Reader) window.Spec {
	return window.Spec{
		Kind:   window.Kind(r.U8("spec kind")),
		Length: event.Time(r.I64("spec length")),
		Slide:  event.Time(r.I64("spec slide")),
		Gap:    event.Time(r.I64("spec gap")),
	}
}

// AppendPredicate appends a conjunction, comparison count first.
func AppendPredicate(b []byte, p expr.Predicate) []byte {
	b = AppendCount(b, len(p.Conj))
	for _, c := range p.Conj {
		b = AppendI64(b, int64(c.Field))
		b = AppendU8(b, uint8(c.Op))
		b = AppendI64(b, c.Value)
	}
	return b
}

// ReadPredicate decodes one AppendPredicate encoding. The empty conjunction
// decodes to expr.True() exactly (nil Conj).
func ReadPredicate(r *Reader) expr.Predicate {
	var p expr.Predicate
	n := r.Count("predicate size", comparisonSize)
	for i := 0; i < n; i++ {
		p.Conj = append(p.Conj, expr.Comparison{
			Field: int(r.I64("comparison field")),
			Op:    expr.Op(r.U8("comparison op")),
			Value: r.I64("comparison value"),
		})
	}
	return p
}

// Reader decodes the wire format. The first failure sticks: it empties the
// input, so every later read comes up short and returns zero, and decoders
// stay linear and check once, at Finish. The `what` arguments only label
// errors.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over b. Bytes handed out by Bytes alias b.
func NewReader(b []byte) *Reader {
	//lint:ignore hotalloc inlined into every decoder, where the reader does not escape and lives on the stack
	return &Reader{b: b}
}

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Fail records err as the sticky error unless one is already set. Decoders
// use it for semantic violations (bad version, inconsistent nested state)
// so those surface through the same single check as truncation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// truncated and bad build the two kinds of decode error. Both are cold by
// construction: only the first failure of a reader formats anything.
func (r *Reader) truncated(what string) {
	if r.err == nil {
		//lint:ignore hotalloc cold: formats once per reader, on corrupt input
		r.Fail(fmt.Errorf("wire: truncated reading %s", what))
	}
}

func (r *Reader) bad(what string, v uint64) {
	if r.err == nil {
		//lint:ignore hotalloc cold: formats once per reader, on corrupt input
		r.Fail(fmt.Errorf("wire: bad %s %d (corrupt, or written by another build)", what, v))
	}
}

// U8 reads one byte.
func (r *Reader) U8(what string) uint8 {
	if len(r.b) < 1 {
		r.truncated(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32(what string) uint32 {
	if len(r.b) < 4 {
		r.truncated(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64(what string) uint64 {
	if len(r.b) < 8 {
		r.truncated(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// I64 reads an int64.
func (r *Reader) I64(what string) int64 { return int64(r.U64(what)) }

// Bool reads an AppendBool byte; anything but 0 or 1 is corruption.
func (r *Reader) Bool(what string) bool {
	v := r.U8(what)
	if v > 1 {
		r.bad(what, uint64(v))
	}
	return v == 1
}

// Version reads a leading version (or magic) byte and fails unless it is
// want: state written by a build with another layout must not decode.
func (r *Reader) Version(what string, want uint8) {
	if v := r.U8(what); v != want {
		r.bad(what, uint64(v))
	}
}

// Count reads a sequence length and bounds it by the input that remains:
// each element occupies at least unit (≥ 1) bytes, so a count the remaining
// bytes cannot hold is corruption, caught before anything is allocated or
// looped over. Returns 0 once the reader has failed.
func (r *Reader) Count(what string, unit int) int {
	n := r.U32(what)
	if uint64(n)*uint64(unit) > uint64(len(r.b)) {
		r.bad(what, uint64(n))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string, aliasing the input.
func (r *Reader) Bytes(what string) []byte {
	n := r.Count(what, 1)
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Bits reads an AppendBits query-set.
func (r *Reader) Bits(what string) bitset.Bits {
	n := r.Count(what, 8)
	var inline [4]uint64 // query-sets up to 256 slots decode without a scratch allocation
	words := inline[:0]
	if n > len(inline) {
		//lint:ignore hotalloc wide query-sets only: the decoded set owns spilled words anyway
		words = make([]uint64, 0, n)
	}
	for i := 0; i < n; i++ {
		//lint:ignore hotalloc appends within the capacity reserved above
		words = append(words, r.U64(what))
	}
	return bitset.FromWords(words)
}

// Finish ends a decode: the sticky error if any, else an error if input
// remains. Unread bytes after a complete decode mean the encoder appended
// fields this build does not know, or a length was corrupted into something
// still plausible; either way ignoring them would silently drop state.
func (r *Reader) Finish(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		//lint:ignore hotalloc cold: formats once per decode, on corrupt input
		return fmt.Errorf("wire: %s has %d trailing bytes (corrupt, or written by another build)", what, len(r.b))
	}
	return nil
}
