// Package wiretest holds the two properties every decoder fuzz target in the
// module asserts besides "no panic": decoding must not allocate more than a
// small multiple of its input, i.e. no length prefix is trusted before
// wire.Reader.Count has bounded it; and a decoder that has a paired encoder
// accepts only what that encoder writes.
package wiretest

import (
	"bytes"
	"runtime"
	"testing"
)

// Allocated reports the bytes the process allocated while fn ran. The
// counter is process-wide: the fuzz engine's own goroutines show up in it.
func Allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Limit is the allocation a decode of in may cause: 64 bytes per input byte
// plus fixed slack for the rest of the process. A count trusted before it is
// bounded overshoots this by orders of magnitude.
func Limit(in []byte) uint64 { return uint64(64*len(in) + 256<<10) }

// Bounded runs decode over in and fails t if it allocated more than Limit.
func Bounded(t *testing.T, in []byte, decode func()) {
	t.Helper()
	if got, limit := Allocated(decode), Limit(in); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(in), got, limit)
	}
}

// Canonical fails t unless out, the encoder's bytes for the state a decoder
// built from in, are in itself: accepted input must mean exactly what the
// encoder would have written. The one allowance is a query-set written with
// trailing zero words, which decodes to the same set and re-encodes shorter.
func Canonical(t *testing.T, in, out []byte) {
	t.Helper()
	if !bytes.Equal(in, out) && len(out) >= len(in) {
		t.Fatalf("accepted input re-encodes differently:\n in %x\nout %x", in, out)
	}
}
