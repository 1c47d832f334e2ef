// Package wiretest holds the one property every decoder fuzz target in the
// module asserts besides "no panic": decoding must not allocate more than a
// small multiple of its input, i.e. no length prefix is trusted before
// wire.Reader.Count has bounded it.
package wiretest

import (
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
