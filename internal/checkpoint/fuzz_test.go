package checkpoint

import (
	"testing"

	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/wire/wiretest"
)

// FuzzSplitControlBlob: the runner's per-checkpoint control record.
func FuzzSplitControlBlob(f *testing.F) {
	r, err := Open(core.Config{Streams: 1, Parallelism: 1}, f.TempDir(), durable.Options{})
	if err != nil {
		f.Fatal(err)
	}
	r.ordinals = []int{1, 2, 5}
	blob := r.controlBlob()
	r.Crash()
	f.Add(blob)
	f.Add(blob[:7])
	f.Add(append(blob, 0xEE))
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			ordinals, engine, err := splitControlBlob(in)
			if err == nil && 5+8*len(ordinals)+4+len(engine) != len(in) {
				t.Fatalf("accepted blob does not account for its %d bytes: %d ordinals, %d engine bytes", len(in), len(ordinals), len(engine))
			}
		})
	})
}
