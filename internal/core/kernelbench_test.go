package core

import (
	"reflect"
	"testing"
	"time"
)

// TestKernelRegistryNames pins the kernel registry's exact name set, in
// order. TestKernelAllocs, the CI benchmark smoke and BENCH_kernels.json all
// iterate the registry, so a kernel renamed or dropped from it would stop
// being guarded without any of them noticing; here it fails go test.
func TestKernelRegistryNames(t *testing.T) {
	want := []string{
		"join-kernel-512x512-64q",
		"join-fire-cached-16q",
		"selection-ontuple-64q",
		"selection-512q-overlap",
		"selection-512q-keyed",
		"selection-serve-64q",
		"agg-ontuple-64q",
		"agg-ontuple-512q-wide",
		"windowfire-64q-slide8",
		"windowfire-64q-200keys",
		"seal-64q-200keys",
		"chain-sel-agg-64q",
		"snapshot-delta-encode-64q",
		"bitset-and-into-128bit",
		"router-deliver",
	}
	var got []string
	for _, kb := range KernelBenchmarks() {
		got = append(got, kb.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel registry changed:\n got %q\nwant %q\n(update this list and BENCH_kernels.json together)", got, want)
	}
}

// TestKernelAllocs pins steady-state tuple processing in the shared
// operators to zero allocations per operation: the ISSUE-2 contract that the
// allocator never bounds the shared data path. AllocsPerRun averages over
// enough runs that amortized one-time growth (map resizes, slice doubling
// during warm-up) rounds to zero; a per-tuple allocation reads ≥ 1 and fails.
// A kernel whose operation is a whole window fire gets about a second of
// warm-up and as many measured runs, not 2048 each (under -race one
// windowfire-64q-200keys fire takes ~10 ms).
func TestKernelAllocs(t *testing.T) {
	for _, kb := range KernelBenchmarks() {
		kb := kb
		t.Run(kb.Name, func(t *testing.T) {
			run := kb.New()
			start := time.Now()
			run(1)
			n := 2048
			if per := time.Since(start); per > time.Second/time.Duration(n) {
				n = max(64, int(time.Second/per))
			}
			run(n) // warm-up: populate scratch, pools, map capacity
			if avg := testing.AllocsPerRun(n, func() { run(1) }); avg > 0 {
				t.Errorf("%s: %.2f allocs/op in steady state, want 0", kb.Name, avg)
			}
		})
	}
}

// BenchmarkKernels measures every hot-path kernel; cmd/astream-bench runs
// the same workloads to emit BENCH_kernels.json.
func BenchmarkKernels(b *testing.B) {
	for _, kb := range KernelBenchmarks() {
		kb := kb
		b.Run(kb.Name, func(b *testing.B) {
			run := kb.New()
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}
