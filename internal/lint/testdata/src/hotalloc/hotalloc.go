// Package hotalloc is a lint fixture: every allocating construct inside a
// function reachable from a //lint:hotpath root must be flagged at its
// exact line; cold panic paths, bounded (unknown-callee) calls, value
// composite literals, the m[string(b)] map-lookup pattern, and
// //lint:ignore suppressions must stay silent.
package hotalloc

type kernel struct {
	buf  []int
	outs []string
}

type pair struct{ a, b int }

func box(v any) { _ = v }

// badKernel is the deliberately allocating kernel: one construct per line.
//
//lint:hotpath
func (k *kernel) badKernel(n int, bs []byte) {
	s := make([]int, n)      // want "make allocates in hot function"
	p := new(int)            // want "new allocates in hot function"
	_ = []int{1, 2}          // want "slice literal allocates"
	_ = map[int]int{}        // want "map literal allocates"
	q := &kernel{}           // want "address-of composite literal allocates"
	k.buf = append(k.buf, n) // want "append may grow its backing array"
	msg := string(bs)        // want "string conversion allocates"
	msg2 := msg + "!"        // want "string concatenation allocates"
	f := func() {}           // want "function literal allocates a closure"
	g := k.step              // want "method value allocates a closure"
	go k.step(0)             // want "go statement allocates a goroutine"
	box(n)                   // want "interface boxing of int allocates"
	_ = pair{a: 1, b: 2}     // value struct literal: no allocation
	f()
	g(0)
	_, _, _, _ = s, p, q, msg2
}

func (k *kernel) step(i int) {
	k.buf[0] = i
}

// run is a root; hop1/hop2 are only reachable through it, so hop2's
// finding must carry the two-hop chain.
//
//lint:hotpath
func (k *kernel) run(iters int) {
	for i := 0; i < iters; i++ {
		k.hop1()
	}
}

func (k *kernel) hop1() { k.hop2() }

func (k *kernel) hop2() {
	k.buf = append(k.buf, 1) // want "append may grow its backing array in hot function \(\*kernel\)\.hop2 \(hot path: \(\*kernel\)\.run → \(\*kernel\)\.hop1 → \(\*kernel\)\.hop2\)"
}

// kernels mirrors core.KernelBenchmarks: the returned run closure is the
// hot root, annotated on the line above the literal. The builder itself
// (everything before the return) is setup and may allocate freely.
func kernels() func(int) {
	k := &kernel{buf: make([]int, 0, 64)}
	//lint:hotpath
	return func(iters int) {
		for i := 0; i < iters; i++ {
			k.litHop(i)
		}
	}
}

func (k *kernel) litHop(i int) {
	_ = new(kernel) // want "new allocates in hot function \(\*kernel\)\.litHop \(hot path: kernels\$1 → \(\*kernel\)\.litHop\)"
	_ = i
}

// guarded's allocation sits on a panic-terminated cold path: not flagged.
//
//lint:hotpath
func (k *kernel) guarded(fail bool) {
	if fail {
		k.outs = append(k.outs, "boom")
		panic("boom")
	}
}

// viaFunc cannot see through the function value: whatever it allocates is
// out of scope (bounded analysis), and allocHelper itself is not hot.
//
//lint:hotpath
func (k *kernel) viaFunc(f func()) {
	f()
}

func allocHelper() []int { return make([]int, 8) }

// lookup uses the compiler-recognized non-allocating map-index pattern.
//
//lint:hotpath
func lookup(m map[string]int, b []byte) int {
	return m[string(b)]
}

// warm shows the suppression contract: the intentional warm-up allocation
// carries an auditable //lint:ignore with a reason.
//
//lint:hotpath
func (k *kernel) warm(n int) {
	if k.buf == nil {
		//lint:ignore hotalloc warm-up: scratch sized once, reused forever after
		k.buf = make([]int, 0, n)
	}
}

// recAlloc allocates inside a recursive hot function: reachability must
// converge on the cycle and still flag the construct.
//
//lint:hotpath
func recAlloc(n int) []int {
	if n == 0 {
		return nil
	}
	_ = recAlloc(n - 1)
	return make([]int, 1) // want "make allocates in hot function recAlloc"
}

var _ = allocHelper
var _ = kernels

// A root directive that drifted off its function is reported, not dropped:
// the block-comment want keeps the directive from swallowing it.

/* want "//lint:hotpath directive does not attach to a function or function literal" */ //lint:hotpath drifted a line off its literal

var _ = box
