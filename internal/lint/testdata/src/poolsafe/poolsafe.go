// Package poolsafe exercises the poolsafe analyzer: use-after-release,
// double release, leaks on exit paths, still-reachable releases, and the
// interprocedural summary through unannotated helpers.
package poolsafe

import (
	"errors"
	"sync"
)

var errBoom = errors.New("boom")

type val struct {
	n int
}

type op struct {
	//lint:pooled freelist recycled val backings
	free []*val

	byKey map[int]*val
	live  []*val
}

//lint:pooled acquire pops a recycled val off the freelist
func (o *op) getVal() *val {
	if n := len(o.free); n > 0 {
		v := o.free[n-1]
		o.free = o.free[:n-1]
		return v
	}
	return &val{}
}

//lint:pooled release pushes a val back onto the freelist
func (o *op) putVal(v *val) {
	o.free = append(o.free, v)
}

// useAfter reads a field of a value already handed back to the pool.
func (o *op) useAfter() int {
	v := o.getVal()
	o.putVal(v)
	return v.n // want "pooled v used after release"
}

// double releases the same value twice.
func (o *op) double() {
	v := o.getVal()
	o.putVal(v)
	o.putVal(v) // want "released twice"
}

// branchy releases on one arm only; the use after the join is a
// use-after-release on that path.
func (o *op) branchy(flag bool) int {
	v := o.getVal()
	if flag {
		o.putVal(v)
	}
	return v.n // want "pooled v used after release"
}

// leaky drops an acquired value on the error path: the pool never sees it
// again.
func (o *op) leaky(flag bool) error {
	v := o.getVal()
	if flag {
		return errBoom // want "leaks on this exit path"
	}
	o.putVal(v)
	return nil
}

// recycleBoth is an unannotated helper; its release effect is derived
// interprocedurally from the annotated putVal.
func (o *op) recycleBoth(v *val) {
	o.putVal(v)
}

// helperChain releases through the helper, so the use after the call is a
// use-after-release.
func (o *op) helperChain() int {
	v := o.getVal()
	o.recycleBoth(v)
	return v.n // want "pooled v used after release"
}

// reachable recycles an object that o.byKey still points at.
func (o *op) reachable(k int) {
	o.putVal(o.byKey[k]) // want "still reachable through o.byKey"
}

// reachableOK severs the map entry, the established recycle idiom.
func (o *op) reachableOK(k int) {
	o.putVal(o.byKey[k])
	delete(o.byKey, k)
}

// recycleLoop is the steady-state acquire/use/release loop; clean.
func (o *op) recycleLoop(keys []int) int {
	total := 0
	for _, k := range keys {
		v := o.getVal()
		v.n = k
		total += v.n
		o.putVal(v)
	}
	return total
}

// park stores the value into live state and does not release it; clean
// (the release happens elsewhere, through a later load).
func (o *op) park(k int) {
	v := o.getVal()
	v.n = k
	o.live = append(o.live, v)
}

//lint:pooled pool recycled byte buffers
var bufPool sync.Pool

// poolTwice releases a sync.Pool object twice.
func poolTwice() {
	b := bufPool.Get()
	bufPool.Put(b)
	bufPool.Put(b) // want "released twice"
}

// poolClean is the plain Get/Put round trip; clean.
func poolClean() {
	b := bufPool.Get()
	bufPool.Put(b)
}

// breakRelease releases on the path that breaks out of the loop: break
// carries that state to the loop's exit, so the read after the loop is a
// use-after-release on that path.
func (o *op) breakRelease(keys []int) int {
	v := o.getVal()
	for _, k := range keys {
		if k == 0 {
			o.putVal(v)
			break
		}
	}
	return v.n // want "pooled v used after release"
}
