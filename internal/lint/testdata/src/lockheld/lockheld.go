// Package lockheld is a lint fixture: blocking channel operations under a
// held sync.Mutex/RWMutex must be flagged; the release-first shapes and
// guarded selects must not.
package lockheld

import "sync"

type engine struct {
	mu  sync.Mutex
	out chan int
}

func (e *engine) badSend() {
	e.mu.Lock()
	e.out <- 1 // want "channel send while e\.mu is held"
	e.mu.Unlock()
}

func (e *engine) badRecv(in chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	<-in // want "blocking channel receive while e\.mu is held"
}

func (e *engine) badSelect(in chan int) {
	e.mu.Lock()
	select { // want "select with no default blocks while e\.mu is held"
	case v := <-in:
		_ = v
	}
	e.mu.Unlock()
}

func (e *engine) badRange(in chan int) {
	e.mu.Lock()
	for range in { // want "range over channel while e\.mu is held"
	}
	e.mu.Unlock()
}

type table struct {
	rw   sync.RWMutex
	sink chan string
}

func (t *table) badReadLocked() {
	t.rw.RLock()
	t.sink <- "x" // want "channel send while t\.rw is held"
	t.rw.RUnlock()
}

func (e *engine) goodReleaseFirst() {
	e.mu.Lock()
	v := len(e.out)
	e.mu.Unlock()
	e.out <- v
}

func (e *engine) goodGuardedSelect(in chan int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case v := <-in:
		_ = v
	default:
	}
}

func (e *engine) goodBranchReleases(in chan int, fast bool) {
	e.mu.Lock()
	if fast {
		e.mu.Unlock()
		<-in
		return
	}
	e.mu.Unlock()
}

// Over-extension regression: every fall-through branch releases, so the
// held region ends at the join and the send is clean.
func (e *engine) goodAllBranchesRelease(fast bool) {
	e.mu.Lock()
	if fast {
		e.mu.Unlock()
	} else {
		e.mu.Unlock()
	}
	e.out <- 1
}

// Under-extension regression: a lock acquired inside a branch may still be
// held at the join (may-held union).
func (e *engine) badBranchAcquires(cond bool) {
	if cond {
		e.mu.Lock()
	}
	e.out <- 1 // want "channel send while e\.mu is held"
	if cond {
		e.mu.Unlock()
	}
}

// A terminated branch contributes nothing to the join: the early-return
// path's unlock must not leak into the fall-through state.
func (e *engine) badTerminatedBranchRelease(fast bool) {
	e.mu.Lock()
	if fast {
		e.mu.Unlock()
		return
	}
	e.out <- 1 // want "channel send while e\.mu is held"
	e.mu.Unlock()
}

// defer mu.Unlock() keeps the lock held past later early-return branches.
func (e *engine) badDeferHoldsThroughBranches(fast bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if fast {
		return
	}
	e.out <- 1 // want "channel send while e\.mu is held"
}

// RWMutex read-lock variant of the early-return shape: both paths release
// before their channel op, so neither send is flagged.
func (t *table) goodDeferEarlyReturn(cond bool) {
	t.rw.RLock()
	if cond {
		t.rw.RUnlock()
		t.sink <- "fast"
		return
	}
	t.rw.RUnlock()
	t.sink <- "slow"
}

// Switch clauses join like if branches: every case releases, and the
// missing default means the pre-switch (held) state also falls through.
func (e *engine) badSwitchNoDefault(k int) {
	e.mu.Lock()
	switch k {
	case 0:
		e.mu.Unlock()
	case 1:
		e.mu.Unlock()
	}
	e.out <- 1 // want "channel send while e\.mu is held"
}

func (e *engine) goodSwitchAllRelease(k int) {
	e.mu.Lock()
	switch k {
	case 0:
		e.mu.Unlock()
	default:
		e.mu.Unlock()
	}
	e.out <- 1
}

// Every sub-part of a construct is scanned: the type-switch guard and the
// for post statement run under the lock like any other statement.
func (e *engine) badTypeSwitchGuard(in chan any) {
	e.mu.Lock()
	switch v := (<-in).(type) { // want "blocking channel receive while e\.mu is held"
	case int:
		_ = v
	}
	e.mu.Unlock()
}

func (e *engine) badForPost(n int) {
	e.mu.Lock()
	for i := 0; i < n; e.out <- i { // want "channel send while e\.mu is held"
	}
	e.mu.Unlock()
}

// break carries its state to the loop's exit, not into the statements
// after the enclosing if: the path that breaks still holds the lock after
// the loop, and the unlock below the if is not on it.
func (e *engine) badBreakHolds(xs []int) {
	for _, x := range xs {
		e.mu.Lock()
		if x == 0 {
			break
		}
		e.mu.Unlock()
	}
	e.out <- 1 // want "channel send while e\.mu is held"
}

// continue carries its state to the loop head: the next iteration's send
// runs under the lock the skipped unlock left held.
func (e *engine) badContinueHolds(xs []int) {
	for _, x := range xs {
		e.out <- x // want "channel send while e\.mu is held"
		e.mu.Lock()
		if x == 0 {
			continue
		}
		e.mu.Unlock()
	}
}

// The break path released before leaving, and the fall-through path
// releases below the if: nothing is held after the loop.
func (e *engine) goodBreakReleased(xs []int) {
	for _, x := range xs {
		e.mu.Lock()
		if x == 0 {
			e.mu.Unlock()
			break
		}
		e.mu.Unlock()
	}
	e.out <- 1
}
