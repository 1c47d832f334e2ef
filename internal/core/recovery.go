package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/wire"
)

// This file is the engine's failure and recovery surface: recording
// supervised instance failures, quarantining queries whose own predicates
// keep panicking, and snapshotting/restoring the engine-level control state
// that operator snapshots do not cover (registry, changelog clock, ingress
// watermarks, query definitions). A checkpoint runner combines the two: at
// barrier K it stores every operator snapshot plus one ControlSnapshot, and
// recovery rebuilds a fresh engine from both before replaying only the log
// suffix past K.

// onInstanceFailure is the spe.FailureSink for every deployment: record,
// then notify the configured callback from the failing goroutine.
func (e *Engine) onInstanceFailure(f spe.InstanceFailure) {
	e.failMu.Lock()
	e.failures = append(e.failures, f)
	e.failMu.Unlock()
	if cb := e.cfg.OnInstanceFailure; cb != nil {
		cb(f)
	}
}

// InstanceFailures returns every recorded instance failure.
func (e *Engine) InstanceFailures() []spe.InstanceFailure {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	out := make([]spe.InstanceFailure, len(e.failures))
	copy(out, e.failures)
	return out
}

// quarantineStrikes is how many predicate panics a query gets before the
// engine stops it. The panic is already isolated per evaluation (the tuple
// just doesn't match); quarantine removes the repeat offender so the shared
// pipeline stops paying for it.
const quarantineStrikes = 3

// predicatePanicked is SharedSelection's panic callback: count a strike
// against the query and stop it once it exhausts them. Safe to call from
// operator goroutines — StopQuery only takes mutexes and queues the deletion
// changelog for the ingestion path to weave in.
func (e *Engine) predicatePanicked(queryID int, _ any) {
	e.failMu.Lock()
	if e.quarantined[queryID] {
		e.failMu.Unlock()
		return
	}
	e.strikes[queryID]++
	if e.strikes[queryID] < quarantineStrikes {
		e.failMu.Unlock()
		return
	}
	e.quarantined[queryID] = true
	e.failMu.Unlock()
	// Already-stopped is fine; the strike count only grows while the
	// query's entries are still installed. Quarantine is best-effort: a
	// concurrent StopQuery losing the race is the desired end state.
	_, _ = e.StopQuery(queryID)
}

// Quarantined returns the IDs of queries stopped for repeated predicate
// panics, sorted.
func (e *Engine) Quarantined() []int {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	out := make([]int, 0, len(e.quarantined))
	for id := range e.quarantined {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ActiveQueryIDs returns the IDs of currently running queries, sorted.
func (e *Engine) ActiveQueryIDs() []int {
	e.defsMu.RLock()
	out := make([]int, 0, len(e.defs))
	for id := range e.defs {
		out = append(out, id)
	}
	e.defsMu.RUnlock()
	sort.Ints(out)
	return out
}

// ControlSnapshot serializes the engine-level control state at a completed
// barrier. Must be called from the ingestion goroutine's quiescent point
// after every instance snapshot for the barrier has been collected (the
// checkpoint runner's await), so all of this state is stable.
func (e *Engine) ControlSnapshot() []byte {
	b := wire.AppendU8(nil, opSnapshotVersion)
	b = wire.AppendBytes(b, e.registry.Snapshot())
	b = wire.AppendU32(b, uint32(len(e.ingress)))
	for _, ing := range e.ingress {
		b = wire.AppendI64(b, ing.lastTime.Load())
		b = wire.AppendI64(b, int64(ing.lastWM))
	}
	b = wire.AppendI64(b, atomic.LoadInt64(&e.nextID))
	b = wire.AppendI64(b, atomic.LoadInt64(&e.maxHorizon))
	ids := e.ActiveQueryIDs()
	b = wire.AppendCount(b, len(ids))
	e.defsMu.RLock()
	for _, id := range ids {
		b = AppendQuery(b, e.defs[id])
	}
	e.defsMu.RUnlock()
	return b
}

// RestoreControl rebuilds the engine-level control state from a
// ControlSnapshot. Must be called on a freshly constructed engine before any
// input is pushed; it also primes every instance's changelog counter so
// replayed changelogs resume at the restored registry's sequence.
func (e *Engine) RestoreControl(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	r.Version("control snapshot version", opSnapshotVersion)
	regBytes := r.Bytes("control registry")
	if err := r.Err(); err != nil {
		return err
	}
	reg, err := changelog.RegistryFromSnapshot(regBytes)
	if err != nil {
		return err
	}
	if n := int(r.U32("control stream count")); r.Err() == nil && n != len(e.ingress) {
		return fmt.Errorf("core: control snapshot has %d streams, engine has %d", n, len(e.ingress))
	}
	lastTimes := make([]event.Time, len(e.ingress))
	lastWMs := make([]event.Time, len(e.ingress))
	for i := range e.ingress {
		lastTimes[i] = event.Time(r.I64("control lastTime"))
		lastWMs[i] = event.Time(r.I64("control lastWM"))
	}
	nextID := r.I64("control nextID")
	maxHorizon := r.I64("control maxHorizon")
	nq := r.Count("control query count", queryMinSize)
	defs := make(map[int]*Query, nq)
	prevID := 0
	for i := 0; i < nq && r.Err() == nil; i++ {
		q := ReadQuery(r)
		if i > 0 && q.ID <= prevID && r.Err() == nil {
			r.Fail(fmt.Errorf("core: control snapshot lists query %d after query %d", q.ID, prevID))
		}
		defs[q.ID], prevID = q, q.ID
	}
	if err := r.Finish("control snapshot"); err != nil {
		return err
	}

	e.registry = reg
	for i, ing := range e.ingress {
		ing.lastTime.Store(int64(lastTimes[i]))
		ing.lastWM = lastWMs[i]
	}
	atomic.StoreInt64(&e.nextID, nextID)
	atomic.StoreInt64(&e.maxHorizon, maxHorizon)
	e.defsMu.Lock()
	e.defs = defs
	e.defsMu.Unlock()
	e.job.PrimeChangelogSeq(reg.LastSeq())
	return nil
}

// RestoreOperators restores every shared-operator instance from fetched
// snapshot chains, keyed exactly as the runtime reported them: (node name,
// instance). A chain is one full snapshot followed by zero or more
// incremental deltas in the order they were cut, and each is one Restore: a
// selection's chain is its full snapshot, a windowed operator's reaches back
// to its last full link (durable.Store.FetchChain resolves both).
// Must be called before any input is pushed; the instance goroutines only
// touch their logic after their first inbox receive, so the channel send
// orders these writes safely (embedded chains are driven by the ingestion
// goroutine itself).
func (e *Engine) RestoreOperators(fetch func(op string, instance int) ([][]byte, bool)) error {
	restore := func(op string, instance int, l spe.Restorable) error {
		chain, ok := fetch(op, instance)
		if !ok || len(chain) == 0 {
			return fmt.Errorf("core: no snapshot for %s[%d]", op, instance)
		}
		for i, link := range chain {
			if err := l.Restore(link); err != nil {
				if i > 0 {
					return fmt.Errorf("core: restore %s[%d] delta %d/%d: %w", op, instance, i, len(chain)-1, err)
				}
				return fmt.Errorf("core: restore %s[%d]: %w", op, instance, err)
			}
		}
		return nil
	}
	for i, insts := range e.selLogics {
		name := fmt.Sprintf("select-%d", i)
		for inst, l := range insts {
			if err := restore(name, inst, l); err != nil {
				return err
			}
		}
	}
	for k, insts := range e.joinLogics {
		name := fmt.Sprintf("join-%d", k)
		for inst, l := range insts {
			if err := restore(name, inst, l); err != nil {
				return err
			}
		}
	}
	for inst, l := range e.aggLogics {
		if err := restore("aggregate", inst, l); err != nil {
			return err
		}
	}
	return nil
}

// SelectionIndexStats reports the compiled-index composition of every shared
// selection instance, stream by stream. Call at a quiescent point (tests:
// the chaos harness checks that recovery under fault injection classifies
// through the index).
func (e *Engine) SelectionIndexStats() []SelIndexStats {
	var out []SelIndexStats
	for _, insts := range e.selLogics {
		for _, l := range insts {
			out = append(out, l.IndexStats())
		}
	}
	return out
}
