package checkpoint

import (
	"fmt"
	"sort"
	"sync"

	"astream/internal/core"
	"astream/internal/durable"
)

// txSink is the runner's transactional result sink: results accumulate in
// the open epoch, and an epoch's results become visible only when the epoch
// commits — written to the store, then published by the manifest of the
// checkpoint that closes it. After a crash, replay regenerates the uncommitted epochs;
// a regenerated epoch that is already on disk is dropped by the store, so
// every result is exposed exactly once.
//
// Results within an epoch are canonicalized (sorted) before commit: the
// engine's cross-instance delivery order is nondeterministic even though the
// result multiset is deterministic.
type txSink struct {
	mu      sync.Mutex
	store   *durable.Store
	pending []string
}

// Canon renders a result into its canonical string form.
func Canon(r core.Result) string {
	switch r.Kind {
	case core.KindSelection:
		return fmt.Sprintf("q%d sel k=%d t=%v f=%v", r.QueryID, r.Tuple.Key, r.Tuple.Time, r.Tuple.Fields)
	case core.KindJoin:
		return fmt.Sprintf("q%d join w=%v k=%d l=%v r=%v", r.QueryID, r.Window, r.Join.Key, r.Join.Left, r.Join.Right)
	default:
		return fmt.Sprintf("q%d agg w=%v k=%d v=%d", r.QueryID, r.Window, r.Key, r.Value)
	}
}

// OnResult implements core.Sink.
func (s *txSink) OnResult(r core.Result) {
	c := Canon(r)
	s.mu.Lock()
	s.pending = append(s.pending, c)
	s.mu.Unlock()
}

// Commit closes the open epoch as epoch number `epoch`: its canonical results
// go to the store, and later results accumulate in the next one. The runner
// calls it at a quiescent point — every instance has passed the barrier that
// ends the epoch, or the engine has drained.
func (s *txSink) Commit(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Strings(s.pending)
	err := s.store.CommitOutput(epoch, s.pending)
	s.pending = s.pending[:0]
	return err
}
