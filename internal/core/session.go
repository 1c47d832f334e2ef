package core

import (
	"fmt"
	"sync"
	"time"

	"astream/internal/event"
)

// DeployRecord is one query's deployment bookkeeping: the wall-clock latency
// between the user request and the changelog release (paper §4.3's query
// deployment latency; the driver adds its own queue-wait on top).
type DeployRecord struct {
	QueryID int
	Create  bool
	Latency time.Duration
}

// session is the shared session (paper §3.1.1): it batches query create and
// delete requests and releases them as a single changelog when the batch
// fills or the timeout elapses, whichever comes first.
type session struct {
	eng *Engine

	mu      sync.Mutex
	creates []*pendingReq
	deletes []*pendingReq
	timer   *time.Timer
	closed  bool

	records   []DeployRecord
	batchSize int
	timeout   time.Duration
}

type pendingReq struct {
	id   int
	def  *Query // nil for deletions
	sink Sink
	ack  chan struct{}
	// enqueuedNanos is the engine-clock timestamp of the request, so
	// deployment latency stays measurable under simulated time.
	enqueuedNanos int64
}

func newSession(eng *Engine, batchSize int, timeout time.Duration) *session {
	if batchSize < 1 {
		batchSize = 1
	}
	return &session{eng: eng, batchSize: batchSize, timeout: timeout}
}

// submit enqueues a creation request; the returned channel closes when the
// query's changelog has been released into the streams (the ACK of Figure 5).
func (s *session) submit(id int, def *Query, sink Sink) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: engine stopped")
	}
	req := &pendingReq{id: id, def: def, sink: sink, ack: make(chan struct{}), enqueuedNanos: s.eng.cfg.NowNanos()}
	s.creates = append(s.creates, req)
	s.maybeFlushLocked()
	return req.ack, nil
}

// stop enqueues a deletion request.
func (s *session) stop(id int) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: engine stopped")
	}
	req := &pendingReq{id: id, ack: make(chan struct{}), enqueuedNanos: s.eng.cfg.NowNanos()}
	s.deletes = append(s.deletes, req)
	s.maybeFlushLocked()
	return req.ack, nil
}

func (s *session) maybeFlushLocked() {
	if len(s.creates)+len(s.deletes) >= s.batchSize {
		s.flushLocked()
		return
	}
	if s.timer == nil && s.timeout > 0 {
		s.timer = time.AfterFunc(s.timeout, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if !s.closed {
				s.flushLocked()
			}
		})
	}
}

// flushLocked releases one changelog covering every pending request.
// A changelog is generated only when there are user requests (§3.1.1).
func (s *session) flushLocked() {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if len(s.creates) == 0 && len(s.deletes) == 0 {
		return
	}
	creates := s.creates
	deletes := s.deletes
	s.creates = nil
	s.deletes = nil

	createIDs := make([]int, len(creates))
	defs := make(map[int]*Query, len(creates))
	for i, r := range creates {
		createIDs[i] = r.id
		defs[r.id] = r.def
		// Sinks are registered before the changelog is released so that
		// no result can outrun its sink.
		s.eng.router.Register(r.id, r.sink)
	}
	deleteIDs := make([]int, len(deletes))
	for i, r := range deletes {
		deleteIDs[i] = r.id
	}

	err := s.eng.weaveChangelog(func(at event.Time) (*ChangelogMsg, error) {
		cl, err := s.eng.registry.Apply(at, createIDs, deleteIDs)
		if err != nil {
			return nil, err
		}
		return &ChangelogMsg{CL: cl, Defs: defs}, nil
	})
	if err != nil {
		// Invalid batch members (duplicate create, unknown delete) fail
		// the whole batch; acks still close so callers do not hang, and
		// the error is recorded.
		for _, r := range creates {
			s.eng.router.Unregister(r.id)
		}
		s.eng.recordSessionError(err)
		for _, r := range append(creates, deletes...) {
			close(r.ack)
		}
		return
	}
	// Deliberately NOT unregistering deleted queries' sinks here: deletion
	// is deferred to the query's event-time inside the operators, so final
	// windows (ending at or before the deletion time) still produce
	// results after this point. Sinks are dropped when the engine drains.

	now := s.eng.cfg.NowNanos()
	for _, r := range creates {
		s.records = append(s.records, DeployRecord{QueryID: r.id, Create: true, Latency: time.Duration(now - r.enqueuedNanos)})
		close(r.ack)
	}
	for _, r := range deletes {
		s.records = append(s.records, DeployRecord{QueryID: r.id, Create: false, Latency: time.Duration(now - r.enqueuedNanos)})
		close(r.ack)
	}
}

// flushNow forces a flush (engine drain and tests).
func (s *session) flushNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.flushLocked()
	}
}

// close flushes and stops the session.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.flushLocked()
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}

// deployRecords returns a snapshot of the deployment latency records.
func (s *session) deployRecords() []DeployRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeployRecord, len(s.records))
	copy(out, s.records)
	return out
}
