package window

import (
	"sort"

	"astream/internal/event"
)

// SessionState tracks open sessions for one (key, query) pair. Sessions are
// data-driven: a tuple at time t joins a session if t is within Gap of the
// session's extent; overlapping sessions merge. Sessions close when the
// watermark passes end+Gap.
//
// The accumulator is a single int64 because the paper's aggregation workload
// is SUM (Figure 8); the count is tracked alongside so other aggregates
// (COUNT, AVG) can be derived.
type SessionState struct {
	gap      event.Time
	sessions []sessionWindow // sorted by Start, non-overlapping (gap-separated)
}

type sessionWindow struct {
	Start, End event.Time // End = last tuple time + 1 (half-open)
	Sum        int64
	Count      int64
}

// NewSessionState creates a tracker with the given gap.
func NewSessionState(gap event.Time) *SessionState {
	// cold: one tracker per (group, key) session stream
	return &SessionState{gap: gap}
}

// Add folds a tuple at time t with value v into the session structure,
// merging sessions that come within gap of each other.
func (s *SessionState) Add(t event.Time, v int64) {
	nw := sessionWindow{Start: t, End: t + 1, Sum: v, Count: 1}
	// Find insertion point: first session with Start > t.
	i := sort.Search(len(s.sessions), func(i int) bool { return s.sessions[i].Start > t })
	// Merge with predecessor if within gap.
	lo := i
	if i > 0 && nw.Start-s.sessions[i-1].End < s.gap {
		lo = i - 1
	}
	// Merge with successors within gap.
	hi := i
	for hi < len(s.sessions) && s.sessions[hi].Start-nw.End < s.gap {
		hi++
	}
	if lo == hi {
		// No merge: insert.
		// session path: open-session list growth is amortized per new session
		s.sessions = append(s.sessions, sessionWindow{})
		copy(s.sessions[i+1:], s.sessions[i:])
		s.sessions[i] = nw
		return
	}
	merged := nw
	for k := lo; k < hi; k++ {
		w := s.sessions[k]
		if w.Start < merged.Start {
			merged.Start = w.Start
		}
		if w.End > merged.End {
			merged.End = w.End
		}
		merged.Sum += w.Sum
		merged.Count += w.Count
	}
	s.sessions[lo] = merged
	// merge shrinks the list in place; append never exceeds existing capacity
	s.sessions = append(s.sessions[:lo+1], s.sessions[hi:]...)
}

// ClosedSession is an emitted, finalized session.
type ClosedSession struct {
	Extent Extent
	Sum    int64
	Count  int64
}

// Harvest removes and returns sessions that are closed at the given
// watermark (no tuple at time < wm can extend them: End+gap ≤ wm).
func (s *SessionState) Harvest(wm event.Time) []ClosedSession {
	var out []ClosedSession
	n := 0
	for _, w := range s.sessions {
		if w.End+s.gap <= wm {
			out = append(out, ClosedSession{
				Extent: Extent{Start: w.Start, End: w.End},
				Sum:    w.Sum,
				Count:  w.Count,
			})
		} else {
			s.sessions[n] = w
			n++
		}
	}
	s.sessions = s.sessions[:n]
	return out
}

// Open returns the number of open sessions (for tests and memory
// accounting).
func (s *SessionState) Open() int { return len(s.sessions) }

// OpenSession is the exported view of one open session, used by checkpoint
// snapshots to round-trip session state across a restore.
type OpenSession struct {
	Start, End event.Time
	Sum        int64
	Count      int64
}

// OpenSessions returns the open sessions in Start order.
func (s *SessionState) OpenSessions() []OpenSession {
	out := make([]OpenSession, len(s.sessions))
	for i, w := range s.sessions {
		out[i] = OpenSession{Start: w.Start, End: w.End, Sum: w.Sum, Count: w.Count}
	}
	return out
}

// RestoreSessionState rebuilds a tracker from snapshotted open sessions.
// The slice must be in Start order, as produced by OpenSessions.
func RestoreSessionState(gap event.Time, open []OpenSession) *SessionState {
	s := &SessionState{gap: gap}
	for _, w := range open {
		s.sessions = append(s.sessions, sessionWindow{Start: w.Start, End: w.End, Sum: w.Sum, Count: w.Count})
	}
	return s
}

// NextEdgeAll returns the smallest window edge strictly greater than t over
// all given time-based specs, or event.MaxTime when none apply. Session
// specs are skipped: their boundaries are data-driven, not time-driven.
func NextEdgeAll(specs []Spec, t event.Time) event.Time {
	next := event.MaxTime
	for _, sp := range specs {
		if !sp.IsTimeBased() {
			continue
		}
		if e := sp.NextEdge(t); e < next {
			next = e
		}
	}
	return next
}
