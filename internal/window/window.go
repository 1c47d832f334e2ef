// Package window implements window semantics for the engine: tumbling,
// sliding, and session windows, plus the event-time edge arithmetic that
// drives AStream's dynamic slicing (paper §3.1.3).
//
// Time windows are epoch-aligned half-open intervals: window k of a spec with
// slide s and length l is [k*s, k*s+l). A query created at time Ta needs no
// special window alignment — tuples before Ta never carry the query's bit in
// their query-set, so early windows simply contain nothing for it.
//
// Session windows are data-driven per key: a session extends while
// consecutive tuples arrive within Gap of each other.
package window

import (
	"fmt"

	"astream/internal/event"
)

// Kind discriminates window types.
type Kind uint8

const (
	// Tumbling windows partition time into consecutive fixed intervals.
	Tumbling Kind = iota
	// Sliding windows of Length advance by Slide; a tuple belongs to
	// ⌈Length/Slide⌉ windows.
	Sliding
	// Session windows group tuples separated by gaps smaller than Gap.
	Session
)

func (k Kind) String() string {
	switch k {
	case Tumbling:
		return "tumbling"
	case Sliding:
		return "sliding"
	case Session:
		return "session"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Spec describes one query's window.
type Spec struct {
	Kind   Kind
	Length event.Time // RANGE in the paper's SQL templates
	Slide  event.Time // SLICE in the paper's SQL templates
	Gap    event.Time // session gap
}

// TumblingSpec builds a tumbling window spec.
func TumblingSpec(length event.Time) Spec {
	return Spec{Kind: Tumbling, Length: length, Slide: length}
}

// SlidingSpec builds a sliding window spec.
func SlidingSpec(length, slide event.Time) Spec {
	return Spec{Kind: Sliding, Length: length, Slide: slide}
}

// SessionSpec builds a session window spec.
func SessionSpec(gap event.Time) Spec {
	return Spec{Kind: Session, Gap: gap}
}

// Validate checks the spec's invariants.
func (s Spec) Validate() error {
	switch s.Kind {
	case Tumbling:
		if s.Length <= 0 {
			return fmt.Errorf("window: tumbling length %v must be positive", s.Length)
		}
		if s.Slide != 0 && s.Slide != s.Length {
			return fmt.Errorf("window: tumbling slide must equal length")
		}
	case Sliding:
		if s.Length <= 0 {
			return fmt.Errorf("window: sliding length %v must be positive", s.Length)
		}
		if s.Slide <= 0 || s.Slide > s.Length {
			return fmt.Errorf("window: sliding slide %v must be in (0, length]", s.Slide)
		}
	case Session:
		if s.Gap <= 0 {
			return fmt.Errorf("window: session gap %v must be positive", s.Gap)
		}
	default:
		return fmt.Errorf("window: unknown kind %d", s.Kind)
	}
	return nil
}

// IsTimeBased reports whether the window is tumbling or sliding.
func (s Spec) IsTimeBased() bool { return s.Kind == Tumbling || s.Kind == Sliding }

func (s Spec) String() string {
	switch s.Kind {
	case Session:
		return fmt.Sprintf("session(gap=%d)", int64(s.Gap))
	case Tumbling:
		return fmt.Sprintf("tumbling(%d)", int64(s.Length))
	default:
		return fmt.Sprintf("sliding(%d/%d)", int64(s.Length), int64(s.Slide))
	}
}

// slide returns the effective slide (tumbling ⇒ length).
func (s Spec) slide() event.Time {
	if s.Kind == Tumbling || s.Slide == 0 {
		return s.Length
	}
	return s.Slide
}

// Extent is a half-open event-time interval [Start, End).
type Extent struct {
	Start, End event.Time
}

// Contains reports whether t ∈ [Start, End).
func (e Extent) Contains(t event.Time) bool { return t >= e.Start && t < e.End }

// Overlaps reports whether the two extents intersect.
func (e Extent) Overlaps(o Extent) bool { return e.Start < o.End && o.Start < e.End }

// Covers reports whether o ⊆ e.
func (e Extent) Covers(o Extent) bool { return e.Start <= o.Start && o.End <= e.End }

func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", int64(e.Start), int64(e.End)) }

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Assign returns the windows containing event-time t, in ascending start
// order. Only valid for time-based specs.
func (s Spec) Assign(t event.Time) []Extent {
	sl := int64(s.slide())
	l := int64(s.Length)
	// Last window starting at or before t.
	lastStart := floorDiv(int64(t), sl) * sl
	var out []Extent
	for start := lastStart; start > int64(t)-l; start -= sl {
		out = append(out, Extent{Start: event.Time(start), End: event.Time(start + l)})
	}
	// Reverse to ascending start order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// WindowsEndingIn appends to dst the windows whose end lies in (lo, hi],
// ascending, and returns the extended slice. Shared operators use this to
// find windows to trigger when the watermark advances from lo to hi, into a
// scratch they reuse across watermarks.
func (s Spec) WindowsEndingIn(lo, hi event.Time, dst []Extent) []Extent {
	sl := int64(s.slide())
	l := int64(s.Length)
	// Window ends are k*sl + l. Find smallest end > lo.
	kLo := floorDiv(int64(lo)-l, sl) + 1
	for k := kLo; k*sl+l <= int64(hi); k++ {
		dst = append(dst, Extent{Start: event.Time(k * sl), End: event.Time(k*sl + l)})
	}
	return dst
}

// NextEdge returns the smallest window boundary (window start or end)
// strictly greater than t. Slicing cuts the stream at every edge of every
// active query, so slices never straddle a window boundary.
func (s Spec) NextEdge(t event.Time) event.Time {
	sl := int64(s.slide())
	l := int64(s.Length)
	// Next start > t.
	ns := (floorDiv(int64(t), sl) + 1) * sl
	// Next end > t: ends at k*sl + l.
	ne := (floorDiv(int64(t)-l, sl)+1)*sl + l
	if ne <= int64(t) {
		ne += sl
	}
	if ns < ne {
		return event.Time(ns)
	}
	return event.Time(ne)
}

// PrevEdge returns the largest window boundary (start or end) less than or
// equal to t.
func (s Spec) PrevEdge(t event.Time) event.Time {
	sl := int64(s.slide())
	l := int64(s.Length)
	ps := floorDiv(int64(t), sl) * sl
	pe := floorDiv(int64(t)-l, sl)*sl + l
	if pe > ps {
		return event.Time(pe)
	}
	return event.Time(ps)
}

// PrevEdgeAll returns the largest edge ≤ t over all time-based specs, or
// event.MinTime when none apply.
func PrevEdgeAll(specs []Spec, t event.Time) event.Time {
	prev := event.MinTime
	for _, sp := range specs {
		if !sp.IsTimeBased() {
			continue
		}
		if e := sp.PrevEdge(t); e > prev {
			prev = e
		}
	}
	return prev
}

// LastWindowEndCovering returns the end of the last window that contains any
// part of [sliceStart, sliceStart+1); i.e. how long a slice beginning at
// sliceStart must be retained for this spec. For a slice [a,b) pass a.
func (s Spec) LastWindowEndCovering(sliceStart event.Time) event.Time {
	sl := int64(s.slide())
	l := int64(s.Length)
	// Last window with start ≤ sliceStart ends at that start + l.
	lastStart := floorDiv(int64(sliceStart), sl) * sl
	return event.Time(lastStart + l)
}
