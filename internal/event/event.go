// Package event defines the data model that flows through the engine: tuples
// with event-time timestamps, watermarks, and the stream-element envelope
// that carries them (plus changelog markers and checkpoint barriers) through
// operator channels.
//
// The tuple layout follows the paper's workload (§4.2.1): a join key and an
// array of NumFields integer fields. Every tuple additionally carries the
// query-set column that AStream appends (§2.1.1); for the query-at-a-time
// baseline the query-set is simply unused.
package event

import (
	"fmt"
	"time"

	"astream/internal/bitset"
)

// NumFields is the number of payload fields per tuple, matching the paper's
// generator (|fields| = 5).
const NumFields = 5

// Time is an event-time instant in milliseconds since the stream epoch.
// Event-time, not wall-clock, drives windows, slices, and changelogs so that
// replays are deterministic (paper §3.3).
type Time int64

// MinTime and MaxTime bound the event-time domain.
const (
	MinTime Time = -1 << 62
	MaxTime Time = 1<<62 - 1
)

// Millis converts an event-time instant to a time.Duration since epoch.
func (t Time) Millis() int64 { return int64(t) }

// Duration converts to a wall-clock duration (for reporting only).
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Millisecond }

func (t Time) String() string { return fmt.Sprintf("t%d", int64(t)) }

// Tuple is one stream record.
type Tuple struct {
	// Key partitions the stream; joins equate keys and aggregations group
	// by key (paper Figures 7 and 8).
	Key int64
	// Fields holds the generated payload; selection predicates reference
	// Fields[i].
	Fields [NumFields]int64
	// Time is the tuple's event-time.
	Time Time
	// QuerySet identifies the queries interested in this tuple. Populated
	// by the shared selection operator; empty until then.
	QuerySet bitset.Bits
	// IngestNanos records the wall-clock nanosecond the tuple entered the
	// system; sinks use it to measure end-to-end latency (paper §3.4
	// samples latency at sinks). Zero when latency tracking is off.
	IngestNanos int64
	// Stream tags which logical input stream the tuple belongs to (0 = A,
	// 1 = B) for binary operators.
	Stream uint8
}

// Kind discriminates stream elements.
type Kind uint8

const (
	// KindTuple is a data tuple. Tuples travel between operators in
	// batches, never inside an Element; the kind remains as the zero value
	// and for telling data from control in diagnostics.
	KindTuple Kind = iota
	// KindWatermark asserts that no tuple with Time <= Watermark will
	// arrive on this channel afterwards.
	KindWatermark
	// KindChangelog carries a query workload change; it is woven into the
	// stream at a definite event-time so replays reproduce it (paper
	// §3.3).
	KindChangelog
	// KindBarrier is a checkpoint barrier (aligned snapshotting).
	KindBarrier
	// KindEOS marks the end of the stream; operators flush and forward.
	KindEOS
)

func (k Kind) String() string {
	switch k {
	case KindTuple:
		return "tuple"
	case KindWatermark:
		return "watermark"
	case KindChangelog:
		return "changelog"
	case KindBarrier:
		return "barrier"
	case KindEOS:
		return "eos"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Element is the envelope control elements — watermarks, changelog markers,
// barriers, EOS — travel in through operator channels. Exactly one payload
// is meaningful, selected by Kind. It is passed by value: small, no interior
// pointers except the changelog pointer.
type Element struct {
	Kind      Kind
	Watermark Time
	// Changelog is an opaque payload owned by package changelog; typed as
	// interface-free pointer to avoid an import cycle.
	Changelog any
	// Barrier identifies the checkpoint this barrier belongs to.
	Barrier uint64
}

// NewWatermark makes a watermark element.
func NewWatermark(t Time) Element { return Element{Kind: KindWatermark, Watermark: t} }

// NewChangelog wraps a changelog payload with its event time carried in
// Watermark position semantics (the changelog itself knows its time; the
// field here is informational for operators that only need ordering).
func NewChangelog(payload any, at Time) Element {
	return Element{Kind: KindChangelog, Changelog: payload, Watermark: at}
}

// NewBarrier makes a checkpoint barrier element.
func NewBarrier(id uint64) Element { return Element{Kind: KindBarrier, Barrier: id} }

// EOS is the end-of-stream element.
func EOS() Element { return Element{Kind: KindEOS} }

// JoinedTuple is the output of a join: the two sides' payloads plus the
// intersected query-set. It is re-encoded as a Tuple whose fields are taken
// from the left side and whose key is the shared join key, with the right
// side's fields available via Right.
type JoinedTuple struct {
	Key      int64
	Left     [NumFields]int64
	Right    [NumFields]int64
	Time     Time // max of the two sides' event-times
	QuerySet bitset.Bits
	// IngestNanos is the freshest contributing tuple's ingestion time.
	IngestNanos int64
}

// AsTuple flattens a join result back into a Tuple (left fields win); used
// when a join feeds another shared operator downstream (shared n-ary joins,
// paper §3.1.5).
func (j JoinedTuple) AsTuple() Tuple {
	return Tuple{Key: j.Key, Fields: j.Left, Time: j.Time, QuerySet: j.QuerySet, IngestNanos: j.IngestNanos}
}

// AggResult is one windowed aggregation output row: per query, per group key,
// the aggregate value over the query's window ending at WindowEnd.
type AggResult struct {
	QueryID     int
	Key         int64
	Value       int64
	WindowStart Time
	WindowEnd   Time
}

// JoinResult is one windowed join output row addressed to a single query.
type JoinResult struct {
	QueryID     int
	Joined      JoinedTuple
	WindowStart Time
	WindowEnd   Time
}
