// Package core implements AStream itself: the shared session, shared
// selection, dynamic window slicing, shared windowed join, shared windowed
// aggregation, and the router (paper §2–§3). It composes these into an
// Engine that accepts ad-hoc query creations and deletions at runtime while
// all queries share one deployed topology.
package core

import (
	"fmt"

	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
)

// Kind classifies a query by which shared operators produce its results.
type Kind uint8

const (
	// KindSelection is a stateless filter on stream 0; results are tuples.
	KindSelection Kind = iota
	// KindJoin is a windowed equi-join over streams 0..Arity-1.
	KindJoin
	// KindAggregation is a windowed aggregation over stream 0.
	KindAggregation
	// KindComplex is a join over streams 0..Arity-1 followed by a windowed
	// aggregation over the join output (paper §4.7).
	KindComplex
)

func (k Kind) String() string {
	switch k {
	case KindSelection:
		return "selection"
	case KindJoin:
		return "join"
	case KindAggregation:
		return "aggregation"
	case KindComplex:
		return "complex"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Query is a compiled ad-hoc query as the shared operators see it.
type Query struct {
	// ID is assigned by the engine, unique per engine lifetime.
	ID int
	// Kind selects the shared-operator pipeline.
	Kind Kind
	// Arity is the number of joined streams (1 for selection/aggregation).
	Arity int
	// Predicates[i] filters stream i (TRUE when absent).
	Predicates []expr.Predicate
	// Window is the join window for join/complex kinds, or the aggregation
	// window for aggregation kind. Multi-stage queries (arity ≥ 3 or
	// complex) must use tumbling windows; see Engine docs.
	Window window.Spec
	// AggWindow is the aggregation window of a complex query.
	AggWindow window.Spec
	// Agg and AggField describe the aggregate for aggregation/complex
	// kinds. AggField is -1 for COUNT(*).
	Agg      sqlstream.AggFunc
	AggField int
}

// Validate checks the compiled query against engine restrictions.
func (q *Query) Validate(streams int) error {
	if q.Arity < 1 || q.Arity > streams {
		return fmt.Errorf("core: query arity %d outside [1,%d]", q.Arity, streams)
	}
	if len(q.Predicates) != q.Arity {
		return fmt.Errorf("core: %d predicates for arity %d", len(q.Predicates), q.Arity)
	}
	for _, p := range q.Predicates {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	switch q.Kind {
	case KindSelection:
		if q.Arity != 1 {
			return fmt.Errorf("core: selection query must have arity 1")
		}
	case KindJoin:
		if q.Arity < 2 {
			return fmt.Errorf("core: join query must have arity ≥ 2")
		}
		if err := q.Window.Validate(); err != nil {
			return err
		}
		if !q.Window.IsTimeBased() {
			return fmt.Errorf("core: join windows must be time-based")
		}
		if q.Arity > 2 && q.Window.Kind != window.Tumbling {
			return fmt.Errorf("core: joins with arity > 2 require tumbling windows")
		}
	case KindAggregation:
		if q.Arity != 1 {
			return fmt.Errorf("core: aggregation query must have arity 1")
		}
		if err := q.Window.Validate(); err != nil {
			return err
		}
		if q.Agg == sqlstream.AggNone {
			return fmt.Errorf("core: aggregation query needs an aggregate function")
		}
		if q.Window.Kind == window.Session {
			switch q.Agg {
			case sqlstream.AggSum, sqlstream.AggCount, sqlstream.AggAvg:
			default:
				return fmt.Errorf("core: session windows support SUM/COUNT/AVG only")
			}
		}
	case KindComplex:
		if q.Arity < 2 {
			return fmt.Errorf("core: complex query must join ≥ 2 streams")
		}
		if err := q.Window.Validate(); err != nil {
			return err
		}
		if q.Window.Kind != window.Tumbling {
			return fmt.Errorf("core: complex queries require tumbling join windows")
		}
		if err := q.AggWindow.Validate(); err != nil {
			return err
		}
		if q.AggWindow.Kind != window.Tumbling {
			return fmt.Errorf("core: complex queries require tumbling aggregation windows")
		}
		if q.Agg == sqlstream.AggNone {
			return fmt.Errorf("core: complex query needs an aggregate function")
		}
	default:
		return fmt.Errorf("core: unknown query kind %d", q.Kind)
	}
	if q.Agg != sqlstream.AggNone {
		if q.AggField != -1 && (q.AggField < 0 || q.AggField >= event.NumFields) {
			return fmt.Errorf("core: aggregate field %d out of range", q.AggField)
		}
		if q.AggField == -1 && q.Agg != sqlstream.AggCount {
			return fmt.Errorf("core: only COUNT may omit the aggregate field")
		}
	}
	return nil
}

// CompileSQL lowers a parsed SQL query to a core.Query. Stream names are
// positional: the i-th FROM source maps to engine stream i. Join conditions
// must be key equalities (the engine's exchange is keyed; this is the
// paper's "common partitioning key" assumption).
func CompileSQL(sq *sqlstream.Query) (*Query, error) {
	q := &Query{Arity: len(sq.Sources), AggField: -1}
	streamIdx := map[string]int{}
	for i, s := range sq.Sources {
		streamIdx[s] = i
	}
	q.Predicates = make([]expr.Predicate, q.Arity)
	for s, p := range sq.Filters {
		q.Predicates[streamIdx[s]] = p
	}
	for _, jc := range sq.JoinConds {
		if jc.Left.Field != expr.KeyField || jc.Right.Field != expr.KeyField {
			return nil, fmt.Errorf("core: only KEY = KEY join conditions are supported, got %v", jc)
		}
	}
	switch {
	case sq.IsJoin() && sq.IsAggregation():
		q.Kind = KindComplex
		q.Window = sq.Window
		q.AggWindow = sq.Window // single window clause applies to both stages
	case sq.IsJoin():
		q.Kind = KindJoin
		q.Window = sq.Window
	case sq.IsAggregation():
		q.Kind = KindAggregation
		q.Window = sq.Window
	default:
		q.Kind = KindSelection
	}
	if sq.IsAggregation() {
		q.Agg = sq.Agg
		if sq.Agg == sqlstream.AggCount && sq.AggCol.Stream == "" {
			q.AggField = -1
		} else {
			q.AggField = sq.AggCol.Field
		}
		if sq.GroupBy != nil && sq.GroupBy.Field != expr.KeyField {
			return nil, fmt.Errorf("core: GROUPBY must use the key column")
		}
	}
	return q, nil
}

// queryMinSize is the encoded size of a query with no predicates.
const queryMinSize = 8 + 1 + 4 + 4 + 2*wire.SpecSize + 1 + 8

// AppendQuery serializes a compiled query, ID included. This is the one
// query codec: the input log and the operator/control snapshots share it
// (log replay re-assigns the ID it reads; snapshots restore the binding).
func AppendQuery(b []byte, q *Query) []byte {
	b = wire.AppendI64(b, int64(q.ID))
	b = wire.AppendU8(b, uint8(q.Kind))
	b = wire.AppendU32(b, uint32(q.Arity))
	b = wire.AppendCount(b, len(q.Predicates))
	for _, p := range q.Predicates {
		b = wire.AppendPredicate(b, p)
	}
	b = wire.AppendSpec(b, q.Window)
	b = wire.AppendSpec(b, q.AggWindow)
	b = wire.AppendU8(b, uint8(q.Agg))
	return wire.AppendI64(b, int64(q.AggField))
}

// ReadQuery decodes one AppendQuery encoding.
func ReadQuery(r *wire.Reader) *Query {
	q := &Query{
		ID:    int(r.I64("query id")),
		Kind:  Kind(r.U8("query kind")),
		Arity: int(r.U32("query arity")),
	}
	n := r.Count("query predicate count", 4)
	for i := 0; i < n; i++ {
		q.Predicates = append(q.Predicates, wire.ReadPredicate(r))
	}
	q.Window = wire.ReadSpec(r)
	q.AggWindow = wire.ReadSpec(r)
	q.Agg = sqlstream.AggFunc(r.U8("query agg"))
	q.AggField = int(r.I64("query agg field"))
	return q
}
