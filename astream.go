// Package astream is an ad-hoc shared stream processing engine — a from-
// scratch Go reproduction of "AStream: Ad-hoc Shared Stream Processing"
// (Karimov, Rabl, Markl; SIGMOD 2019).
//
// AStream executes many concurrently running, ad-hoc created and deleted
// stream queries on one deployed topology, sharing selection work, window
// slices, join computation, and aggregation state across them. Queries are
// identified by bits in per-tuple query-sets; workload changes travel
// through the streams as changelog markers, so every operator — and every
// replay — sees the same consistent, event-time-anchored query lifecycle.
//
// # Quick start
//
//	eng, err := astream.New(astream.Config{Streams: 2, Parallelism: 4})
//	...
//	id, ack, err := eng.SubmitSQL(
//	    `SELECT * FROM A, B [RANGE 2000] [SLIDE 500]
//	     WHERE A.KEY = B.KEY AND A.F0 > 10`,
//	    astream.SinkFunc(func(r astream.Result) { fmt.Println(r) }))
//	<-ack // query is live
//	eng.Ingest(0, astream.Tuple{Key: 7, Time: 1200})
//	...
//	eng.StopQuery(id) // ad-hoc deletion, no topology change
//	eng.Drain()
//
// Queries can be submitted as SQL (the paper's templates: windowed joins,
// windowed aggregations, selections, and join+aggregation pipelines) or as
// compiled Query values. Every query gets its own result sink; one input
// stream serves all of them.
//
// The library also ships the paper's evaluation apparatus: a query-at-a-time
// baseline engine (internal/baseline), the workload generators (§4.2), the
// driver of Figure 5, and a benchmark harness reproducing Figures 9–20 (see
// cmd/astream-bench and bench_test.go).
package astream

import (
	"astream/internal/baseline"
	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// Tuple is one stream record: a partitioning key, NumFields integer payload
// fields, and an event-time in milliseconds.
type Tuple = event.Tuple

// NumFields is the number of payload fields per tuple.
const NumFields = event.NumFields

// Time is an event-time instant (milliseconds since the stream epoch).
type Time = event.Time

// Config parameterizes an engine; zero values get sensible defaults
// (1 stream, parallelism 1, changelog batch 100 / 1 s, watermark every 10
// time units).
type Config = core.Config

// Engine is the shared ad-hoc streaming engine.
type Engine = core.Engine

// Query is a compiled query; build one with the helpers below or via SQL.
type Query = core.Query

// Result is one query-addressed output row: eight words that reach a sink
// in registers. Its Tuple or Join row is borrowed from the operator for the
// duration of the OnResult call; a sink that keeps a result keeps r.Own().
type Result = core.Result

// Sink consumes one query's results; implementations must be safe for
// concurrent use, and copy (Result.Own) what they keep past the call.
type Sink = core.Sink

// SinkFunc adapts a function to a Sink.
type SinkFunc = core.SinkFunc

// CountingSink counts results and samples end-to-end latency.
type CountingSink = core.CountingSink

// DeployRecord reports one query's deployment latency.
type DeployRecord = core.DeployRecord

// Predicate is a conjunction of field comparisons.
type Predicate = expr.Predicate

// Comparison is a single field-vs-constant comparison.
type Comparison = expr.Comparison

// WindowSpec describes a tumbling, sliding, or session window.
type WindowSpec = window.Spec

// Kind classifies queries (selection / join / aggregation / complex).
type Kind = core.Kind

// Query kinds.
const (
	KindSelection   = core.KindSelection
	KindJoin        = core.KindJoin
	KindAggregation = core.KindAggregation
	KindComplex     = core.KindComplex
)

// AggFunc is an aggregate function (SUM, COUNT, AVG, MIN, MAX).
type AggFunc = sqlstream.AggFunc

// Aggregate functions.
const (
	AggSum   = sqlstream.AggSum
	AggCount = sqlstream.AggCount
	AggAvg   = sqlstream.AggAvg
	AggMin   = sqlstream.AggMin
	AggMax   = sqlstream.AggMax
)

// New builds and deploys a shared engine.
func New(cfg Config) (*Engine, error) { return core.NewEngine(cfg) }

// ParseQuery parses one of the paper's SQL templates and compiles it.
// Stream names bind positionally: the first FROM source is stream 0.
func ParseQuery(sql string) (*Query, error) {
	sq, err := sqlstream.Parse(sql)
	if err != nil {
		return nil, err
	}
	return core.CompileSQL(sq)
}

// Tumbling returns a tumbling window of the given length.
func Tumbling(length Time) WindowSpec { return window.TumblingSpec(length) }

// Sliding returns a sliding window.
func Sliding(length, slide Time) WindowSpec { return window.SlidingSpec(length, slide) }

// Session returns a session window with the given inactivity gap.
func Session(gap Time) WindowSpec { return window.SessionSpec(gap) }

// True is the always-true predicate.
func True() Predicate { return expr.True() }

// Field compares payload field i against a constant; op is one of
// "<", ">", "=", "<=", ">=", "!=".
func Field(i int, op string, value int64) (Comparison, error) {
	o, err := expr.ParseOp(op)
	if err != nil {
		return Comparison{}, err
	}
	c := Comparison{Field: i, Op: o, Value: value}
	return c, c.Validate()
}

// KeyEquals compares the tuple key against a constant.
func KeyEquals(value int64) Comparison {
	return Comparison{Field: expr.KeyField, Op: expr.EQ, Value: value}
}

// NewAggregation builds a windowed aggregation query over stream 0.
func NewAggregation(spec WindowSpec, fn AggFunc, field int, pred Predicate) *Query {
	return &Query{
		Kind: KindAggregation, Arity: 1,
		Predicates: []Predicate{pred},
		Window:     spec, Agg: fn, AggField: field,
	}
}

// NewJoin builds a windowed equi-join (on key) across the first
// len(preds) streams, with one predicate per stream.
func NewJoin(spec WindowSpec, preds ...Predicate) *Query {
	return &Query{
		Kind: KindJoin, Arity: len(preds),
		Predicates: preds, Window: spec, AggField: -1,
	}
}

// NewSelection builds a stateless filter query over stream 0.
func NewSelection(pred Predicate) *Query {
	return &Query{Kind: KindSelection, Arity: 1, Predicates: []Predicate{pred}, AggField: -1}
}

// NewComplex builds a join-then-aggregate pipeline (paper §4.7); both
// windows must be tumbling.
func NewComplex(joinSpec, aggSpec WindowSpec, fn AggFunc, field int, preds ...Predicate) *Query {
	return &Query{
		Kind: KindComplex, Arity: len(preds),
		Predicates: preds, Window: joinSpec, AggWindow: aggSpec,
		Agg: fn, AggField: field,
	}
}

// QoSReport is the engine's quality-of-service snapshot (paper §3.4):
// per-query result counts and latencies plus data-path counters. Obtain it
// with Engine.QoS().
type QoSReport = core.QoSReport

// QueryQoS is one query's service-level snapshot inside a QoSReport.
type QueryQoS = core.QueryQoS

// BaselineConfig parameterizes the query-at-a-time comparison engine.
type BaselineConfig = baseline.Config

// BaselineEngine runs each query in its own topology over a forked input
// stream — the vanilla-SPE model the paper evaluates against. It exposes the
// same Submit/StopQuery/Ingest/Drain surface as Engine.
type BaselineEngine = baseline.Engine

// NewBaseline builds a query-at-a-time engine.
func NewBaseline(cfg BaselineConfig) (*BaselineEngine, error) {
	return baseline.NewEngine(cfg)
}
