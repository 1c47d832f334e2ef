package main

import (
	"fmt"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/gen"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// blockTuples is the size of the pre-generated per-stream input block; the
// generator cycles it, so no random numbers are drawn while the clock runs.
const blockTuples = 1 << 16

// fieldMax bounds the uniform payload fields (the paper's generator).
const fieldMax = 1000

// watermarkEvery (the watermark cadence in event-ms) and groupedThreshold (the
// active-query count above which the session switches the join's store
// layout, §3.2.3) are what core.Config defaults to. engineConfig sets them
// explicitly and the stage replay, which re-creates the ingress and the
// session by hand, reads the same constants, so the two cannot drift apart.
const (
	watermarkEvery   = 10
	groupedThreshold = 10
)

// workload is one frozen benchmark configuration. Every size is a constant:
// work is fixed in tuples, never in seconds, so two commits (and two rounds)
// do the same work. See README.md for why each workload exists and how the
// sizes were frozen.
type workload struct {
	name string

	streams     int
	parallelism int
	nodes       int

	keys        int64
	tuplesPerMs int // per stream, per event-time millisecond
	hyperMs     int // window hyperperiod; the warm-up replays exactly one
	batchSize   int // session batch size: one control event = one changelog

	// closedMs and openMs are the measured event-time spans of the two
	// phases at -seconds = defaultSeconds; they scale linearly with -seconds.
	closedMs int
	openMs   int
	// openRate is the open-loop schedule in tuples/s/stream. With
	// openRate == 1000*tuplesPerMs event time advances at wall-clock speed.
	openRate int
	// eventMs is the spacing of control events (probe swap, churn batch).
	eventMs int
	// churn marks the workload whose control events run in every phase and
	// replace aggregation queries, not only the probe.
	churn bool
	// sampleEvery is k: every k-th result of each sink is a delay sample.
	sampleEvery int
	// verifyMs is the event-time length of the verification prefix.
	verifyMs int
}

// defaultSeconds is BENCHMARK.json's run_seconds: the -seconds value at which
// the frozen closedMs/openMs apply unscaled.
const defaultSeconds = 30

// rounds is the number of (closed, open) child pairs per invocation; an
// end-to-end value is the best or the median of their readings (selfcheck.go).
const rounds = 5

var workloads = []workload{
	{
		// 64 aggregation queries, P=1: source, selection and aggregation fused in the caller, no channel anywhere; baseline of shared64_exchange.
		name:    "shared64_fused",
		streams: 1, parallelism: 1, nodes: 1,
		keys: 200, tuplesPerMs: 200, hyperMs: 2000, batchSize: 1,
		closedMs: 12000, openMs: 3000, openRate: 250_000, eventMs: 100,
		sampleEvery: 2, verifyMs: 1200,
	},
	{
		// Same queries and input at P=2 on 2 nodes: differs from shared64_fused only by the keyed exchange and the batch codec.
		name:    "shared64_exchange",
		streams: 1, parallelism: 2, nodes: 2,
		keys: 200, tuplesPerMs: 200, hyperMs: 2000, batchSize: 1,
		closedMs: 12000, openMs: 3000, openRate: 250_000, eventMs: 100,
		sampleEvery: 2, verifyMs: 1200,
	},
	{
		// 512 live multi-field queries replaced 8 at a time: selection lattice on the data path and index rebuild on the control path, aggregation almost idle.
		name:    "churn512",
		streams: 1, parallelism: 1, nodes: 1,
		keys: 1000, tuplesPerMs: 200, hyperMs: 2000, batchSize: 2 * churnBatch,
		closedMs: 8000, openMs: 2500, openRate: 200_000, eventMs: 50, churn: true,
		sampleEvery: 1, verifyMs: 1200,
	},
	{
		// 16 windowed joins over 2 streams: join and slice stores do the work, select-join-aggregate are real keyed exchanges, router and sinks are hot.
		name:    "join16",
		streams: 2, parallelism: 1, nodes: 1,
		keys: 25_000, tuplesPerMs: 50, hyperMs: 1000, batchSize: 1,
		closedMs: 10000, openMs: 2500, openRate: 50_000, eventMs: 100,
		sampleEvery: 128, verifyMs: 1200,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizing is a workload resolved against -seconds and the tests' density:
// concrete tuple counts for one child.
type sizing struct {
	keys         int64
	tuplesPerMs  int
	warmupTuples int // per stream
	closedTuples int
	openTuples   int
	verifyTuples int
	eventTuples  int     // control-event spacing in tuples per stream
	openPeriodNs float64 // wall-clock nanoseconds between tuples of one stream
}

// size resolves the workload's frozen event-time spans into tuple counts.
// seconds scales the measured spans; density divides the tuples per
// event-millisecond and the key count (only tests set it, to 6 to 40; the
// command always runs at 1), leaving the event-time structure — windows,
// hyperperiod, event spacing — intact.
func (w *workload) size(seconds float64, density int) sizing {
	if density < 1 {
		density = 1
	}
	tpm := w.tuplesPerMs / density
	if tpm < 1 {
		tpm = 1
	}
	keys := w.keys / int64(density)
	if keys < 8 {
		keys = 8
	}
	span := func(ms int) int {
		// Whole control-event periods, at least one, so every phase ends on
		// an event boundary and the probe schedule is identical in shape.
		n := int(float64(ms)*seconds/defaultSeconds) / w.eventMs
		if n < 1 {
			n = 1
		}
		return n * w.eventMs * tpm
	}
	return sizing{
		keys:         keys,
		tuplesPerMs:  tpm,
		warmupTuples: w.hyperMs * tpm,
		closedTuples: span(w.closedMs),
		openTuples:   span(w.openMs),
		verifyTuples: w.verifyMs * tpm,
		eventTuples:  w.eventMs * tpm,
		openPeriodNs: 1e9 / (float64(w.openRate) / float64(density)),
	}
}

// engineConfig is the core.Config every phase of the workload runs under.
func (w *workload) engineConfig() core.Config {
	return core.Config{
		Streams:     w.streams,
		Parallelism: w.parallelism,
		Nodes:       w.nodes,
		BatchSize:   w.batchSize,

		WatermarkEvery:   watermarkEvery,
		GroupedThreshold: groupedThreshold,
		// Every control event fills exactly one session batch, so the
		// timeout flush (wall-clock driven, hence non-deterministic) must
		// never fire during a run.
		BatchTimeout: 1 << 40,
	}
}

// dataBlocks generates the seeded input: one block per stream. Keys and
// event-times are assigned by the generator loop (true round-robin keys,
// time = index / tuplesPerMs); the block supplies the payload fields.
func (w *workload) dataBlocks(seed int64) [][]event.Tuple {
	blocks := make([][]event.Tuple, w.streams)
	for s := range blocks {
		d := gen.NewData(gen.DataConfig{Keys: w.keys, FieldMax: fieldMax}, seed*7919+int64(s))
		b := make([]event.Tuple, blockTuples)
		for i := range b {
			b[i] = d.Next(0)
			b[i].Stream = uint8(s)
		}
		blocks[s] = b
	}
	return blocks
}

var sharedWindows = [4]window.Spec{
	window.TumblingSpec(1000),
	window.SlidingSpec(2000, 500),
	window.TumblingSpec(2000),
	window.SlidingSpec(1000, 500),
}

// sharedPredicates are shared64's eight templates: TRUE plus seven
// single-field ranges (all served by the interval-stabbing index).
var sharedPredicates = [8]expr.Predicate{
	expr.True(),
	expr.True().And(expr.Comparison{Field: 0, Op: expr.LT, Value: 500}),
	expr.True().And(expr.Comparison{Field: 1, Op: expr.GE, Value: 300}),
	expr.True().And(expr.Comparison{Field: 2, Op: expr.LT, Value: 800}),
	expr.True().And(expr.Comparison{Field: 3, Op: expr.GT, Value: 200}),
	expr.True().And(expr.Comparison{Field: 4, Op: expr.LE, Value: 600}),
	expr.True().And(expr.Comparison{Field: 0, Op: expr.GE, Value: 250}),
	expr.True().And(expr.Comparison{Field: 1, Op: expr.LT, Value: 700}),
}

func aggQuery(pred expr.Predicate, win window.Spec, i int) *core.Query {
	return &core.Query{
		Kind:       core.KindAggregation,
		Arity:      1,
		Predicates: []expr.Predicate{pred},
		Window:     win,
		Agg:        sqlstream.AggFunc(1 + i%5),
		AggField:   i % 5,
	}
}

// churnQuery is churn512's i-th aggregation query: a key equality, every
// second one ANDed with a field range (a two-field predicate, so the
// selection's containment lattice is on the path).
func churnQuery(i int) *core.Query {
	pred := expr.True().And(expr.Comparison{Field: expr.KeyField, Op: expr.EQ, Value: int64(7919*i) % 1000})
	if i%2 == 1 {
		pred = pred.And(expr.Comparison{Field: i % 5, Op: expr.LT, Value: int64(200 + (37*i)%700)})
	}
	win := window.TumblingSpec(1000)
	if (i/2)%2 == 1 {
		win = window.SlidingSpec(2000, 500)
	}
	return aggQuery(pred, win, i)
}

// probeQuery is the deployment probe: a selection matching 5% of tuples at
// random, so its first result arrives within a few dozen tuples of the
// changelog taking effect.
func probeQuery() *core.Query {
	return &core.Query{
		Kind:       core.KindSelection,
		Arity:      1,
		Predicates: []expr.Predicate{expr.True().And(expr.Comparison{Field: 4, Op: expr.LT, Value: 50})},
		AggField:   -1,
	}
}

// churnBatch is the number of queries one churn event creates (and deletes).
const churnBatch = 8

// joinQuerySeed freezes join16's query population. The queries are part of
// the workload's definition, not of its input: a population drawn from -seed
// would change the result volume two- to threefold from seed to seed, and
// the benchmark would measure the draw.
const joinQuerySeed = 1

// population returns the queries deployed before the first tuple. It is the
// same for every input seed.
func (w *workload) population() []*core.Query {
	switch w.name {
	case "shared64_fused", "shared64_exchange":
		qs := make([]*core.Query, 64)
		for i := range qs {
			qs[i] = aggQuery(sharedPredicates[i%8], sharedWindows[(i/8)%4], i)
		}
		return qs
	case "churn512":
		qs := make([]*core.Query, 512)
		for i := range qs {
			qs[i] = churnQuery(i)
		}
		return qs
	case "join16":
		g := gen.NewQueries(gen.QueryConfig{FieldMax: fieldMax, WindowMin: 1, WindowMax: 10, Streams: 2, MinSelectivity: 0.2}, joinQuerySeed)
		qs := make([]*core.Query, 16)
		for i := range qs {
			q := g.Join()
			// Quantise the window to a 100 ms grid in [100, 1000].
			q.Window.Length *= 100
			q.Window.Slide *= 100
			qs[i] = q
		}
		return qs
	}
	return nil
}
