package baseline

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

type collectSink struct {
	mu      sync.Mutex
	results []core.Result
}

func (c *collectSink) OnResult(r core.Result) {
	r = r.Own() // kept past the call
	c.mu.Lock()
	c.results = append(c.results, r)
	c.mu.Unlock()
}

func (c *collectSink) canon() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.results))
	for i, r := range c.results {
		switch r.Kind {
		case core.KindSelection:
			out[i] = fmt.Sprintf("sel k=%d t=%v f=%v", r.Tuple.Key, r.Tuple.Time, r.Tuple.Fields)
		case core.KindJoin:
			out[i] = fmt.Sprintf("join w=%v k=%d l=%v r=%v", r.Window, r.Join.Key, r.Join.Left, r.Join.Right)
		default:
			out[i] = fmt.Sprintf("agg w=%v k=%d v=%d", r.Window, r.Key, r.Value)
		}
	}
	sort.Strings(out)
	return out
}

// sut abstracts the two engines for equivalence testing.
type sut interface {
	Submit(q *core.Query, sink core.Sink) (int, <-chan struct{}, error)
	StopQuery(id int) (<-chan struct{}, error)
	Ingest(stream int, t event.Tuple) error
	Drain()
	ActiveQueries() int
	DeployRecords() []core.DeployRecord
}

var (
	_ sut = (*Engine)(nil)
	_ sut = (*core.Engine)(nil)
)

// script is a deterministic workload: interleaved ingests and query churn.
type scriptStep struct {
	submit *core.Query
	stop   int // ordinal of previously submitted query (1-based), 0 = none
	burst  int // tuples per stream after the op
}

func runScript(t *testing.T, s sut, streams int, steps []scriptStep, seed int64) map[int][]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sinks := map[int]*collectSink{}
	var order []int
	now := 0
	for _, st := range steps {
		if st.submit != nil {
			sink := &collectSink{}
			id, ack, err := s.Submit(st.submit, sink)
			if err != nil {
				t.Fatal(err)
			}
			<-ack
			sinks[id] = sink
			order = append(order, id)
		}
		if st.stop > 0 {
			id := order[st.stop-1]
			ack, err := s.StopQuery(id)
			if err != nil {
				t.Fatal(err)
			}
			<-ack
		}
		for i := 0; i < st.burst; i++ {
			now++
			for str := 0; str < streams; str++ {
				tu := event.Tuple{Key: int64(rng.Intn(4)), Time: event.Time(now)}
				for f := range tu.Fields {
					tu.Fields[f] = int64(rng.Intn(100))
				}
				if err := s.Ingest(str, tu); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s.Drain()
	out := map[int][]string{}
	for i, id := range order {
		out[i+1] = sinks[id].canon()
	}
	return out
}

// TestBaselineMatchesShared is the central equivalence test: the baseline
// query-at-a-time engine and the AStream shared engine must produce the same
// result multisets for the same workload.
func TestBaselineMatchesShared(t *testing.T) {
	gtp := func(f int, v int64) expr.Predicate {
		return expr.True().And(expr.Comparison{Field: f, Op: expr.GT, Value: v})
	}
	steps := []scriptStep{
		{submit: &core.Query{Kind: core.KindAggregation, Arity: 1,
			Predicates: []expr.Predicate{gtp(0, 20)},
			Window:     window.TumblingSpec(10), Agg: sqlstream.AggSum, AggField: 1}, burst: 25},
		{submit: &core.Query{Kind: core.KindJoin, Arity: 2,
			Predicates: []expr.Predicate{gtp(1, 30), expr.True()},
			Window:     window.SlidingSpec(8, 4), AggField: -1}, burst: 25},
		{stop: 1, burst: 20},
		{submit: &core.Query{Kind: core.KindComplex, Arity: 2,
			Predicates: []expr.Predicate{expr.True(), gtp(2, 50)},
			Window:     window.TumblingSpec(8), AggWindow: window.TumblingSpec(8),
			Agg: sqlstream.AggCount, AggField: -1}, burst: 30},
		{stop: 2, burst: 15},
	}

	mk := func() (sut, sut) {
		base, err := NewEngine(Config{Streams: 2, Parallelism: 2, WatermarkEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := core.NewEngine(core.Config{
			Streams: 2, Parallelism: 2, BatchSize: 1,
			BatchTimeout: time.Hour, WatermarkEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return base, shared
	}
	base, shared := mk()
	br := runScript(t, base, 2, steps, 99)
	sr := runScript(t, shared, 2, steps, 99)
	if len(br) != len(sr) {
		t.Fatalf("query counts differ: %d vs %d", len(br), len(sr))
	}
	for ord := range br {
		b, s := br[ord], sr[ord]
		if len(b) != len(s) {
			t.Errorf("query #%d: baseline %d results, shared %d", ord, len(b), len(s))
			continue
		}
		for i := range b {
			if b[i] != s[i] {
				t.Errorf("query #%d result %d: baseline %q, shared %q", ord, i, b[i], s[i])
				break
			}
		}
	}
}

func TestBaselineSelectionAndSession(t *testing.T) {
	steps := []scriptStep{
		{submit: &core.Query{Kind: core.KindSelection, Arity: 1,
			Predicates: []expr.Predicate{expr.True().And(expr.Comparison{Field: 0, Op: expr.LT, Value: 50})},
			AggField:   -1}, burst: 20},
		{submit: &core.Query{Kind: core.KindAggregation, Arity: 1,
			Predicates: []expr.Predicate{expr.True()},
			Window:     window.SessionSpec(3), Agg: sqlstream.AggSum, AggField: 0}, burst: 30},
	}
	base, err := NewEngine(Config{Streams: 1, Parallelism: 1, WatermarkEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := core.NewEngine(core.Config{Streams: 1, Parallelism: 1, BatchSize: 1, BatchTimeout: time.Hour, WatermarkEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	br := runScript(t, base, 1, steps, 5)
	sr := runScript(t, shared, 1, steps, 5)
	for ord := range br {
		if len(br[ord]) == 0 {
			t.Errorf("query #%d produced nothing in baseline", ord)
		}
		if fmt.Sprint(br[ord]) != fmt.Sprint(sr[ord]) {
			t.Errorf("query #%d results differ:\nbaseline %v\nshared   %v", ord, br[ord], sr[ord])
		}
	}
}

func TestBaselineTernaryJoinMatchesShared(t *testing.T) {
	steps := []scriptStep{
		{submit: &core.Query{Kind: core.KindJoin, Arity: 3,
			Predicates: []expr.Predicate{expr.True(), expr.True(), expr.True()},
			Window:     window.TumblingSpec(6), AggField: -1}, burst: 30},
	}
	base, _ := NewEngine(Config{Streams: 3, Parallelism: 1, WatermarkEvery: 1})
	shared, _ := core.NewEngine(core.Config{Streams: 3, Parallelism: 1, BatchSize: 1, BatchTimeout: time.Hour, WatermarkEvery: 1})
	br := runScript(t, base, 3, steps, 13)
	sr := runScript(t, shared, 3, steps, 13)
	if len(br[1]) == 0 {
		t.Fatal("ternary join produced nothing")
	}
	if fmt.Sprint(br[1]) != fmt.Sprint(sr[1]) {
		t.Fatalf("ternary join results differ:\nbaseline %v\nshared   %v", br[1], sr[1])
	}
}

func TestBaselineDeployRecordsAndErrors(t *testing.T) {
	e, err := NewEngine(Config{Streams: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := &core.Query{Kind: core.KindAggregation, Arity: 1,
		Predicates: []expr.Predicate{expr.True()},
		Window:     window.TumblingSpec(5), Agg: sqlstream.AggCount, AggField: -1}
	id, ack, err := e.Submit(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	if e.ActiveQueries() != 1 {
		t.Fatalf("active = %d", e.ActiveQueries())
	}
	if _, err := e.StopQuery(999); err == nil {
		t.Error("stop of unknown query must fail")
	}
	bad := &core.Query{Kind: core.KindJoin, Arity: 5, Predicates: make([]expr.Predicate, 5), Window: window.TumblingSpec(5)}
	if _, _, err := e.Submit(bad, nil); err == nil {
		t.Error("invalid query must be rejected")
	}
	if err := e.Ingest(7, event.Tuple{}); err == nil {
		t.Error("unknown stream must be rejected")
	}
	ack2, err := e.StopQuery(id)
	if err != nil {
		t.Fatal(err)
	}
	<-ack2
	recs := e.DeployRecords()
	if len(recs) != 2 || !recs[0].Create || recs[1].Create {
		t.Fatalf("deploy records = %+v", recs)
	}
	e.Drain()
	if _, _, err := e.Submit(q, nil); err == nil {
		t.Error("submit after Drain must fail")
	}
}

// TestBaselinePerTupleCostGrowsWithQueries sanity-checks the structural
// claim: the fork makes per-tuple delivery O(queries).
func TestBaselinePerTupleCostGrowsWithQueries(t *testing.T) {
	e, _ := NewEngine(Config{Streams: 1, Parallelism: 1, WatermarkEvery: 1})
	sinks := make([]*collectSink, 6)
	for i := range sinks {
		sinks[i] = &collectSink{}
		q := &core.Query{Kind: core.KindAggregation, Arity: 1,
			Predicates: []expr.Predicate{expr.True()},
			Window:     window.TumblingSpec(10), Agg: sqlstream.AggCount, AggField: -1}
		if _, _, err := e.Submit(q, sinks[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 30; i++ {
		if err := e.Ingest(0, event.Tuple{Key: int64(i % 3), Time: event.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	for i, s := range sinks {
		if len(s.canon()) == 0 {
			t.Fatalf("query %d got no results: the fork did not deliver", i)
		}
	}
}
