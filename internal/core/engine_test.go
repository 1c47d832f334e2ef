package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// collectSink gathers results thread-safely.
type collectSink struct {
	mu      sync.Mutex
	results []Result
}

func (c *collectSink) OnResult(r Result) {
	c.mu.Lock()
	c.results = append(c.results, r)
	c.mu.Unlock()
}

func (c *collectSink) all() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Result, len(c.results))
	copy(out, c.results)
	return out
}

// harness drives a deterministic engine: batch size 1 (synchronous
// changelog per request), zero lateness, watermark after every tuple.
type harness struct {
	t       *testing.T
	eng     *Engine
	inputs  [][]event.Tuple // per stream, in ingestion order
	curTime event.Time
	sinks   map[int]*collectSink
	ta      map[int]event.Time
	td      map[int]event.Time
	defs    map[int]*Query
}

func newHarness(t *testing.T, streams, parallelism int) *harness {
	t.Helper()
	eng, err := NewEngine(Config{
		Streams:        streams,
		Parallelism:    parallelism,
		BatchSize:      1,
		BatchTimeout:   time.Hour,
		WatermarkEvery: 1,
		NowNanos:       func() int64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t: t, eng: eng,
		inputs: make([][]event.Tuple, streams),
		sinks:  map[int]*collectSink{},
		ta:     map[int]event.Time{},
		td:     map[int]event.Time{},
		defs:   map[int]*Query{},
	}
}

// ingest pushes one tuple on a stream (times must be non-decreasing per the
// zero-lateness config).
func (h *harness) ingest(stream int, key int64, tm event.Time, fields ...int64) {
	h.t.Helper()
	tu := event.Tuple{Key: key, Time: tm}
	copy(tu.Fields[:], fields)
	if err := h.eng.Ingest(stream, tu); err != nil {
		h.t.Fatal(err)
	}
	h.inputs[stream] = append(h.inputs[stream], tu)
	if tm > h.curTime {
		h.curTime = tm
	}
}

// submit registers a query; with batch size 1 the changelog is released
// synchronously, activating at curTime+1.
func (h *harness) submit(q *Query) int {
	h.t.Helper()
	sink := &collectSink{}
	id, ack, err := h.eng.Submit(q, sink)
	if err != nil {
		h.t.Fatal(err)
	}
	<-ack
	h.sinks[id] = sink
	h.ta[id] = h.curTime + 1
	h.td[id] = event.MaxTime
	qq := *q
	qq.ID = id
	h.defs[id] = &qq
	return id
}

func (h *harness) stop(id int) {
	h.t.Helper()
	ack, err := h.eng.StopQuery(id)
	if err != nil {
		h.t.Fatal(err)
	}
	<-ack
	h.td[id] = h.curTime + 1
}

// finish drains the engine and checks every query's results against the
// reference evaluator.
func (h *harness) finish() {
	h.t.Helper()
	h.eng.Drain()
	if errs := h.eng.SessionErrors(); len(errs) > 0 {
		h.t.Fatalf("session errors: %v", errs)
	}
	for id, q := range h.defs {
		want := canonResults(refResults(h.inputs, q, h.ta[id], h.td[id]))
		got := canonResults(h.sinks[id].all())
		if len(want) != len(got) {
			h.t.Errorf("query %d (%v): %d results, want %d\n got: %v\nwant: %v",
				id, q.Kind, len(got), len(want), clip(got), clip(want))
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				h.t.Errorf("query %d (%v) result %d:\n got %s\nwant %s", id, q.Kind, i, got[i], want[i])
				break
			}
		}
	}
}

func clip(s []string) []string {
	if len(s) > 12 {
		return append(s[:12:12], "…")
	}
	return s
}

func canonResults(rs []Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		switch r.Kind {
		case KindSelection:
			out[i] = fmt.Sprintf("sel k=%d t=%v f=%v", r.Tuple.Key, r.Tuple.Time, r.Tuple.Fields)
		case KindJoin:
			out[i] = fmt.Sprintf("join w=%v k=%d l=%v r=%v", r.Window, r.Join.Key, r.Join.Left, r.Join.Right)
		default:
			out[i] = fmt.Sprintf("agg w=%v k=%d v=%d", r.Window, r.Key, r.Value)
		}
	}
	sort.Strings(out)
	return out
}

// refResults evaluates a query naively over the recorded inputs.
func refResults(inputs [][]event.Tuple, q *Query, ta, td event.Time) []Result {
	switch q.Kind {
	case KindSelection:
		return refSelection(inputs[0], q, ta, td)
	case KindAggregation:
		if q.Window.Kind == window.Session {
			return refSessionAgg(inputs[0], q, ta, td)
		}
		return refAgg(matching(inputs[0], q.Predicates[0], ta, td), q, q.Window, td)
	case KindJoin:
		rows, _ := refJoinRows(inputs, q, ta, td)
		return rows
	case KindComplex:
		_, passRows := refJoinRows(inputs, q, ta, td)
		return refAgg(passRows, q, q.AggWindow, td)
	}
	return nil
}

func matching(in []event.Tuple, p expr.Predicate, ta, td event.Time) []event.Tuple {
	var out []event.Tuple
	for i := range in {
		t := in[i]
		if t.Time >= ta && t.Time < td && p.Eval(&t) {
			out = append(out, t)
		}
	}
	return out
}

func refSelection(in []event.Tuple, q *Query, ta, td event.Time) []Result {
	var out []Result
	for _, t := range matching(in, q.Predicates[0], ta, td) {
		out = append(out, Result{QueryID: q.ID, Kind: KindSelection, Tuple: t})
	}
	return out
}

// refJoinRows returns (terminal join Results, pass-through tuples) for join
// and complex queries, chaining stages pairwise exactly as the engine does.
func refJoinRows(inputs [][]event.Tuple, q *Query, ta, td event.Time) ([]Result, []event.Tuple) {
	left := matching(inputs[0], q.Predicates[0], ta, td)
	var results []Result
	for stage := 0; stage < q.Arity-1; stage++ {
		right := matching(inputs[stage+1], q.Predicates[stage+1], ta, td)
		lastStage := stage == q.Arity-2
		var next []event.Tuple
		forEachWindow(q.Window, append(append([]event.Tuple{}, left...), right...), td, func(ext window.Extent) {
			for _, a := range left {
				if !ext.Contains(a.Time) {
					continue
				}
				for _, b := range right {
					if b.Key != a.Key || !ext.Contains(b.Time) {
						continue
					}
					if lastStage && q.Kind == KindJoin {
						jt := event.JoinedTuple{Key: a.Key, Left: a.Fields, Right: b.Fields}
						jt.Time = a.Time
						if b.Time > jt.Time {
							jt.Time = b.Time
						}
						results = append(results, Result{QueryID: q.ID, Kind: KindJoin, Window: ext, Join: jt})
					} else {
						nt := event.Tuple{Key: a.Key, Fields: a.Fields, Time: ext.End - 1}
						next = append(next, nt)
					}
				}
			}
		})
		left = next
	}
	return results, pass2(left, q)
}

func pass2(rows []event.Tuple, q *Query) []event.Tuple {
	if q.Kind != KindComplex {
		return nil
	}
	return rows
}

// forEachWindow enumerates the spec's windows that could contain any of the
// given tuples and end at or before cap.
func forEachWindow(sp window.Spec, tuples []event.Tuple, cap event.Time, fn func(window.Extent)) {
	if len(tuples) == 0 {
		return
	}
	lo, hi := tuples[0].Time, tuples[0].Time
	for _, t := range tuples[1:] {
		if t.Time < lo {
			lo = t.Time
		}
		if t.Time > hi {
			hi = t.Time
		}
	}
	for _, ext := range sp.WindowsEndingIn(lo-1, hi+sp.Length, nil) {
		if ext.End <= cap {
			fn(ext)
		}
	}
}

func refAgg(rows []event.Tuple, q *Query, sp window.Spec, td event.Time) []Result {
	var out []Result
	forEachWindow(sp, rows, td, func(ext window.Extent) {
		acc := map[int64]*aggVal{}
		for i := range rows {
			t := rows[i]
			if !ext.Contains(t.Time) {
				continue
			}
			v := acc[t.Key]
			if v == nil {
				v = &aggVal{}
				v.reset()
				acc[t.Key] = v
			}
			v.fold(&t)
		}
		for key, v := range acc {
			out = append(out, Result{
				QueryID: q.ID, Kind: q.Kind, Window: ext, Key: key,
				Value: v.finalize(q.Agg, q.AggField),
			})
		}
	})
	return out
}

func refSessionAgg(in []event.Tuple, q *Query, ta, td event.Time) []Result {
	rows := matching(in, q.Predicates[0], ta, td)
	byKey := map[int64]*window.SessionState{}
	for i := range rows {
		t := rows[i]
		ss := byKey[t.Key]
		if ss == nil {
			ss = window.NewSessionState(q.Window.Gap)
			byKey[t.Key] = ss
		}
		v := int64(1)
		if q.Agg != sqlstream.AggCount && q.AggField >= 0 {
			v = t.Fields[q.AggField]
		}
		ss.Add(t.Time, v)
	}
	var out []Result
	for key, ss := range byKey {
		for _, cs := range ss.Harvest(event.MaxTime) {
			if cs.Extent.End > td {
				continue
			}
			val := cs.Sum
			switch q.Agg {
			case sqlstream.AggCount:
				val = cs.Count
			case sqlstream.AggAvg:
				if cs.Count > 0 {
					val = cs.Sum / cs.Count
				}
			}
			out = append(out, Result{QueryID: q.ID, Kind: q.Kind, Window: cs.Extent, Key: key, Value: val})
		}
	}
	return out
}

// --- query builders -------------------------------------------------------

func aggQ(spec window.Spec, fn sqlstream.AggFunc, field int, pred expr.Predicate) *Query {
	return &Query{
		Kind: KindAggregation, Arity: 1,
		Predicates: []expr.Predicate{pred},
		Window:     spec, Agg: fn, AggField: field,
	}
}

func joinQ(spec window.Spec, preds ...expr.Predicate) *Query {
	return &Query{
		Kind: KindJoin, Arity: len(preds),
		Predicates: preds, Window: spec, AggField: -1,
	}
}

func selQ(pred expr.Predicate) *Query {
	return &Query{Kind: KindSelection, Arity: 1, Predicates: []expr.Predicate{pred}, AggField: -1}
}

func complexQ(joinSpec, aggSpec window.Spec, fn sqlstream.AggFunc, field int, preds ...expr.Predicate) *Query {
	return &Query{
		Kind: KindComplex, Arity: len(preds),
		Predicates: preds, Window: joinSpec, AggWindow: aggSpec,
		Agg: fn, AggField: field,
	}
}

func gt(field int, v int64) expr.Predicate {
	return expr.True().And(expr.Comparison{Field: field, Op: expr.GT, Value: v})
}

// --- tests ----------------------------------------------------------------

func TestEngineSingleTumblingSum(t *testing.T) {
	h := newHarness(t, 1, 1)
	h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()))
	for i := 1; i <= 45; i++ {
		h.ingest(0, int64(i%3), event.Time(i), int64(i))
	}
	h.finish()
}

func TestEngineSlidingAvgWithPredicate(t *testing.T) {
	h := newHarness(t, 1, 2)
	h.submit(aggQ(window.SlidingSpec(12, 4), sqlstream.AggAvg, 1, gt(0, 50)))
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 80; i++ {
		h.ingest(0, int64(rng.Intn(5)), event.Time(i), int64(rng.Intn(100)), int64(rng.Intn(20)))
	}
	h.finish()
}

func TestEngineCountMinMax(t *testing.T) {
	h := newHarness(t, 1, 1)
	h.submit(aggQ(window.TumblingSpec(8), sqlstream.AggCount, -1, expr.True()))
	h.submit(aggQ(window.TumblingSpec(8), sqlstream.AggMin, 2, expr.True()))
	h.submit(aggQ(window.TumblingSpec(8), sqlstream.AggMax, 2, expr.True()))
	rng := rand.New(rand.NewSource(4))
	for i := 1; i <= 50; i++ {
		h.ingest(0, int64(rng.Intn(4)), event.Time(i), 0, 0, int64(rng.Intn(1000)-500))
	}
	h.finish()
}

func TestEngineSelectionQuery(t *testing.T) {
	h := newHarness(t, 1, 2)
	h.submit(selQ(gt(0, 10)))
	for i := 1; i <= 30; i++ {
		h.ingest(0, int64(i), event.Time(i), int64(i%20))
	}
	h.finish()
}

func TestEngineBinaryJoin(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.submit(joinQ(window.TumblingSpec(10), gt(0, 20), gt(1, 30)))
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 60; i++ {
		h.ingest(0, int64(rng.Intn(4)), event.Time(i), int64(rng.Intn(100)))
		h.ingest(1, int64(rng.Intn(4)), event.Time(i), 0, int64(rng.Intn(100)))
	}
	h.finish()
}

func TestEngineSlidingJoin(t *testing.T) {
	h := newHarness(t, 2, 2)
	h.submit(joinQ(window.SlidingSpec(10, 5), expr.True(), expr.True()))
	rng := rand.New(rand.NewSource(6))
	for i := 1; i <= 40; i++ {
		h.ingest(0, int64(rng.Intn(3)), event.Time(i))
		h.ingest(1, int64(rng.Intn(3)), event.Time(i))
	}
	h.finish()
}

func TestEngineSessionAggregation(t *testing.T) {
	h := newHarness(t, 1, 1)
	h.submit(aggQ(window.SessionSpec(5), sqlstream.AggSum, 0, expr.True()))
	times := []event.Time{1, 2, 3, 10, 11, 30, 31, 32, 50}
	for _, tm := range times {
		h.ingest(0, tm.Millis()%2, tm, 7)
	}
	h.finish()

	// A tuple folding into a key's open session allocates nothing: the
	// operator's session mask, the query's fold and the tracker's merge all
	// work in place, a later session of the key moving up behind the merged
	// one. Starting a session (a new key, or one after a harvest) allocates
	// its tracker, by design.
	agg := benchAggWindow(1, window.SessionSpec(5))
	tu := benchTuple(0, bitset.FromIndexes(0), 0)
	later := tu
	later.Time = 1000
	agg.OnTuple(0, later, nil)
	agg.OnTuple(0, tu, nil)
	if avg := testing.AllocsPerRun(100, func() {
		tu.Time++
		agg.OnTuple(0, tu, nil)
	}); avg != 0 {
		t.Errorf("a fold into an open session allocated %.1f times per tuple, want 0", avg)
	}
	if ss := agg.win.queries.ordered[0].sessions[tu.Key]; ss == nil || ss.Open() != 2 {
		t.Fatalf("the folds left %v, want the merged session and the later one open", ss)
	}
}

func TestEngineAdHocCreateDelete(t *testing.T) {
	h := newHarness(t, 1, 1)
	q1 := h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()))
	for i := 1; i <= 25; i++ {
		h.ingest(0, int64(i%2), event.Time(i), 1)
	}
	// q2 created mid-stream: sees only tuples from t=26 on.
	h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggCount, -1, expr.True()))
	for i := 26; i <= 55; i++ {
		h.ingest(0, int64(i%2), event.Time(i), 1)
	}
	// q1 deleted: windows ending after t=56 never fire for it.
	h.stop(q1)
	for i := 56; i <= 80; i++ {
		h.ingest(0, int64(i%2), event.Time(i), 1)
	}
	h.finish()
}

// TestEngineSlotReuseNoLeakage is the changelog-set correctness test: q1 is
// deleted, q3 takes its slot, and neither inherits the other's data.
func TestEngineSlotReuseNoLeakage(t *testing.T) {
	h := newHarness(t, 1, 1)
	q1 := h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()))
	h.submit(aggQ(window.TumblingSpec(20), sqlstream.AggSum, 0, expr.True()))
	for i := 1; i <= 30; i++ {
		h.ingest(0, 1, event.Time(i), 100)
	}
	h.stop(q1)
	// q3 reuses q1's slot (slot-reuse registry) but must see only t ≥ 32.
	h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()))
	for i := 32; i <= 60; i++ {
		h.ingest(0, 1, event.Time(i), 1)
	}
	h.finish()
}

func TestEngineJoinAdhocChurn(t *testing.T) {
	h := newHarness(t, 2, 2)
	q1 := h.submit(joinQ(window.TumblingSpec(8), expr.True(), expr.True()))
	rng := rand.New(rand.NewSource(7))
	step := func(from, to int) {
		for i := from; i <= to; i++ {
			h.ingest(0, int64(rng.Intn(3)), event.Time(i))
			h.ingest(1, int64(rng.Intn(3)), event.Time(i))
		}
	}
	step(1, 20)
	q2 := h.submit(joinQ(window.SlidingSpec(8, 4), gt(0, -1), expr.True()))
	step(21, 40)
	h.stop(q1)
	step(41, 60)
	h.stop(q2)
	step(61, 70)
	h.finish()
}

func TestEngineComplexQuery(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.submit(complexQ(window.TumblingSpec(10), window.TumblingSpec(10),
		sqlstream.AggSum, 0, expr.True(), expr.True()))
	rng := rand.New(rand.NewSource(8))
	for i := 1; i <= 50; i++ {
		h.ingest(0, int64(rng.Intn(3)), event.Time(i), int64(rng.Intn(10)))
		h.ingest(1, int64(rng.Intn(3)), event.Time(i))
	}
	h.finish()
}

func TestEngineTernaryJoin(t *testing.T) {
	h := newHarness(t, 3, 1)
	h.submit(joinQ(window.TumblingSpec(10), expr.True(), expr.True(), expr.True()))
	rng := rand.New(rand.NewSource(9))
	for i := 1; i <= 40; i++ {
		h.ingest(0, int64(rng.Intn(2)), event.Time(i))
		h.ingest(1, int64(rng.Intn(2)), event.Time(i))
		h.ingest(2, int64(rng.Intn(2)), event.Time(i))
	}
	h.finish()
}

func TestEngineMixedWorkloadRandomChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized churn test")
	}
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newHarness(t, 2, 2)
			var live []int
			now := 1
			for phase := 0; phase < 12; phase++ {
				// Random query churn.
				if rng.Intn(2) == 0 || len(live) == 0 {
					var q *Query
					switch rng.Intn(3) {
					case 0:
						q = aggQ(window.TumblingSpec(event.Time(4+rng.Intn(12))),
							sqlstream.AggSum, rng.Intn(5), gt(rng.Intn(5), int64(rng.Intn(60))))
					case 1:
						l := 4 + rng.Intn(10)
						s := 1 + rng.Intn(l)
						q = aggQ(window.SlidingSpec(event.Time(l), event.Time(s)),
							sqlstream.AggCount, -1, gt(rng.Intn(5), int64(rng.Intn(60))))
					default:
						q = joinQ(window.TumblingSpec(event.Time(4+rng.Intn(8))),
							gt(0, int64(rng.Intn(50))), gt(1, int64(rng.Intn(50))))
					}
					live = append(live, h.submit(q))
				} else {
					k := rng.Intn(len(live))
					h.stop(live[k])
					live = append(live[:k], live[k+1:]...)
				}
				// A burst of data.
				for i := 0; i < 15; i++ {
					now++
					h.ingest(0, int64(rng.Intn(4)), event.Time(now), int64(rng.Intn(100)), int64(rng.Intn(100)))
					h.ingest(1, int64(rng.Intn(4)), event.Time(now), int64(rng.Intn(100)), int64(rng.Intn(100)))
				}
			}
			h.finish()
		})
	}
}

func TestEngineParallelismInvariance(t *testing.T) {
	// The same workload must produce identical results at parallelism 1
	// and 4 (sharing is partition-local; results are global).
	run := func(par int) []string {
		h := newHarness(t, 2, par)
		h.submit(joinQ(window.TumblingSpec(10), gt(0, 30), expr.True()))
		h.submit(aggQ(window.SlidingSpec(8, 4), sqlstream.AggSum, 0, gt(1, 40)))
		rng := rand.New(rand.NewSource(11))
		for i := 1; i <= 60; i++ {
			h.ingest(0, int64(rng.Intn(8)), event.Time(i), int64(rng.Intn(100)), int64(rng.Intn(100)))
			h.ingest(1, int64(rng.Intn(8)), event.Time(i), int64(rng.Intn(100)), int64(rng.Intn(100)))
		}
		h.eng.Drain()
		var all []Result
		for _, s := range h.sinks {
			all = append(all, s.all()...)
		}
		return canonResults(all)
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatalf("parallelism changed result count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallelism changed results at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestMultiNodeEngineCorrectness runs the shared engine in a simulated
// multi-node deployment (inter-node edges pay the codec) and checks results
// match the single-node run.
func TestMultiNodeEngineCorrectness(t *testing.T) {
	run := func(nodes int) []uint64 {
		eng, err := NewEngine(Config{
			Streams: 2, Parallelism: 4, Nodes: nodes,
			BatchSize: 1, WatermarkEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		counts := []uint64{0, 0}
		mkSink := func(i int) Sink {
			return SinkFunc(func(Result) {
				mu.Lock()
				counts[i]++
				mu.Unlock()
			})
		}
		q1 := &Query{Kind: KindAggregation, Arity: 1,
			Predicates: []expr.Predicate{expr.True()},
			Window:     window.TumblingSpec(10), Agg: sqlstream.AggSum, AggField: 0}
		q2 := &Query{Kind: KindJoin, Arity: 2,
			Predicates: []expr.Predicate{expr.True(), expr.True()},
			Window:     window.TumblingSpec(8), AggField: -1}
		for i, q := range []*Query{q1, q2} {
			_, ack, err := eng.Submit(q, mkSink(i))
			if err != nil {
				t.Fatal(err)
			}
			<-ack
		}
		for i := 1; i <= 100; i++ {
			for s := 0; s < 2; s++ {
				tu := event.Tuple{Key: int64(i % 7), Time: event.Time(i)}
				tu.Fields[0] = int64(i)
				if err := eng.Ingest(s, tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		eng.Drain()
		return counts
	}
	one := run(1)
	four := run(4)
	if one[0] != four[0] || one[1] != four[1] {
		t.Fatalf("multi-node results differ: %v vs %v", one, four)
	}
	if one[0] == 0 || one[1] == 0 {
		t.Fatal("queries produced nothing")
	}
}

func TestEngineTopologyChains(t *testing.T) {
	// Single stream, parallelism 1: the whole pipeline is one fused chain —
	// no exchanges, no per-operator goroutines beyond the source driver.
	h := newHarness(t, 1, 1)
	chains := h.eng.Chains()
	if len(chains) != 1 {
		t.Fatalf("S=1 P=1 chains = %v, want one chain", chains)
	}
	want := []string{"src-0", "select-0", "aggregate"}
	if len(chains[0]) != len(want) {
		t.Fatalf("chain = %v, want %v", chains[0], want)
	}
	for i, name := range want {
		if chains[0][i] != name {
			t.Fatalf("chain = %v, want %v", chains[0], want)
		}
	}
	dot := h.eng.TopologyDot()
	if !strings.Contains(dot, "cluster_chain_0") || !strings.Contains(dot, "chained") {
		t.Fatalf("TopologyDot missing chain rendering:\n%s", dot)
	}
	// The fused engine must still compute correct results.
	h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()))
	for i := 1; i <= 25; i++ {
		h.ingest(0, int64(i%4), event.Time(i), int64(i))
	}
	h.finish()

	// Parallelism > 1 keeps the src→select shuffle (it parallelizes
	// predicate work) but still fuses select→aggregate when S == 1.
	h2 := newHarness(t, 1, 4)
	chains2 := h2.eng.Chains()
	if len(chains2) != 1 || len(chains2[0]) != 2 ||
		chains2[0][0] != "select-0" || chains2[0][1] != "aggregate" {
		t.Fatalf("S=1 P=4 chains = %v, want [[select-0 aggregate]]", chains2)
	}
	h2.eng.Drain()

	// Multi-stream engines shuffle into joins on key: nothing fuses.
	h3 := newHarness(t, 2, 2)
	if chains3 := h3.eng.Chains(); len(chains3) != 0 {
		t.Fatalf("S=2 chains = %v, want none", chains3)
	}
	h3.eng.Drain()
}

func TestEngineValidationErrors(t *testing.T) {
	h := newHarness(t, 2, 1)
	defer h.eng.Drain()
	bad := []*Query{
		{Kind: KindJoin, Arity: 1, Predicates: []expr.Predicate{expr.True()}, Window: window.TumblingSpec(5)},
		{Kind: KindAggregation, Arity: 1, Predicates: []expr.Predicate{expr.True()}, Window: window.TumblingSpec(5)},
		{Kind: KindJoin, Arity: 3, Predicates: []expr.Predicate{expr.True(), expr.True(), expr.True()}, Window: window.TumblingSpec(5)},
		{Kind: KindComplex, Arity: 2, Predicates: []expr.Predicate{expr.True(), expr.True()},
			Window: window.SlidingSpec(10, 5), AggWindow: window.TumblingSpec(5), Agg: sqlstream.AggSum},
	}
	for i, q := range bad {
		if _, _, err := h.eng.Submit(q, nil); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
	zero := window.Spec{Kind: window.Tumbling}
	for _, tc := range []struct {
		name string
		q    *Query
		want string
	}{
		{"a predicate on no field", selQ(expr.True().And(expr.Comparison{Field: 99})), "field index"},
		{"a join window of length 0", joinQ(zero, expr.True(), expr.True()), "window:"},
		{"an aggregation window of length 0", aggQ(zero, sqlstream.AggSum, 0, expr.True()), "window:"},
		{"a complex join window of length 0", complexQ(zero, window.TumblingSpec(5), sqlstream.AggSum, 0, expr.True(), expr.True()), "window:"},
		{"a complex aggregation window of length 0", complexQ(window.TumblingSpec(5), zero, sqlstream.AggSum, 0, expr.True(), expr.True()), "window:"},
	} {
		if _, _, err := h.eng.Submit(tc.q, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := h.eng.StopQuery(999); err == nil {
		t.Error("stopping unknown query must fail")
	}
	if err := h.eng.Ingest(9, event.Tuple{}); err == nil {
		t.Error("ingest on unknown stream must fail")
	}
}

func TestEngineSubmitSQL(t *testing.T) {
	h := newHarness(t, 2, 1)
	sink := &collectSink{}
	id, ack, err := h.eng.SubmitSQL(
		`SELECT * FROM A, B [RANGE 10] WHERE A.KEY = B.KEY AND A.F0 > 5`, sink)
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	h.sinks[id] = sink
	h.ta[id] = h.curTime + 1
	h.td[id] = event.MaxTime
	h.defs[id] = joinQ(window.TumblingSpec(10), gt(0, 5), expr.True())
	h.defs[id].ID = id
	for i := 1; i <= 30; i++ {
		h.ingest(0, int64(i%3), event.Time(i), int64(i%10))
		h.ingest(1, int64(i%3), event.Time(i))
	}
	h.finish()

	if _, _, err := h.eng.SubmitSQL(`SELECT garbage`, nil); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, _, err := h.eng.SubmitSQL(`SELECT * FROM A, B [RANGE 10] WHERE A.F0 = B.F0`, nil); err == nil || !strings.Contains(err.Error(), "KEY = KEY") {
		t.Errorf("SQL that parses but joins on a field: %v", err)
	}
}

func TestEngineTernaryComplex(t *testing.T) {
	h := newHarness(t, 3, 2)
	h.submit(complexQ(window.TumblingSpec(8), window.TumblingSpec(16),
		sqlstream.AggSum, 1, expr.True(), gt(0, 30), expr.True()))
	rng := rand.New(rand.NewSource(15))
	for i := 1; i <= 60; i++ {
		for s := 0; s < 3; s++ {
			h.ingest(0+s, int64(rng.Intn(2)), event.Time(i), int64(rng.Intn(100)), int64(rng.Intn(10)))
		}
	}
	h.finish()
}

func TestEngineSessionChurn(t *testing.T) {
	h := newHarness(t, 1, 2)
	q1 := h.submit(aggQ(window.SessionSpec(4), sqlstream.AggSum, 0, expr.True()))
	emitBurst := func(from, n int) {
		for i := 0; i < n; i++ {
			h.ingest(0, int64(i%2), event.Time(from+i*2), 3)
		}
	}
	emitBurst(1, 10)
	h.ingest(0, 0, 40, 1) // gap closes earlier sessions
	h.submit(aggQ(window.SessionSpec(6), sqlstream.AggCount, -1, expr.True()))
	emitBurst(50, 8)
	h.stop(q1)
	emitBurst(80, 8)
	h.finish()
}

func TestEngineManyQueriesWideBitsets(t *testing.T) {
	// 80 concurrent queries force multi-word query-sets through the whole
	// pipeline (slot indexes past 64). With two streams the selection feeds
	// the aggregation over a keyed exchange (one stream fuses the two
	// operators). Six tuples share each event time, so no watermark flushes
	// between them and several sit in one exchange batch before the
	// aggregation reads them; their fields differ, and so do their wide
	// query-sets. Three complex queries past slot 80 join the streams with
	// nested predicates, so the pass-through tuples one join fire batches
	// for the aggregation carry different wide query-sets too.
	h := newHarness(t, 2, 2)
	for i := 0; i < 80; i++ {
		h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggCount, -1, gt(i%5, int64(10*(i%8)))))
	}
	for i := 0; i < 3; i++ {
		h.submit(complexQ(window.TumblingSpec(10), window.TumblingSpec(10), sqlstream.AggCount, -1, gt(4, int64(5*i)), expr.True()))
	}
	for i := 1; i <= 60; i++ {
		for k := 0; k < 6; k++ {
			j := 6*i + k
			h.ingest(0, int64(k), event.Time(i), int64(j%100), int64(j%80), int64(j%60), int64(j%40), int64(j%20))
			h.ingest(1, int64(k), event.Time(i), int64(j%7))
		}
	}
	h.finish()
}
