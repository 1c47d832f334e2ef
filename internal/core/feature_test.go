package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// TestStoreSwitchMarker: a join engine holds its results to the reference
// with 2 queries, with 5, and with 5 of which 3 stop mid-run. Each run drains
// before its results are checked.
func TestStoreSwitchMarker(t *testing.T) {
	run := func(create int, stopFirst int) {
		eng, err := NewEngine(Config{
			Streams: 2, Parallelism: 1, BatchSize: 1, BatchTimeout: time.Hour,
			WatermarkEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := &harness{
			t: t, eng: eng,
			inputs: make([][]event.Tuple, 2),
			sinks:  map[int]*collectSink{},
			ta:     map[int]event.Time{},
			td:     map[int]event.Time{},
			defs:   map[int]*Query{},
		}
		var ids []int
		for i := 0; i < create; i++ {
			ids = append(ids, h.submit(joinQ(window.TumblingSpec(8), expr.True(), expr.True())))
		}
		for i := 1; i <= 20; i++ {
			h.ingest(0, int64(i%3), event.Time(i))
			h.ingest(1, int64(i%3), event.Time(i))
		}
		for i := 0; i < stopFirst; i++ {
			h.stop(ids[i])
		}
		for i := 21; i <= 40; i++ {
			h.ingest(0, int64(i%3), event.Time(i))
			h.ingest(1, int64(i%3), event.Time(i))
		}
		h.finish() // drains and checks results against the reference
	}
	run(2, 0)
	run(5, 0)
	run(5, 3)
}

// TestEngineQoS exercises the §3.4 QoS report. The injected clock advances
// deterministically; deployment latency now comes entirely from NowNanos
// (no wall-clock leakage), so a frozen clock would legitimately report 0.
func TestEngineQoS(t *testing.T) {
	var clock int64
	eng, err := NewEngine(Config{
		Streams: 1, Parallelism: 1, BatchSize: 1, BatchTimeout: time.Hour,
		WatermarkEvery: 1, NowNanos: func() int64 { return atomic.AddInt64(&clock, 1000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Default sink (counting) → appears in the QoS report.
	q := aggQ(window.TumblingSpec(10), sqlstream.AggCount, -1, expr.True())
	id, ack, err := eng.Submit(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	for i := 1; i <= 40; i++ {
		if err := eng.Ingest(0, event.Tuple{Key: int64(i % 2), Time: event.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	r := eng.QoS()
	if r.Selected == 0 {
		t.Fatalf("QoS selected = 0: %+v", r)
	}
	if r.AggResults == 0 {
		t.Fatalf("QoS agg results = 0: %+v", r)
	}
	if len(r.Queries) != 1 || r.Queries[0].ID != id || r.Queries[0].Results == 0 {
		t.Fatalf("QoS per-query = %+v", r.Queries)
	}
	if r.DeploymentMean <= 0 {
		t.Fatalf("QoS deployment mean = %v", r.DeploymentMean)
	}
}

// TestEngineOutOfOrderInput verifies the integration requirement of §1.2:
// with a lateness bound, jittered (out-of-order) event times still produce
// the reference results.
func TestEngineOutOfOrderInput(t *testing.T) {
	eng, err := NewEngine(Config{
		Streams: 1, Parallelism: 2, BatchSize: 1, BatchTimeout: time.Hour,
		WatermarkEvery: 1, Lateness: 8, NowNanos: func() int64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t: t, eng: eng,
		inputs: make([][]event.Tuple, 1),
		sinks:  map[int]*collectSink{},
		ta:     map[int]event.Time{},
		td:     map[int]event.Time{},
		defs:   map[int]*Query{},
	}
	h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()))
	// Jittered times: monotone base with ±4 disorder (< lateness 8).
	rng := rand.New(rand.NewSource(12))
	for i := 5; i <= 120; i++ {
		jit := event.Time(i) + event.Time(rng.Intn(9)-4)
		h.ingest(0, int64(i%3), jit, int64(i))
	}
	h.finish()
	if late := eng.Metrics().Late; late != 0 {
		t.Fatalf("in-bound disorder dropped %d tuples as late", late)
	}
}

// TestEngineOutOfOrderAcrossChangelog verifies that a tuple older than a
// changelog (but within lateness) is classified against the query table of
// ITS event-time, not the newest one.
func TestEngineOutOfOrderAcrossChangelog(t *testing.T) {
	eng, err := NewEngine(Config{
		Streams: 1, Parallelism: 1, BatchSize: 1, BatchTimeout: time.Hour,
		WatermarkEvery: 1, Lateness: 10, NowNanos: func() int64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	q := aggQ(window.TumblingSpec(20), sqlstream.AggCount, -1, expr.True())
	_, ack, err := eng.Submit(q, sink)
	if err != nil {
		t.Fatal(err)
	}
	<-ack // activates at Ta = 1
	// Ingest up to t=30 so the next query's changelog lands at 31.
	for i := 1; i <= 30; i++ {
		if err := eng.Ingest(0, event.Tuple{Key: 1, Time: event.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sink2 := &collectSink{}
	q2 := aggQ(window.TumblingSpec(20), sqlstream.AggCount, -1, expr.True())
	_, ack2, err := eng.Submit(q2, sink2)
	if err != nil {
		t.Fatal(err)
	}
	<-ack2 // activates at Ta2 = 31
	// A late tuple with t=28 (< 31, within lateness) must count for q but
	// NOT for q2; a tuple with t=32 counts for both.
	if err := eng.Ingest(0, event.Tuple{Key: 1, Time: 28}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(0, event.Tuple{Key: 1, Time: 32}); err != nil {
		t.Fatal(err)
	}
	for i := 33; i <= 60; i++ {
		if err := eng.Ingest(0, event.Tuple{Key: 1, Time: event.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()

	count := func(rs []Result, ws event.Time) int64 {
		for _, r := range rs {
			if r.Window.Start == ws {
				return r.Value
			}
		}
		return -1
	}
	// Window [20,40): q sees tuples 20..30 (11), late 28 (1), 32..39 (8) = 20.
	if got := count(sink.all(), 20); got != 20 {
		t.Fatalf("q window [20,40) count = %d, want 20", got)
	}
	// q2 sees only t ≥ 31: 32..39 = 8 (the late t=28 must not leak in).
	if got := count(sink2.all(), 20); got != 8 {
		t.Fatalf("q2 window [20,40) count = %d, want 8", got)
	}
}

// TestEngineLateTupleDropped verifies tuples behind the watermark horizon
// are counted as late rather than corrupting closed windows.
func TestEngineLateTupleDropped(t *testing.T) {
	eng, err := NewEngine(Config{
		Streams: 1, Parallelism: 1, BatchSize: 1, BatchTimeout: time.Hour,
		WatermarkEvery: 1, Lateness: 0, NowNanos: func() int64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	_, ack, _ := eng.Submit(aggQ(window.TumblingSpec(10), sqlstream.AggCount, -1, expr.True()), sink)
	<-ack
	for i := 1; i <= 50; i++ {
		if err := eng.Ingest(0, event.Tuple{Key: 1, Time: event.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Way-late tuple: windows [0,10).. already fired.
	if err := eng.Ingest(0, event.Tuple{Key: 1, Time: 2}); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	// Window [0,10) must still report 9 (tuples 1..9), not 10.
	for _, r := range sink.all() {
		if r.Window.Start == 0 && r.Value != 9 {
			t.Fatalf("late tuple corrupted closed window: %+v", r)
		}
	}
	if eng.Metrics().Late == 0 {
		t.Fatal("late tuple not counted")
	}
}

// TestSlicerQuickBoundsContainT property-checks boundsAt: the computed
// extent always contains t and respects epoch boundaries.
func TestSlicerQuickBoundsContainT(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		s := newSlicer()
		at := event.Time(0)
		seq := uint64(1)
		epochs := []event.Time{event.MinTime}
		for e := 0; e < 1+rng.Intn(4); e++ {
			at += event.Time(1 + rng.Intn(30))
			var specs []window.Spec
			for q := 0; q < rng.Intn(3); q++ {
				l := event.Time(2 + rng.Intn(12))
				sl := event.Time(1 + rng.Intn(int(l)))
				specs = append(specs, window.SlidingSpec(l, sl))
			}
			if err := s.addEpoch(at, seq, specs, true); err != nil {
				t.Fatal(err)
			}
			epochs = append(epochs, at)
			seq++
		}
		for probe := 0; probe < 30; probe++ {
			tt := event.Time(rng.Intn(150))
			ext, epoch := s.boundsAt(tt)
			if !ext.Contains(tt) {
				t.Fatalf("boundsAt(%v) = %v does not contain t", tt, ext)
			}
			// The extent must not straddle any epoch boundary.
			for i, from := range epochs {
				if from > ext.Start && from < ext.End {
					t.Fatalf("extent %v straddles epoch boundary %v", ext, from)
				}
				if from <= tt && uint64(i) > epoch {
					t.Fatalf("epoch %d at t=%v, but boundary %v (epoch %d) passed", epoch, tt, from, i)
				}
			}
		}
	}
}

// TestSharedNaryJoinStageReuse verifies §3.1.5's shared n-ary joins: an
// arity-2 join query and an arity-3 join query share the first join stage,
// and slice-pair results computed for one serve the other (pair-cache
// reuse).
func TestSharedNaryJoinStageReuse(t *testing.T) {
	h := newHarness(t, 3, 1)
	// Different window geometries over the same stage: the sliding query's
	// overlapping windows revisit slice pairs the tumbling queries already
	// joined, which is where the pair cache pays off.
	h.submit(joinQ(window.SlidingSpec(8, 4), expr.True(), expr.True()))
	h.submit(joinQ(window.TumblingSpec(8), expr.True(), expr.True(), expr.True()))
	for i := 1; i <= 40; i++ {
		for s := 0; s < 3; s++ {
			h.ingest(s, int64(i%2), event.Time(i))
		}
	}
	h.finish() // both queries checked against the reference
	m := h.eng.Metrics()
	if m.PairsReuse == 0 {
		t.Fatalf("no pair-cache reuse across the shared join stage: done=%d reuse=%d",
			m.PairsDone, m.PairsReuse)
	}
	// Stage 0 must have registered both queries at some point; stage 1
	// only the ternary one.
	if got := h.eng.joinLogics[1][0].ActiveQueries(); got > 1 {
		t.Fatalf("stage 1 active queries = %d, want ≤ 1", got)
	}
}

// TestSelectionWorkIsShared quantifies requirement 3 (performance through
// sharing): with N identical aggregation queries, each input tuple passes
// the shared selection exactly once — the Selected counter tracks tuples,
// not tuples × queries.
func TestSelectionWorkIsShared(t *testing.T) {
	h := newHarness(t, 1, 1)
	const N = 10
	for i := 0; i < N; i++ {
		h.submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()))
	}
	const tuples = 200
	for i := 1; i <= tuples; i++ {
		h.ingest(0, int64(i%5), event.Time(i), 1)
	}
	h.finish()
	m := h.eng.Metrics()
	sel := atomicLoad(&m.Selected)
	if sel != tuples {
		t.Fatalf("Selected = %d, want %d (one pass per tuple, not per query)", sel, tuples)
	}
	// Each query still received its own full result stream.
	for id, sink := range h.sinks {
		if len(sink.all()) == 0 {
			t.Fatalf("query %d starved", id)
		}
	}
}

func atomicLoad(p *uint64) uint64 { return atomic.LoadUint64(p) }
