package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// TestSessionBatchTimeout verifies the shared session's timeout path
// (§3.1.1): with a large batch size, a lone request is released when the
// timeout fires, not immediately.
func TestSessionBatchTimeout(t *testing.T) {
	eng, err := NewEngine(Config{
		Streams: 1, Parallelism: 1,
		BatchSize: 100, BatchTimeout: 30 * time.Millisecond,
		WatermarkEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, ack, err := eng.Submit(aggQ(window.TumblingSpec(10), sqlstream.AggCount, -1, expr.True()), nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ack:
		if el := time.Since(start); el < 20*time.Millisecond {
			t.Fatalf("ack after %v: batch released before the timeout", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout flush never happened")
	}
	recs := eng.DeployRecords()
	if len(recs) != 1 || recs[0].Latency < 20*time.Millisecond {
		t.Fatalf("deploy record = %+v, want ≥ timeout", recs)
	}
	eng.Drain()
}

// TestSessionBatchSizeFlush verifies the batch-size path: the batch is
// released as soon as it fills, without waiting for the timeout.
func TestSessionBatchSizeFlush(t *testing.T) {
	eng, err := NewEngine(Config{
		Streams: 1, Parallelism: 1,
		BatchSize: 3, BatchTimeout: time.Hour,
		WatermarkEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var acks []<-chan struct{}
	for i := 0; i < 3; i++ {
		_, ack, err := eng.Submit(aggQ(window.TumblingSpec(10), sqlstream.AggCount, -1, expr.True()), nil)
		if err != nil {
			t.Fatal(err)
		}
		acks = append(acks, ack)
	}
	for i, ack := range acks {
		select {
		case <-ack:
		case <-time.After(2 * time.Second):
			t.Fatalf("ack %d not released on batch fill", i)
		}
	}
	// One changelog for all three (same deployment batch).
	if eng.registry.LastSeq() != 1 {
		t.Fatalf("changelog seq = %d, want 1 (single batch)", eng.registry.LastSeq())
	}
	eng.Drain()
}

// TestSubmitAfterDrainFails verifies lifecycle errors.
func TestSubmitAfterDrainFails(t *testing.T) {
	eng, err := NewEngine(Config{Streams: 1, BatchSize: 1, WatermarkEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if _, _, err := eng.Submit(aggQ(window.TumblingSpec(10), sqlstream.AggCount, -1, expr.True()), nil); err == nil {
		t.Fatal("submit after drain must fail")
	}
	// Drain is idempotent.
	eng.Drain()
}

// TestRouterDelivery exercises Register/Unregister/Each/Deliver directly.
func TestRouterDelivery(t *testing.T) {
	r := NewRouter(&OpMetrics{})
	var mu sync.Mutex
	got := map[int]int{}
	mk := func(id int) Sink {
		return SinkFunc(func(res Result) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		})
	}
	r.Register(1, mk(1))
	r.Register(2, mk(2))
	r.Deliver(Result{QueryID: 1})
	r.Deliver(Result{QueryID: 2})
	r.Deliver(Result{QueryID: 3}) // no sink: dropped silently
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("delivery counts = %v", got)
	}
	n := 0
	r.Each(func(int, Sink) { n++ })
	if n != 2 {
		t.Fatalf("Each visited %d sinks", n)
	}
	r.Unregister(1)
	r.Deliver(Result{QueryID: 1})
	if got[1] != 1 {
		t.Fatal("unregistered sink still receiving")
	}
	if r.SinkFor(2) == nil || r.SinkFor(1) != nil {
		t.Fatal("SinkFor wrong")
	}
}

// TestRouterRegisterAppendsInPlace: a query past the end of the sink table
// is appended in place, so registering IDs 1..N allocates only when the
// table's capacity doubles; a table a reader holds reads unchanged after an
// append, the rewrite of a published slot, or an Unregister; and Each visits
// IDs ascending.
func TestRouterRegisterAppendsInPlace(t *testing.T) {
	const n = 1000
	sink := SinkFunc(func(Result) {})
	allocs := testing.AllocsPerRun(5, func() {
		r := NewRouter(nil)
		for id := 1; id <= n; id++ {
			r.Register(id, sink)
		}
	})
	// The router and its empty table, then a table and its backing at each
	// doubling: 2, 4, ..., 1024 slots.
	if budget := 2 + 2*bits.Len(n); allocs > float64(budget) {
		t.Fatalf("registering IDs 1..%d allocated %.0f times, want at most %d", n, allocs, budget)
	}

	r := NewRouter(nil)
	own := make([]Sink, 40)
	for id := range own {
		own[id] = NewCountingSink(nil, 1)
	}
	// held is the table as a reader holds it between its two loads.
	held := func() []Sink {
		tab := r.tab.Load()
		return tab.sinks[:tab.n.Load()]
	}
	unchanged := func(what string, change func()) {
		t.Helper()
		before := held()
		want := slices.Clone(before)
		change()
		if !slices.Equal(before, want) {
			t.Fatalf("%s changed a published table: %v, was %v", what, before, want)
		}
	}
	inPlace := 0
	for id := 1; id < len(own); id++ {
		before := r.tab.Load()
		unchanged(fmt.Sprintf("appending %d", id), func() { r.Register(id, own[id]) })
		if r.tab.Load() == before {
			inPlace++
		}
		if r.SinkFor(id) != own[id] {
			t.Fatalf("SinkFor(%d) is not its sink", id)
		}
	}
	if doublings := bits.Len(uint(len(own) - 1)); inPlace != len(own)-1-doublings {
		t.Fatalf("%d of %d appends in place, want all but the %d doublings", inPlace, len(own)-1, doublings)
	}
	unchanged("rewriting slot 5", func() { r.Register(5, own[0]) })
	unchanged("unregistering 7", func() { r.Unregister(7) })
	if r.SinkFor(5) != own[0] || r.SinkFor(7) != nil {
		t.Fatal("a rewritten or unregistered slot reads its old sink")
	}
	var ids []int
	r.Each(func(id int, _ Sink) { ids = append(ids, id) })
	if len(ids) != len(own)-2 || !slices.IsSorted(ids) {
		t.Fatalf("Each visited %v", ids)
	}
}

// TestRouterDeliverDuringRegister: delivery, SinkFor and Each run lock-free
// while another goroutine registers; under -race, any slot a reader can
// index being written is a reported race. Every result reaches its own
// query's sink.
func TestRouterDeliverDuringRegister(t *testing.T) {
	const n = 2000
	r := NewRouter(nil)
	var got [n + 1]atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := 1; id <= n; id++ {
			r.Register(id, SinkFunc(func(res Result) {
				if res.QueryID != id {
					t.Errorf("query %d's sink got a result of query %d", id, res.QueryID)
				}
				got[id].Add(1)
			}))
		}
	}()
	rng := rand.New(rand.NewSource(1))
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		id := 1 + rng.Intn(n)
		r.Deliver(Result{QueryID: id})
		if s := r.SinkFor(id); s != nil {
			s.OnResult(Result{QueryID: id})
		}
		last := 0
		r.Each(func(id int, _ Sink) {
			if id <= last {
				t.Errorf("Each visited %d after %d", id, last)
			}
			last = id
		})
	}
	for id := 1; id <= n; id++ {
		r.Deliver(Result{QueryID: id})
		if got[id].Load() == 0 {
			t.Fatalf("query %d's sink got nothing", id)
		}
	}
}

// TestCountingSink verifies the default sink's counters and latency
// sampling.
func TestCountingSink(t *testing.T) {
	now := int64(1000)
	s := NewCountingSink(func() int64 { return now }, 1)
	for i := 0; i < 10; i++ {
		s.OnResult(Result{Tuple: &event.Tuple{IngestNanos: 400}})
	}
	if s.Results() != 10 {
		t.Fatalf("results = %d", s.Results())
	}
	if s.MeanLatencyNanos() != 600 {
		t.Fatalf("mean latency = %d, want 600", s.MeanLatencyNanos())
	}
	// Zero ingest time → no latency sample.
	s2 := NewCountingSink(func() int64 { return now }, 1)
	s2.OnResult(Result{})
	if s2.MeanLatencyNanos() != 0 {
		t.Fatal("latency sampled without ingest time")
	}
	// sampleEvery < 1 clamps to 1.
	s3 := NewCountingSink(func() int64 { return now }, 0)
	s3.OnResult(Result{Join: &event.JoinedTuple{IngestNanos: 999}})
	if s3.Results() != 1 {
		t.Fatal("clamped sink broken")
	}
}

// TestCompileSQLErrors covers the compile-time rejections.
func TestCompileSQLErrors(t *testing.T) {
	parse := func(src string) error {
		sq, err := sqlstream.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		_, err = CompileSQL(sq)
		return err
	}
	if err := parse(`SELECT * FROM A, B [RANGE 5] WHERE A.F0 = B.F0`); err == nil {
		t.Error("non-key join condition must be rejected")
	}
	if err := parse(`SELECT SUM(A.F0) FROM A [RANGE 5] GROUPBY A.KEY`); err != nil {
		t.Errorf("valid aggregation rejected: %v", err)
	}
}

// TestKindStrings covers the Stringers.
func TestKindStrings(t *testing.T) {
	if KindSelection.String() != "selection" || KindJoin.String() != "join" ||
		KindAggregation.String() != "aggregation" || KindComplex.String() != "complex" {
		t.Fatal("Kind strings")
	}
}

// TestChangelogTimes covers how the session picks a changelog's time: one
// past the highest event-time any stream ingested, at least 1, and not moved
// by an out-of-order tuple.
func TestChangelogTimes(t *testing.T) {
	eng, err := NewEngine(Config{Streams: 2, BatchSize: 1, Lateness: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Drain()
	if got := eng.nextChangelogTime(); got != 1 {
		t.Fatalf("empty next = %v, want 1", got)
	}
	for _, in := range []struct {
		stream int
		at     event.Time
		want   event.Time
	}{{0, 10, 11}, {1, 7, 11}, {1, 50, 51}, {0, 20, 51}, {1, 30, 51}} {
		if err := eng.Ingest(in.stream, event.Tuple{Time: in.at}); err != nil {
			t.Fatal(err)
		}
		if got := eng.nextChangelogTime(); got != in.want {
			t.Fatalf("after t=%v on stream %d: next = %v, want %v", in.at, in.stream, got, in.want)
		}
	}
}
