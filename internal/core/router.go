package core

import (
	"sync"
	"sync/atomic"

	"astream/internal/event"
	"astream/internal/window"
)

// Result is one query-addressed output row leaving the engine. It is eight
// machine words of integers and pointers, so an interface call to
// Sink.OnResult passes it whole in registers: no copy of the row is made on
// the way to a sink.
//
// Tuple and Join borrow a row the delivering operator owns, valid only for
// the duration of the OnResult call; the operator overwrites it for its next
// delivery. A sink that keeps a result past the call keeps r.Own().
type Result struct {
	QueryID int
	Kind    Kind
	// Window is the triggering window for windowed kinds.
	Window window.Extent
	// Key/Value are set for aggregation results.
	Key   int64
	Value int64
	// Tuple is the selected tuple of a selection result; for an aggregation
	// result it carries the row's key, its window end as Time and the
	// freshest contributing tuple's ingest time.
	Tuple *event.Tuple
	// Join is the joined row of a join result.
	Join *event.JoinedTuple
}

// EventTime is the result's event-time: the tuple's time, the join's
// max-time, or the window end for aggregations; 0 for a result without a row.
func (r Result) EventTime() event.Time {
	switch {
	case r.Join != nil:
		return r.Join.Time
	case r.Tuple != nil:
		return r.Tuple.Time
	}
	return 0
}

// IngestNanos is the ingestion wall-clock of the freshest contributing
// tuple, 0 when unknown; sinks subtract it from time.Now() for end-to-end
// latency (paper §3.4 samples latency at sinks).
func (r Result) IngestNanos() int64 {
	switch {
	case r.Join != nil:
		return r.Join.IngestNanos
	case r.Tuple != nil:
		return r.Tuple.IngestNanos
	}
	return 0
}

// Own returns a copy of r whose rows it owns: what a sink keeps past its
// OnResult call.
func (r Result) Own() Result {
	if r.Tuple != nil {
		t := *r.Tuple
		r.Tuple = &t
	}
	if r.Join != nil {
		j := *r.Join
		r.Join = &j
	}
	return r
}

// Sink consumes one query's results. OnResult is called from operator
// goroutines and must be safe for concurrent use. The result's rows are
// borrowed for the call (see Result): a sink that keeps one calls Own.
type Sink interface {
	OnResult(r Result)
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(Result)

// OnResult implements Sink.
func (f SinkFunc) OnResult(r Result) { f(r) }

// CountingSink counts results and samples end-to-end latency; it is the
// default sink attached to queries submitted without one.
type CountingSink struct {
	Count       uint64
	latSum      uint64 // nanos
	latN        uint64
	nowNanos    func() int64
	sampleEvery uint64
}

// NewCountingSink creates a sink sampling every n-th result's latency.
func NewCountingSink(nowNanos func() int64, sampleEvery int) *CountingSink {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &CountingSink{nowNanos: nowNanos, sampleEvery: uint64(sampleEvery)}
}

// OnResult implements Sink.
func (c *CountingSink) OnResult(r Result) {
	n := atomic.AddUint64(&c.Count, 1)
	if in := r.IngestNanos(); in > 0 && n%c.sampleEvery == 0 {
		d := c.nowNanos() - in
		if d > 0 {
			atomic.AddUint64(&c.latSum, uint64(d))
			atomic.AddUint64(&c.latN, 1)
		}
	}
}

// Results returns the delivered-result count.
func (c *CountingSink) Results() uint64 { return atomic.LoadUint64(&c.Count) }

// MeanLatencyNanos returns the sampled mean end-to-end latency (0 when no
// samples).
func (c *CountingSink) MeanLatencyNanos() uint64 {
	n := atomic.LoadUint64(&c.latN)
	if n == 0 {
		return 0
	}
	return atomic.LoadUint64(&c.latSum) / n
}

// Router delivers result rows to per-query output channels (paper §3.1.6).
// A result matching k queries is handed over k times, once per query channel
// (§3.2.2) — by Deliver, or by the join's fire, which resolves a trigger's
// sinks here once (SinkFor) and hands each its rows directly. The hand-over
// copies nothing: the Result travels in registers and borrows its row from
// the operator for the call; only a sink that keeps it copies it (Own).
//
// Delivery takes no lock: the sink table is a slice indexed by query ID
// (dense from 1) behind an atomic pointer, its published length beside it.
// Every ID ever created keeps its slot (stopped queries' sinks serve QoS and
// recovery), so Register writes a new ID's slot past the published length,
// then publishes the longer length: amortised O(1). Only doubling the
// capacity or rewriting a published slot copies the table.
type Router struct {
	tab atomic.Pointer[sinkTable]
	wmu sync.Mutex // serializes writers
}

// sinkTable is one backing: sinks[:n] published, sinks[n:] nil (no gap to clear).
type sinkTable struct {
	sinks []Sink
	n     atomic.Int64
}

// NewRouter creates an empty router. The metrics block is unused: delivery
// counts nothing.
func NewRouter(*OpMetrics) *Router {
	r := &Router{}
	r.publish(&sinkTable{}, 0)
	return r
}

// publish makes t.sinks[:n] the sink table. Those slots must not be written
// after this call: readers index them lock-free.
func (r *Router) publish(t *sinkTable, n int) {
	t.n.Store(int64(n))
	r.tab.Store(t)
}

// copy returns a private table of size slots holding t's published ones.
func (t *sinkTable) copy(size int) *sinkTable {
	c := &sinkTable{sinks: make([]Sink, size)}
	copy(c.sinks, t.sinks[:t.n.Load()])
	return c
}

// Register attaches the sink for a query. Registration happens before the
// query's changelog is released, so no result can race ahead of it.
func (r *Router) Register(queryID int, s Sink) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	t := r.tab.Load()
	n := int(t.n.Load())
	switch {
	case queryID < n:
		// a published slot: readers may be reading it
		t = t.copy(len(t.sinks))
	case queryID >= len(t.sinks):
		t = t.copy(max(2*len(t.sinks), queryID+1))
	}
	t.sinks[queryID] = s
	r.publish(t, max(n, queryID+1))
}

// Unregister detaches a stopped query's sink.
func (r *Router) Unregister(queryID int) {
	if r.SinkFor(queryID) != nil {
		r.Register(queryID, nil)
	}
}

// Deliver routes one result row to its query's sink; no lock is taken on
// this path.
func (r *Router) Deliver(res Result) {
	if s := r.SinkFor(res.QueryID); s != nil {
		s.OnResult(res)
	}
}

// Each visits every registered (query, sink) pair in ascending query ID.
func (r *Router) Each(fn func(queryID int, s Sink)) {
	t := r.tab.Load()
	for id, s := range t.sinks[:t.n.Load()] {
		if s != nil {
			fn(id, s)
		}
	}
}

// SinkFor returns the sink registered for a query, nil if there is none.
func (r *Router) SinkFor(queryID int) Sink {
	t := r.tab.Load()
	if uint(queryID) < uint(t.n.Load()) {
		return t.sinks[queryID]
	}
	return nil
}
