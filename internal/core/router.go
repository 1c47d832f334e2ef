package core

import (
	"sync"
	"sync/atomic"

	"astream/internal/event"
	"astream/internal/window"
)

// Result is one query-addressed output row leaving the engine.
type Result struct {
	QueryID int
	Kind    Kind
	// Window is the triggering window for windowed kinds.
	Window window.Extent
	// Tuple is set for selection results.
	Tuple event.Tuple
	// Join is set for join results.
	Join event.JoinedTuple
	// Key/Value are set for aggregation results.
	Key   int64
	Value int64
	// EventTime is the result's event-time (tuple time, join max-time, or
	// window end for aggregations).
	EventTime event.Time
	// IngestNanos is the ingestion wall-clock of the freshest contributing
	// tuple; sinks subtract it from time.Now() for end-to-end latency
	// (paper §3.4 samples latency at sinks).
	IngestNanos int64
}

// Sink consumes one query's results. OnResult is called from operator
// goroutines and must be safe for concurrent use.
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
	if r.IngestNanos > 0 && n%c.sampleEvery == 0 {
		d := c.nowNanos() - r.IngestNanos
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
// The hand-over to a sink is the one place AStream copies data: a result
// matching k queries is materialized k times, once per query channel
// (§3.2.2) — by Deliver, or by the join's fire, which resolves a trigger's
// sinks here once (SinkFor) and hands each its rows directly.
//
// Registration is rare (once per query lifecycle) while delivery runs per
// result on every operator goroutine, so the sink table is copy-on-write: an
// immutable map behind an atomic pointer. Deliver does one atomic load and
// an uncontended map read; writers copy the map under a mutex that only
// serializes other writers.
type Router struct {
	sinks atomic.Pointer[map[int]Sink]
	wmu   sync.Mutex // serializes Register/Unregister copies
}

// NewRouter creates an empty router. The metrics block is unused: delivery
// counts nothing.
func NewRouter(*OpMetrics) *Router {
	r := &Router{}
	r.publish(make(map[int]Sink))
	return r
}

// publish installs a sink table. The map must not be mutated after this
// call: readers access it lock-free.
func (r *Router) publish(m map[int]Sink) {
	r.sinks.Store(&m)
}

// Register attaches the sink for a query. Registration happens before the
// query's changelog is released, so no result can race ahead of it.
func (r *Router) Register(queryID int, s Sink) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	cur := *r.sinks.Load()
	next := make(map[int]Sink, len(cur)+1)
	for id, sk := range cur {
		next[id] = sk
	}
	next[queryID] = s
	r.publish(next)
}

// Unregister detaches a stopped query's sink.
func (r *Router) Unregister(queryID int) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	cur := *r.sinks.Load()
	if _, ok := cur[queryID]; !ok {
		return
	}
	next := make(map[int]Sink, len(cur))
	for id, sk := range cur {
		if id != queryID {
			next[id] = sk
		}
	}
	r.publish(next)
}

// Deliver routes one result row to its query's sink. The per-query copy has
// already happened by value in res; no lock is taken on this path.
func (r *Router) Deliver(res Result) {
	if s := (*r.sinks.Load())[res.QueryID]; s != nil {
		s.OnResult(res)
	}
}

// Each visits every registered (query, sink) pair.
func (r *Router) Each(fn func(queryID int, s Sink)) {
	for id, s := range *r.sinks.Load() {
		fn(id, s)
	}
}

// SinkFor returns the sink registered for a query, nil if there is none.
func (r *Router) SinkFor(queryID int) Sink {
	return (*r.sinks.Load())[queryID]
}
