package main

import (
	"fmt"

	"astream/internal/core"
	"astream/internal/event"
)

// harness owns one engine run of one workload: the engine, the generator,
// the query population with its sinks, and the control-event script (probe
// swaps, churn batches). Everything the engine sees comes from here.
type harness struct {
	w  *workload
	sz sizing
	// target takes the query requests: the engine, or the stage replay's
	// hand-wired session. eng is nil in the stage replay.
	target queryTarget
	eng    *core.Engine
	feed   *feeder
	ctl    *sinkCtl

	// newSink makes the sink of the i-th aggregation/join query ever
	// submitted; phases that verify outputs install checksumming sinks.
	newSink func(i int, q *core.Query) resultSink
	sinks   []resultSink

	// probing is on while deployment probes are measured (the open phase).
	// churn512 swaps a probe at every control event regardless; the other
	// workloads have control events only while probing.
	probing bool
	// probeUntil, when set, is the generator position past which probing
	// switches itself off.
	probeUntil int
	probes     []*probeSink
	probeID    int // engine ID of the live probe, 0 when none

	nextQuery int   // index of the next query to create (churn)
	live      []int // engine IDs of live churn aggregations, oldest first
	// life records, per query index, the event-time interval the query is
	// live in; the reference checker replays it. indexOf maps engine IDs back.
	life    []refQuery
	indexOf map[int]int

	// onControl, when set, wraps each control event's Submit/StopQuery
	// batch (the traced run records a span around it).
	onControl func(batch func())

	attempted int      // queries submitted + stopped
	failed    int      // failed operations of any kind
	failures  []string // the first few, for the report
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.failures) < 10 {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

// resultSink is a query's sink that also knows how many results it has seen.
type resultSink interface {
	core.Sink
	count() uint64
}

// queryTarget is the query-request surface the control script drives.
type queryTarget interface {
	Submit(q *core.Query, sink core.Sink) (int, <-chan struct{}, error)
	StopQuery(id int) (<-chan struct{}, error)
}

// newHarness builds the engine and the generator; deploy must follow.
func newHarness(w *workload, sz sizing, seed int64, cfg core.Config) (*harness, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	h := newHarnessOn(w, sz, seed, eng, eng.Ingest)
	h.eng = eng
	return h, nil
}

// newHarnessOn wires the control script and the generator to any target.
func newHarnessOn(w *workload, sz sizing, seed int64, target queryTarget, ingest func(int, event.Tuple) error) *harness {
	h := &harness{w: w, sz: sz, target: target, indexOf: map[int]int{}}
	h.ctl = &sinkCtl{sampleEvery: uint64(w.sampleEvery)}
	h.newSink = func(int, *core.Query) resultSink { return &querySink{ctl: h.ctl} }
	h.feed = &feeder{
		ingest:      ingest,
		blocks:      w.dataBlocks(seed),
		keys:        sz.keys,
		tuplesPerMs: sz.tuplesPerMs,
		stamp:       1,
		eventEvery:  sz.eventTuples,
		toEvent:     sz.eventTuples,
		onEvent:     h.controlEvent,
	}
	return h
}

func (h *harness) submit(q *core.Query, sink core.Sink) int {
	h.attempted++
	id, _, err := h.target.Submit(q, sink)
	if err != nil {
		h.fail("submit: %v", err)
	}
	return id
}

// changelogTime is the event-time the session stamps on a changelog cut now:
// one past the newest ingested tuple, and 1 before any tuple.
func (h *harness) changelogTime() event.Time {
	if h.feed.ms < 1 {
		return 1
	}
	return h.feed.ms
}

func (h *harness) stop(id int) {
	h.attempted++
	if i, ok := h.indexOf[id]; ok {
		h.life[i].until = h.changelogTime()
	}
	if _, err := h.target.StopQuery(id); err != nil {
		h.fail("stop %d: %v", id, err)
	}
}

func (h *harness) submitQuery(q *core.Query) int {
	sink := h.newSink(h.nextQuery, q)
	h.sinks = append(h.sinks, sink)
	h.life = append(h.life, refQuery{index: h.nextQuery, q: q, since: h.changelogTime(), until: event.MaxTime})
	id := h.submit(q, sink)
	h.indexOf[id] = h.nextQuery
	h.nextQuery++
	return id
}

// deploy submits the initial population. Its size is a multiple of the
// session batch size, so every changelog is released synchronously here.
func (h *harness) deploy() {
	for _, q := range h.w.population() {
		id := h.submitQuery(q)
		if h.w.churn {
			h.live = append(h.live, id)
		}
	}
}

// controlEvent runs after the last tuple of every eventMs-th millisecond.
// Its requests fill exactly one session batch (churn512: 8 creations and 8
// deletions; elsewhere batches of one), so the changelog is cut inside this
// call, at a deterministic event-time.
func (h *harness) controlEvent() {
	if h.probeUntil > 0 && h.feed.idx > h.probeUntil {
		h.probing = false
	}
	if !h.w.churn && !h.probing {
		return
	}
	batch := func() {
		prev := h.probeID
		p := &probeSink{submitNs: nowNs()}
		h.probeID = h.submit(probeQuery(), p)
		if h.probing {
			h.probes = append(h.probes, p)
		}
		if !h.w.churn {
			if prev != 0 {
				h.stop(prev)
			}
			return
		}
		for i := 0; i < churnBatch-1; i++ {
			h.live = append(h.live, h.submitQuery(churnQuery(h.nextQuery)))
		}
		deletes := churnBatch
		if prev != 0 {
			h.stop(prev)
			deletes--
		}
		for _, id := range h.live[:deletes] {
			h.stop(id)
		}
		h.live = h.live[deletes:]
	}
	if h.onControl != nil {
		h.onControl(batch)
		return
	}
	batch()
}

// results sums the aggregation/join sinks (probes are counted separately).
func (h *harness) results() (total uint64) {
	for _, s := range h.sinks {
		total += s.count()
	}
	return total
}

func (h *harness) probeResults() (total uint64) {
	for _, p := range h.probes {
		total += p.n.Load()
	}
	return total
}

// finish drains the engine and folds the engine-side failure surfaces into
// the harness's own: rejected session batches and supervised instance
// failures count as failed operations.
func (h *harness) finish() {
	h.eng.Drain()
	for _, err := range h.eng.SessionErrors() {
		h.fail("session: %v", err)
	}
	for _, f := range h.eng.InstanceFailures() {
		h.fail("instance: %v", f.Error())
	}
	if h.feed.failed > 0 {
		h.fail("%d ingest errors", h.feed.failed)
		h.failed += h.feed.failed - 1
	}
}
