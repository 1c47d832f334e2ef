// Package baseline implements the query-at-a-time engine that plays vanilla
// Flink's role in the paper's evaluation (§4): every query runs its own
// dataflow topology over a forked copy of the input stream.
//
// The structural costs the paper attributes to this model are preserved:
//
//   - The input stream is forked: one ingested tuple is pushed into every
//     query's topology, so per-tuple work grows linearly with the number of
//     concurrent queries (no sharing).
//   - Deploying or stopping a query is a stop-the-world "savepoint" step:
//     ingestion pauses, every running topology drains its in-flight work,
//     then the topology set changes. Deployment latency therefore grows
//     with the number of running queries and the backlog — the Figure 10
//     behaviour ("deployment latency keeps increasing").
//   - Windowed joins buffer raw tuples per window (one copy per overlapping
//     sliding window), the non-incremental strategy the paper calls out for
//     Flink's window joins; aggregations fold incrementally per window, the
//     part Flink does support natively (§4.5).
package baseline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/spe"
)

// Config parameterizes the baseline engine; fields mirror core.Config where
// they overlap.
type Config struct {
	Streams        int
	Parallelism    int
	Nodes          int
	Lateness       event.Time
	WatermarkEvery event.Time
	NowNanos       func() int64
}

func (c *Config) setDefaults() {
	if c.Streams <= 0 {
		c.Streams = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.WatermarkEvery <= 0 {
		c.WatermarkEvery = 10
	}
	if c.NowNanos == nil {
		c.NowNanos = func() int64 { return time.Now().UnixNano() }
	}
}

// Engine is the query-at-a-time baseline. It implements the same submission
// and ingestion surface as core.Engine so the experiment driver treats both
// as systems under test.
type Engine struct {
	cfg Config

	// world serializes ingestion (read side) against topology changes
	// (write side): deploy/stop are stop-the-world, as a savepoint-restart
	// deployment is.
	world sync.RWMutex

	jobs    map[int]*queryJob
	nextID  int64
	stopped bool

	lastTime []event.Time // per stream, guarded by world (writers hold RLock
	// but ingestion is single-goroutine per stream by contract, and these
	// are per-engine maxima updated only under RLock by that goroutine).
	timeMu sync.Mutex

	recMu   sync.Mutex
	records []core.DeployRecord

	maxHorizon int64

	// forked counts tuple copies pushed into per-query topologies: the
	// baseline's per-tuple work, deterministic for a fixed input.
	forked atomic.Uint64
}

// queryJob is one deployed per-query topology.
type queryJob struct {
	id   int
	q    *core.Query
	job  *spe.Job
	scs  []*spe.SourceContext // one per stream the query reads
	sink *sinkWrapper

	lastTime []event.Time
	lastWM   []event.Time

	// Savepoint plumbing: instances counts the topology's operator
	// instances; snaps collects per-barrier snapshot acknowledgements;
	// nextBarrier numbers savepoints.
	instances   int
	snaps       *snapCounter
	nextBarrier uint64
	stateBytes  uint64 // last savepoint's serialized state size
}

// snapCounter counts snapshot callbacks per barrier (spe.SnapshotSink).
type snapCounter struct {
	mu    sync.Mutex
	seen  map[uint64]int
	bytes map[uint64]uint64
	cond  *sync.Cond
}

func newSnapCounter() *snapCounter {
	c := &snapCounter{seen: map[uint64]int{}, bytes: map[uint64]uint64{}}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// OnSnapshot implements spe.SnapshotSink.
func (c *snapCounter) OnSnapshot(op string, instance int, barrier uint64, state []byte) {
	c.mu.Lock()
	c.seen[barrier]++
	c.bytes[barrier] += uint64(len(state))
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *snapCounter) await(barrier uint64, total int) uint64 {
	c.mu.Lock()
	for c.seen[barrier] < total {
		c.cond.Wait()
	}
	b := c.bytes[barrier]
	delete(c.seen, barrier)
	delete(c.bytes, barrier)
	c.mu.Unlock()
	return b
}

// NewEngine creates an empty baseline engine (no topologies yet).
func NewEngine(cfg Config) (*Engine, error) {
	cfg.setDefaults()
	e := &Engine{
		cfg:      cfg,
		jobs:     make(map[int]*queryJob),
		lastTime: make([]event.Time, cfg.Streams),
	}
	for i := range e.lastTime {
		e.lastTime[i] = event.MinTime
	}
	return e, nil
}

// InstanceCount returns the operator instances deployed across all query
// topologies; it grows with every query, where core.Engine's stays fixed.
func (e *Engine) InstanceCount() int {
	e.world.RLock()
	defer e.world.RUnlock()
	n := 0
	for _, jb := range e.jobs {
		n += jb.instances
	}
	return n
}

// Forked returns how many tuple copies Ingest has pushed into per-query
// topologies so far — one source-and-filter invocation each.
func (e *Engine) Forked() uint64 { return e.forked.Load() }

// ActiveQueries returns the number of deployed queries.
func (e *Engine) ActiveQueries() int {
	e.world.RLock()
	defer e.world.RUnlock()
	return len(e.jobs)
}

// DeployRecords returns per-query deployment latencies.
func (e *Engine) DeployRecords() []core.DeployRecord {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	out := make([]core.DeployRecord, len(e.records))
	copy(out, e.records)
	return out
}

// Submit deploys a dedicated topology for the query. The returned ack
// channel closes when the deployment (including the stop-the-world drain of
// every running topology) has completed.
func (e *Engine) Submit(q *core.Query, sink core.Sink) (int, <-chan struct{}, error) {
	if err := q.Validate(e.cfg.Streams); err != nil {
		return 0, nil, err
	}
	if sink == nil {
		sink = core.NewCountingSink(e.cfg.NowNanos, 128)
	}
	start := time.Now()
	e.world.Lock()
	defer e.world.Unlock()
	if e.stopped {
		return 0, nil, fmt.Errorf("baseline: engine stopped")
	}
	// Savepoint: drain every running topology before changing the set.
	//lint:ignore lockheld-send stop-the-world by design; topology workers drain these channels without taking e.world
	e.drainAllLocked()

	id := int(atomic.AddInt64(&e.nextID, 1))
	qq := *q
	qq.ID = id
	jb, err := e.deployQuery(&qq, sink)
	if err != nil {
		return 0, nil, err
	}
	e.jobs[id] = jb
	e.trackHorizon(&qq)

	e.recMu.Lock()
	e.records = append(e.records, core.DeployRecord{QueryID: id, Create: true, Latency: time.Since(start)})
	e.recMu.Unlock()
	ack := make(chan struct{})
	close(ack)
	return id, ack, nil
}

// StopQuery cancels a query's topology (with the same savepoint drain).
func (e *Engine) StopQuery(id int) (<-chan struct{}, error) {
	start := time.Now()
	e.world.Lock()
	defer e.world.Unlock()
	jb, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("baseline: query %d not running", id)
	}
	//lint:ignore lockheld-send stop-the-world by design; topology workers drain these channels without taking e.world
	e.drainAllLocked()
	delete(e.jobs, id)
	// Stop semantics match the shared engine's event-time deletion: windows
	// ending at or before the stop time (one past the latest ingested
	// event) fire; later windows are discarded.
	//lint:ignore lockheld-send topology workers drain these channels without taking e.world
	jb.finishAt(jb.maxLast() + 1)
	e.recMu.Lock()
	e.records = append(e.records, core.DeployRecord{QueryID: id, Create: false, Latency: time.Since(start)})
	e.recMu.Unlock()
	ack := make(chan struct{})
	close(ack)
	return ack, nil
}

func (e *Engine) trackHorizon(q *core.Query) {
	h := int64(q.Window.Length)
	if int64(q.Window.Gap) > h {
		h = int64(q.Window.Gap) * 2
	}
	if q.AggWindow.Length > 0 {
		h += int64(q.AggWindow.Length)
	}
	for {
		cur := atomic.LoadInt64(&e.maxHorizon)
		if h <= cur || atomic.CompareAndSwapInt64(&e.maxHorizon, cur, h) {
			return
		}
	}
}

// drainAllLocked takes a savepoint of every running topology: each job
// receives a watermark at its streams' high-water marks, the call waits
// until the job's sink has observed the combined mark (in-flight work
// flushed), and then an aligned barrier makes every operator serialize its
// state (window buffers, accumulators) — the savepoint itself. The cost is
// proportional to in-flight backlog and buffered state × topology count,
// which is what makes baseline deployment latency grow with the number of
// running queries (paper Figure 10).
func (e *Engine) drainAllLocked() {
	for _, jb := range e.jobs {
		target := event.MaxTime
		for s := range jb.scs {
			wm := jb.lastTime[s] - e.cfg.Lateness
			if wm > jb.lastWM[s] {
				jb.scs[s].EmitWatermark(wm)
				jb.lastWM[s] = wm
			}
			if jb.lastWM[s] < target {
				target = jb.lastWM[s]
			}
		}
		if target != event.MaxTime && target != event.MinTime {
			jb.sink.awaitWM(target)
		}
		// Savepoint: barrier-aligned state serialization.
		jb.nextBarrier++
		for s := range jb.scs {
			jb.scs[s].EmitBarrier(jb.nextBarrier)
		}
		jb.stateBytes = jb.snaps.await(jb.nextBarrier, jb.instances)
	}
}

// Ingest pushes one tuple into every query topology that reads the stream.
// For each stream, Ingest must be called from a single goroutine.
func (e *Engine) Ingest(stream int, t event.Tuple) error {
	if stream < 0 || stream >= e.cfg.Streams {
		return fmt.Errorf("baseline: no stream %d", stream)
	}
	if t.IngestNanos == 0 {
		t.IngestNanos = e.cfg.NowNanos()
	}
	e.world.RLock()
	defer e.world.RUnlock()
	e.timeMu.Lock()
	if t.Time > e.lastTime[stream] {
		e.lastTime[stream] = t.Time
	}
	e.timeMu.Unlock()
	// The fork: one copy per query (this is the Kafka-fan-out setup the
	// paper describes as today's best practice, and the reason baseline
	// per-tuple cost is O(queries)).
	forked := uint64(0)
	for _, jb := range e.jobs {
		if stream >= jb.q.Arity {
			continue
		}
		forked++
		//lint:ignore lockheld-send read lock only orders against redeploys; topology workers drain these channels without taking e.world
		jb.scs[stream].EmitTuple(t)
		if t.Time > jb.lastTime[stream] {
			jb.lastTime[stream] = t.Time
		}
		wm := jb.lastTime[stream] - e.cfg.Lateness
		if wm >= jb.lastWM[stream]+e.cfg.WatermarkEvery {
			//lint:ignore lockheld-send read lock only orders against redeploys; topology workers drain these channels without taking e.world
			jb.scs[stream].EmitWatermark(wm)
			jb.lastWM[stream] = wm
		}
	}
	e.forked.Add(forked)
	return nil
}

// Drain flushes and stops every topology. The engine cannot be used after.
func (e *Engine) Drain() {
	e.world.Lock()
	defer e.world.Unlock()
	if e.stopped {
		return
	}
	e.stopped = true
	for id, jb := range e.jobs {
		//lint:ignore lockheld-send final teardown; topology workers drain these channels without taking e.world
		jb.finishAt(jb.maxLast() + event.Time(atomic.LoadInt64(&e.maxHorizon))*2 + 2)
		delete(e.jobs, id)
	}
}

// maxLast returns the job's highest ingested event-time (0 when none).
func (jb *queryJob) maxLast() event.Time {
	final := event.MinTime
	for s := range jb.scs {
		if jb.lastTime[s] > final {
			final = jb.lastTime[s]
		}
	}
	if final == event.MinTime {
		final = 0
	}
	return final
}

// finishAt advances the job's watermark to final, closes its sources, and
// waits for the drain. Windows ending after final are discarded.
func (jb *queryJob) finishAt(final event.Time) {
	for s := range jb.scs {
		jb.scs[s].EmitWatermark(final)
		jb.scs[s].Close()
	}
	jb.job.Wait()
}

// sinkWrapper adapts a core.Sink and tracks watermark progress for drains.
type sinkWrapper struct {
	sink   core.Sink
	wm     int64 // atomic: min over instances
	instMu sync.Mutex
	instWM []int64 // per terminal-operator instance, atomic slots
}

func newSinkWrapper(s core.Sink) *sinkWrapper {
	return &sinkWrapper{sink: s, wm: int64(event.MinTime)}
}

func (w *sinkWrapper) deliver(r core.Result) { w.sink.OnResult(r) }

func (w *sinkWrapper) observeWM(t event.Time) {
	for {
		cur := atomic.LoadInt64(&w.wm)
		if int64(t) <= cur || atomic.CompareAndSwapInt64(&w.wm, cur, int64(t)) {
			return
		}
	}
}

// awaitWM blocks until the sink has seen a watermark ≥ target.
func (w *sinkWrapper) awaitWM(target event.Time) {
	for atomic.LoadInt64(&w.wm) < int64(target) {
		time.Sleep(20 * time.Microsecond)
	}
}
