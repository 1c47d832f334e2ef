package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/sqlstream"
)

// Config parameterizes an Engine.
type Config struct {
	// Streams is the number of input streams (1 for aggregation-only
	// workloads, 2 for binary joins, up to 5 for the complex workload of
	// §4.7). Stream names in SQL map positionally: first FROM source =
	// stream 0.
	Streams int
	// Parallelism is the instance count of every shared operator.
	Parallelism int
	// Nodes simulates a cluster of this many nodes; with Nodes > 1 an edge
	// codec charges serialization on inter-node exchanges.
	Nodes int
	// BatchSize and BatchTimeout configure the shared session's changelog
	// batching (paper §4.4: batch-size 100, timeout 1 s).
	BatchSize    int
	BatchTimeout time.Duration
	// Lateness is the tolerated event-time disorder; watermarks trail the
	// max seen event-time by this much.
	Lateness event.Time
	// WatermarkEvery controls watermark cadence in event-time units.
	WatermarkEvery event.Time
	// GroupedThreshold is unread: kept so cmd/ledger builds.
	GroupedThreshold int
	// NowNanos is the wall clock (injectable for tests).
	NowNanos func() int64
	// SnapshotSink, when set, receives operator snapshots on checkpoints.
	// A windowed operator's are a chain — a full snapshot every third
	// barrier, deltas between, each naming the barrier of the link it
	// extends — which the sink resolves at restore, as internal/durable's
	// store does; RestoreOperators applies it one Restore per link.
	SnapshotSink spe.SnapshotSink
	// OnInstanceFailure, when set, is called (from the failing instance's
	// goroutine) for every supervised operator failure, after the engine has
	// recorded it. Checkpoint runners use it to interrupt in-flight barriers
	// and schedule recovery.
	OnInstanceFailure func(spe.InstanceFailure)
	// FaultHook, when set, threads deterministic fault injection through the
	// deployment (tests only; see internal/fault).
	FaultHook spe.FaultHook
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
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchTimeout == 0 {
		c.BatchTimeout = time.Second
	}
	if c.WatermarkEvery <= 0 {
		c.WatermarkEvery = 10
	}
	if c.NowNanos == nil {
		// The one place the engine touches the wall clock: the default
		// when no clock is injected.
		//lint:ignore wallclock default clock injection point; everything downstream uses NowNanos
		c.NowNanos = func() int64 { return time.Now().UnixNano() }
	}
}

// exchangeChannelCap is the inbox capacity of every shared-operator
// instance. A channel slot carries a whole exchange batch, so in-flight
// buffering measured in tuples is cap × spe.DefaultExchangeBatch (16 × 64);
// a larger cap multiplies queued work and, under closed-loop saturation,
// event-time latency with it.
const exchangeChannelCap = 16

// Engine is AStream: one deployed shared topology executing every ad-hoc
// query. Queries are created and deleted at runtime without touching the
// topology (paper §1.3: "AStream avoids deploying a new streaming topology
// for each query").
type Engine struct {
	cfg      Config
	topo     *spe.Topology
	job      *spe.Job
	registry *changelog.Registry
	router   *Router
	metrics  *OpMetrics
	session  *session

	srcNodes []*spe.Node
	ingress  []*streamIngress

	selLogics  [][]*SharedSelection
	joinLogics [][]*SharedJoin
	aggLogics  []*SharedAggregation

	nextID     int64
	maxHorizon int64 // max window reach, for the drain watermark
	errMu      sync.Mutex
	sessErrs   []error
	defsMu     sync.RWMutex
	defs       map[int]*Query
	stopped    bool

	// Failure surface: every supervised instance failure is recorded here;
	// repeated predicate panics quarantine the offending query (§ functional
	// isolation — one bad ad-hoc query must not kill the shared pipeline).
	failMu      sync.Mutex
	failures    []spe.InstanceFailure
	strikes     map[int]int
	quarantined map[int]bool
}

// streamIngress is the per-stream ingestion state. Ingest for one stream
// must be called from a single goroutine (the driver's pump), matching the
// paper's driver design (Figure 5).
type streamIngress struct {
	sc *spe.SourceContext
	// lastTime is the stream's high-water event-time, the one the session
	// picks changelog times from. Only the ingest goroutine stores it, and
	// only when a tuple advances it (see weaveChangelog for the ordering).
	lastTime atomic.Int64
	lastWM   event.Time

	mu           sync.Mutex
	pending      []pendingCL
	pendingCount atomic.Int32
}

type pendingCL struct {
	msg *ChangelogMsg
	at  event.Time
}

// NewEngine builds and deploys the shared topology.
func NewEngine(cfg Config) (*Engine, error) {
	cfg.setDefaults()
	if cfg.Streams > 8 {
		return nil, fmt.Errorf("core: at most 8 streams supported, got %d", cfg.Streams)
	}
	eng := &Engine{
		cfg:         cfg,
		registry:    changelog.NewRegistry(changelog.SlotReuse),
		metrics:     NewOpMetrics(cfg.NowNanos),
		defs:        make(map[int]*Query),
		strikes:     make(map[int]int),
		quarantined: make(map[int]bool),
	}
	eng.router = NewRouter(eng.metrics)
	eng.session = newSession(eng, cfg.BatchSize, cfg.BatchTimeout)

	topo := spe.NewTopology()
	topo.SetChannelCap(exchangeChannelCap)
	topo.SetNowNanos(cfg.NowNanos)
	eng.topo = topo

	S, P := cfg.Streams, cfg.Parallelism
	eng.selLogics = make([][]*SharedSelection, S)
	srcs := make([]*spe.Node, S)
	sels := make([]*spe.Node, S)
	for i := 0; i < S; i++ {
		srcs[i] = topo.AddSource(fmt.Sprintf("src-%d", i), 1)
		eng.selLogics[i] = make([]*SharedSelection, P)
		i := i
		// The src→select shuffle is load-bearing when P > 1: it is what
		// parallelizes the O(active queries) predicate work across selection
		// instances. At P == 1 it routes every tuple to instance 0 anyway,
		// so declare it forward and let Deploy chain the selection straight
		// into the source's ingest call.
		srcInput := spe.KeyedInput(srcs[i])
		if P == 1 {
			srcInput = spe.ForwardInput(srcs[i])
		}
		sels[i] = topo.AddOperator(fmt.Sprintf("select-%d", i), P, func(inst int) spe.Logic {
			l := NewSharedSelection(i, cfg.Lateness, eng.metrics)
			l.router = eng.router
			l.onPredPanic = eng.predicatePanicked
			l.faultHook, _ = cfg.FaultHook.(predicateHook)
			eng.selLogics[i][inst] = l
			return l
		}, srcInput)
		sels[i].AssignNodes(cfg.Nodes)
	}
	eng.srcNodes = srcs

	// Join chain: stage k joins (previous stage or stream 0) with stream
	// k+1 (shared n-ary joins, §3.1.4/§3.1.5).
	joins := make([]*spe.Node, 0, S-1)
	eng.joinLogics = make([][]*SharedJoin, S-1)
	left := sels[0]
	for k := 0; k < S-1; k++ {
		k := k
		eng.joinLogics[k] = make([]*SharedJoin, P)
		jn := topo.AddOperator(fmt.Sprintf("join-%d", k), P, func(inst int) spe.Logic {
			l := NewSharedJoin(k, 0, cfg.Lateness, eng.router, eng.metrics)
			eng.joinLogics[k][inst] = l
			return l
		}, spe.KeyedInput(left), spe.KeyedInput(sels[k+1]))
		jn.AssignNodes(cfg.Nodes)
		joins = append(joins, jn)
		left = jn
	}

	// Shared aggregation: port 0 = stream 0 selection (its tuples wanted by
	// some query past the selection), port k = join k-1.
	// With a single stream the aggregation is selection's only consumer and
	// both route by the same key at the same parallelism, so keyed routing
	// is the identity — declare the edge forward and the two operators fuse
	// into one instance per partition.
	aggInput0 := spe.KeyedInput(sels[0])
	if S == 1 {
		aggInput0 = spe.ForwardInput(sels[0])
	}
	aggInputs := []spe.Input{aggInput0}
	for _, jn := range joins {
		aggInputs = append(aggInputs, spe.KeyedInput(jn))
	}
	eng.aggLogics = make([]*SharedAggregation, P)
	agg := topo.AddOperator("aggregate", P, func(inst int) spe.Logic {
		l := NewSharedAggregation(len(aggInputs), cfg.Lateness, eng.router, eng.metrics)
		eng.aggLogics[inst] = l
		return l
	}, aggInputs...)
	agg.AssignNodes(cfg.Nodes)

	var opts []spe.DeployOption
	if cfg.Nodes > 1 {
		opts = append(opts, spe.WithEdgeCodec(spe.BinaryCodec{}))
	}
	if cfg.SnapshotSink != nil {
		opts = append(opts, spe.WithSnapshotSink(cfg.SnapshotSink))
	}
	// The engine always supervises its instances: an operator panic surfaces
	// as a recorded InstanceFailure (and the optional callback), never as a
	// process crash.
	opts = append(opts, spe.WithFailureSink(spe.FailureFunc(eng.onInstanceFailure)))
	if cfg.FaultHook != nil {
		opts = append(opts, spe.WithFaultHook(cfg.FaultHook))
	}
	job, err := spe.Deploy(topo, opts...)
	if err != nil {
		return nil, err
	}
	eng.job = job

	eng.ingress = make([]*streamIngress, S)
	for i := 0; i < S; i++ {
		sc, err := job.SourceContext(srcs[i], 0)
		if err != nil {
			return nil, err
		}
		eng.ingress[i] = &streamIngress{sc: sc, lastWM: event.MinTime}
		eng.ingress[i].lastTime.Store(int64(event.MinTime))
	}
	return eng, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Metrics returns the shared-operator metrics counters.
func (e *Engine) Metrics() *OpMetrics { return e.metrics }

// InstanceCount returns the number of operator instances in the deployed
// topology (selections + join stages + aggregation, times parallelism);
// checkpoint coordinators use it to detect barrier completion.
func (e *Engine) InstanceCount() int {
	return (2*e.cfg.Streams - 1 + 1) * e.cfg.Parallelism
}

// Router returns the engine's result router.
func (e *Engine) Router() *Router { return e.router }

// Chains returns the operator chains the deployment fused (name lists,
// head first); empty when every edge is a real exchange.
func (e *Engine) Chains() [][]string { return e.topo.Chains() }

// ActiveQueries returns the number of running queries.
func (e *Engine) ActiveQueries() int {
	e.defsMu.RLock()
	defer e.defsMu.RUnlock()
	return len(e.defs)
}

// Submit registers a compiled query. The returned ack channel closes when
// the query's changelog has been released into every stream; the query ID is
// assigned immediately.
func (e *Engine) Submit(q *Query, sink Sink) (int, <-chan struct{}, error) {
	if err := q.Validate(e.cfg.Streams); err != nil {
		return 0, nil, err
	}
	if sink == nil {
		sink = NewCountingSink(e.cfg.NowNanos, 128)
	}
	id := int(atomic.AddInt64(&e.nextID, 1))
	qq := *q
	qq.ID = id
	e.trackHorizon(&qq)
	ack, err := e.session.submit(id, &qq, sink)
	if err != nil {
		return 0, nil, err
	}
	e.defsMu.Lock()
	e.defs[id] = &qq
	e.defsMu.Unlock()
	return id, ack, nil
}

// SubmitSQL parses, compiles, and submits a SQL query.
func (e *Engine) SubmitSQL(sql string, sink Sink) (int, <-chan struct{}, error) {
	sq, err := sqlstream.Parse(sql)
	if err != nil {
		return 0, nil, err
	}
	q, err := CompileSQL(sq)
	if err != nil {
		return 0, nil, err
	}
	return e.Submit(q, sink)
}

// StopQuery requests deletion of a running query; the ack channel closes
// when the deletion changelog is released.
func (e *Engine) StopQuery(id int) (<-chan struct{}, error) {
	e.defsMu.Lock()
	if _, ok := e.defs[id]; !ok {
		e.defsMu.Unlock()
		return nil, fmt.Errorf("core: query %d not running", id)
	}
	delete(e.defs, id)
	e.defsMu.Unlock()
	return e.session.stop(id)
}

func (e *Engine) trackHorizon(q *Query) {
	h := int64(q.Window.Length)
	if int64(q.Window.Gap) > h {
		h = int64(q.Window.Gap) * 2
	}
	if int64(q.AggWindow.Length) > 0 {
		h += int64(q.AggWindow.Length)
	}
	for {
		cur := atomic.LoadInt64(&e.maxHorizon)
		if h <= cur || atomic.CompareAndSwapInt64(&e.maxHorizon, cur, h) {
			return
		}
	}
}

// nextChangelogTime picks an event-time after everything already ingested
// (and at least 1) so a changelog weaves in cleanly on every stream.
func (e *Engine) nextChangelogTime() event.Time {
	high := event.Time(0)
	for _, ing := range e.ingress {
		if h := event.Time(ing.lastTime.Load()); h > high {
			high = h
		}
	}
	return high + 1
}

// weaveChangelog picks a changelog's event-time and queues the changelog
// that build makes for it on every stream; on build's error nothing is
// queued. No tuple at or past that time may be emitted ahead of the
// changelog, though Ingest keeps running on other goroutines. Dekker's
// pairing guarantees it: this side raises every stream's pending count
// before it reads the high-water marks, and Ingest stores its mark before
// it loads the count. Either a tuple's mark was read, and the changelog's
// time is past the tuple, or its ingest sees the raised count and waits in
// drainPending on the stream lock, held here until the changelog is queued.
func (e *Engine) weaveChangelog(build func(at event.Time) (*ChangelogMsg, error)) error {
	for _, ing := range e.ingress {
		ing.mu.Lock()
		ing.pendingCount.Add(1)
	}
	at := e.nextChangelogTime()
	msg, err := build(at)
	for _, ing := range e.ingress {
		if err != nil {
			ing.pendingCount.Add(-1)
		} else {
			ing.pending = append(ing.pending, pendingCL{msg: msg, at: at})
		}
		ing.mu.Unlock()
	}
	return err
}

func (e *Engine) recordSessionError(err error) {
	e.errMu.Lock()
	e.sessErrs = append(e.sessErrs, err)
	e.errMu.Unlock()
}

// SessionErrors returns errors from rejected session batches.
func (e *Engine) SessionErrors() []error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	out := make([]error, len(e.sessErrs))
	copy(out, e.sessErrs)
	return out
}

// Ingest pushes one tuple into a stream. For each stream, Ingest must be
// called from a single goroutine (the driver pump). Event times must respect
// the configured Lateness bound per stream.
func (e *Engine) Ingest(stream int, t event.Tuple) error {
	if stream < 0 || stream >= len(e.ingress) {
		return fmt.Errorf("core: no stream %d", stream)
	}
	ing := e.ingress[stream]
	if t.IngestNanos == 0 {
		t.IngestNanos = e.cfg.NowNanos()
	}
	last := event.Time(ing.lastTime.Load())
	if t.Time > last {
		last = t.Time
		// Stored before the pending count is loaded (weaveChangelog).
		ing.lastTime.Store(int64(last))
	}
	if ing.pendingCount.Load() > 0 {
		ing.drainPending(t.Time)
	}
	ing.sc.EmitTuple(t)
	wm := last - e.cfg.Lateness
	if wm >= ing.lastWM+e.cfg.WatermarkEvery {
		if ing.pendingCount.Load() > 0 {
			ing.drainPending(wm)
		}
		ing.sc.EmitWatermark(wm)
		ing.lastWM = wm
	}
	return nil
}

// drainPending emits every queued changelog with release time ≤ upTo, in
// order, so no tuple or watermark at or past a changelog's time precedes it.
func (ing *streamIngress) drainPending(upTo event.Time) {
	ing.mu.Lock()
	n := 0
	for n < len(ing.pending) && ing.pending[n].at <= upTo {
		n++
	}
	var release []pendingCL
	if n > 0 {
		release = append(release, ing.pending[:n]...)
		// Compact in place: re-slicing the front (pending = pending[n:])
		// would pin the backing array — and every drained message — for as
		// long as any entry stays queued.
		rest := copy(ing.pending, ing.pending[n:])
		for i := rest; i < len(ing.pending); i++ {
			ing.pending[i] = pendingCL{}
		}
		ing.pending = ing.pending[:rest]
		ing.pendingCount.Add(int32(-n))
	}
	ing.mu.Unlock()
	for _, p := range release {
		ing.sc.EmitChangelog(p.msg, p.at)
	}
}

// Checkpoint injects checkpoint barrier id into every stream (after flushing
// pending changelogs). Ids are non-zero: a windowed operator's delta names
// the id of the link it extends, and 0 names none. Must be called from the
// ingestion goroutine's quiescent point (no concurrent Ingest).
func (e *Engine) Checkpoint(id uint64) {
	for _, ing := range e.ingress {
		ing.drainPending(event.MaxTime)
		ing.sc.EmitBarrier(id)
	}
}

// DeployRecords returns per-query deployment latency records.
func (e *Engine) DeployRecords() []DeployRecord { return e.session.deployRecords() }

// QueryQoS is one query's service-level snapshot (paper §3.4).
type QueryQoS struct {
	ID          int
	Results     uint64
	MeanLatency time.Duration
}

// QoSReport is the engine's quality-of-service snapshot (§3.4): per-query
// result counts and sampled end-to-end latencies (for queries on the default
// counting sink), plus the data-path counters an external controller would
// watch before adding resources.
type QoSReport struct {
	ActiveQueries  int
	Selected       uint64
	Dropped        uint64
	Late           uint64
	JoinResults    uint64
	AggResults     uint64
	PairsComputed  uint64
	PairsReused    uint64
	DeploymentMean time.Duration
	Queries        []QueryQoS
}

// QoS assembles the current report.
func (e *Engine) QoS() QoSReport {
	r := QoSReport{
		ActiveQueries: e.ActiveQueries(),
		Selected:      atomic.LoadUint64(&e.metrics.Selected),
		Dropped:       atomic.LoadUint64(&e.metrics.Dropped),
		Late:          atomic.LoadUint64(&e.metrics.Late),
		JoinResults:   atomic.LoadUint64(&e.metrics.JoinedOut),
		AggResults:    atomic.LoadUint64(&e.metrics.AggOut),
		PairsComputed: atomic.LoadUint64(&e.metrics.PairsDone),
		PairsReused:   atomic.LoadUint64(&e.metrics.PairsReuse),
	}
	var sum time.Duration
	recs := e.session.deployRecords()
	n := 0
	for _, rec := range recs {
		if rec.Create {
			sum += rec.Latency
			n++
		}
	}
	if n > 0 {
		r.DeploymentMean = sum / time.Duration(n)
	}
	e.router.Each(func(id int, s Sink) {
		if cs, ok := s.(*CountingSink); ok {
			r.Queries = append(r.Queries, QueryQoS{
				ID:          id,
				Results:     cs.Results(),
				MeanLatency: time.Duration(cs.MeanLatencyNanos()),
			})
		}
	})
	return r
}

// Drain flushes the session, releases all pending changelogs, advances the
// watermark far enough to fire every remaining window, closes the sources,
// and waits for the topology to finish. The engine cannot be used after
// Drain.
func (e *Engine) Drain() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.session.close()
	final := e.nextChangelogTime() + event.Time(atomic.LoadInt64(&e.maxHorizon))*2 + 2
	for _, ing := range e.ingress {
		ing.drainPending(event.MaxTime)
		if final > ing.lastWM {
			ing.sc.EmitWatermark(final)
		}
		ing.sc.Close()
	}
	e.job.Wait()
}
