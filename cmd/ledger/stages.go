package main

import (
	"fmt"
	"slices"
	"sync/atomic"

	"astream/internal/changelog"
	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/spe"
)

// stageChunk is the stage replay's chunk: each stage processes this many
// tuples per stream inside one span.
const stageChunk = 1 << 16

type elemKind uint8

const (
	elTuple elemKind = iota
	elWatermark
	elChangelog
)

// elem is one element of the replay script: what one stream's operators see,
// in the order the engine's ingress would have produced it.
type elem struct {
	kind   elemKind
	stream uint8
	t      event.Tuple
	at     event.Time // watermark value or changelog time
	msg    *core.ChangelogMsg
}

// recorder is the spe.Logic at the end of the selection's chained emitter: it
// keeps what the selection emitted so the next stage can replay it.
type recorder struct {
	spe.BaseLogic
	out []elem
}

func (r *recorder) OnTuple(_ int, t event.Tuple, _ *spe.Emitter) {
	r.out = append(r.out, elem{kind: elTuple, stream: t.Stream, t: t})
}

type pendingLog struct {
	msg *core.ChangelogMsg
	at  event.Time
}

// stagePipe is part (b) of the traced run: the workload's input replayed
// chunk by chunk through operators wired by hand from exported constructors
// only. It doubles as the control script's query target: Submit and
// StopQuery re-create the session's batching, slot assignment and changelog
// weaving, Ingest re-creates the ingress's watermark cadence, and both only
// append to the chunk's script — the stages then run over the script, one
// span per stage per chunk, no clock read inside a stage's loop.
type stagePipe struct {
	w  *workload
	tr *tracer // nil while the warm-up hyperperiod is replayed

	registry *changelog.Registry
	router   *core.Router
	metrics  *core.OpMetrics
	sel      []*core.SharedSelection
	selOut   []*spe.Emitter
	rec      *recorder
	agg      *core.SharedAggregation
	join     *core.SharedJoin
	sink     spe.Emitter // where a join would emit non-terminal output: nowhere

	// Session emulation.
	nextID    int
	creates   []int
	deletes   []int
	defs      map[int]*core.Query
	sinks     map[int]core.Sink
	storeHint core.StoreSwitch

	// Ingress emulation, per stream.
	lastTime []event.Time
	lastWM   []event.Time
	pending  [][]pendingLog

	chunk  int
	script []elem
	calib  []elem

	// Totals over the measured chunks.
	tuplesIn  int
	selected  int
	qsWords   int
	hopTuples int
}

func newStagePipe(w *workload) *stagePipe {
	p := &stagePipe{
		w:        w,
		registry: changelog.NewRegistry(changelog.SlotReuse),
		// A metrics block without a clock counts but never samples time:
		// the stages' spans are the only clock readers.
		metrics:  core.NewOpMetrics(nil),
		defs:     map[int]*core.Query{},
		sinks:    map[int]core.Sink{},
		rec:      &recorder{},
		lastTime: make([]event.Time, w.streams),
		lastWM:   make([]event.Time, w.streams),
		pending:  make([][]pendingLog, w.streams),
	}
	p.router = core.NewRouter(p.metrics)
	for s := 0; s < w.streams; s++ {
		p.sel = append(p.sel, core.NewSharedSelection(s, 0, p.metrics))
		p.selOut = append(p.selOut, spe.NewChainedEmitter(p.rec, nil))
		p.lastTime[s], p.lastWM[s] = event.MinTime, event.MinTime
	}
	p.agg = core.NewSharedAggregation(w.streams, 0, p.router, p.metrics)
	if w.streams == 2 {
		p.join = core.NewSharedJoin(0, core.StoreAdaptive, 0, p.router, p.metrics)
	}
	return p
}

// Submit implements queryTarget: the request joins the pending session batch.
func (p *stagePipe) Submit(q *core.Query, sink core.Sink) (int, <-chan struct{}, error) {
	if err := q.Validate(p.w.streams); err != nil {
		return 0, nil, err
	}
	p.nextID++
	qq := *q
	qq.ID = p.nextID
	p.defs[qq.ID] = &qq
	p.sinks[qq.ID] = sink
	p.creates = append(p.creates, qq.ID)
	return qq.ID, nil, p.maybeFlush()
}

// StopQuery implements queryTarget.
func (p *stagePipe) StopQuery(id int) (<-chan struct{}, error) {
	p.deletes = append(p.deletes, id)
	return nil, p.maybeFlush()
}

// maybeFlush cuts a changelog once the batch is full, as the shared session
// does: slot assignment through the real registry, the store-layout marker,
// and the message queued on every stream for weaving.
func (p *stagePipe) maybeFlush() error {
	if len(p.creates)+len(p.deletes) < p.w.batchSize {
		return nil
	}
	at := event.Time(0)
	for _, t := range p.lastTime {
		if t > at {
			at = t
		}
	}
	at++
	id := p.tr.begin("changelog.apply", -1, p.chunk)
	cl, err := p.registry.Apply(at, p.creates, p.deletes)
	if err != nil {
		return err
	}
	defs := make(map[int]*core.Query, len(p.creates))
	for _, q := range p.creates {
		defs[q] = p.defs[q]
		p.router.Register(q, p.sinks[q])
	}
	msg := &core.ChangelogMsg{CL: cl, Defs: defs}
	want := core.SwitchGrouped
	if p.registry.ActiveCount() > groupedThreshold {
		want = core.SwitchList
	}
	if want != p.storeHint {
		msg.Switch, p.storeHint = want, want
	}
	p.tr.end(id)
	for s := range p.pending {
		p.pending[s] = append(p.pending[s], pendingLog{msg, at})
	}
	p.creates, p.deletes = p.creates[:0], p.deletes[:0]
	return nil
}

func (p *stagePipe) release(stream int, upTo event.Time) {
	n := 0
	for _, pl := range p.pending[stream] {
		if pl.at > upTo {
			break
		}
		p.script = append(p.script, elem{kind: elChangelog, stream: uint8(stream), at: pl.at, msg: pl.msg})
		n++
	}
	p.pending[stream] = p.pending[stream][n:]
}

// Ingest re-creates Engine.Ingest's ordering on the script: due changelogs,
// then the tuple, then a watermark whenever event-time has advanced by the
// watermark cadence.
func (p *stagePipe) Ingest(stream int, t event.Tuple) error {
	if len(p.pending[stream]) > 0 {
		p.release(stream, t.Time)
	}
	p.script = append(p.script, elem{kind: elTuple, stream: uint8(stream), t: t})
	if t.Time > p.lastTime[stream] {
		p.lastTime[stream] = t.Time
	}
	if wm := p.lastTime[stream]; wm >= p.lastWM[stream]+watermarkEvery {
		if len(p.pending[stream]) > 0 {
			p.release(stream, wm)
		}
		p.script = append(p.script, elem{kind: elWatermark, stream: uint8(stream), at: wm})
		p.lastWM[stream] = wm
	}
	return nil
}

// runSelection drives the script through the shared selections; their output
// lands in the recorder through a chained emitter, as in a fused chain.
func (p *stagePipe) runSelection() {
	p.rec.out = p.rec.out[:0]
	id := p.tr.begin("stage.selection", -1, p.chunk)
	for i := range p.script {
		e := &p.script[i]
		switch e.kind {
		case elTuple:
			p.sel[e.stream].OnTuple(0, e.t, p.selOut[e.stream])
		case elWatermark:
			p.sel[e.stream].OnWatermark(e.at, p.selOut[e.stream])
			p.rec.out = append(p.rec.out, *e)
		case elChangelog:
			cid := p.tr.begin("selection.changelog", id, p.chunk)
			p.sel[e.stream].OnChangelog(e.msg, e.at, p.selOut[e.stream])
			p.tr.end(cid)
			p.rec.out = append(p.rec.out, *e)
		}
	}
	p.tr.end(id)

	// The recorder's copying is the benchmark's cost, not the selection's:
	// time the same copies alone and let the metrics subtract them.
	p.calib = p.calib[:0]
	id = p.tr.begin("trace.record", -1, p.chunk)
	for i := range p.rec.out {
		if e := &p.rec.out[i]; e.kind == elTuple {
			p.calib = append(p.calib, elem{kind: elTuple, stream: e.t.Stream, t: e.t})
		}
	}
	p.tr.end(id)
}

// runOperator replays the recorded selection output through one downstream
// operator: tuples of a stream arrive on port(stream), the watermark is the
// minimum over the streams (as the runtime combines senders), a changelog is
// delivered on its first arrival. Runs of tuples share one span; every
// watermark and changelog has its own.
func (p *stagePipe) runOperator(name string, op spe.Logic, port func(stream uint8) (int, bool)) {
	id := p.tr.begin("stage."+name, -1, p.chunk)
	out := p.rec.out
	wms := make([]event.Time, p.w.streams)
	for s := range wms {
		wms[s] = event.MinTime
	}
	for i := 0; i < len(out); {
		switch e := &out[i]; e.kind {
		case elTuple:
			tid := p.tr.begin(name+".ontuple", id, p.chunk)
			for ; i < len(out) && out[i].kind == elTuple; i++ {
				if pt, ok := port(out[i].stream); ok {
					op.OnTuple(pt, out[i].t, &p.sink)
				}
			}
			p.tr.end(tid)
		case elWatermark:
			i++
			before := minTime(wms)
			wms[e.stream] = e.at
			if m := minTime(wms); m > before {
				fid := p.tr.begin(name+".fire", id, p.chunk)
				op.OnWatermark(m, &p.sink)
				p.tr.end(fid)
			}
		case elChangelog:
			i++
			if e.stream == 0 {
				cid := p.tr.begin(name+".changelog", id, p.chunk)
				op.OnChangelog(e.msg, e.at, &p.sink)
				p.tr.end(cid)
			}
		}
	}
	p.tr.end(id)
}

func minTime(v []event.Time) event.Time {
	m := v[0]
	for _, t := range v[1:] {
		if t < m {
			m = t
		}
	}
	return m
}

// runChunk runs every stage over the chunk just scripted.
func (p *stagePipe) runChunk() {
	p.runSelection()
	if p.join != nil {
		p.runOperator("join", p.join, func(s uint8) (int, bool) { return int(s), true })
	}
	// The aggregation reads stream 0's selection on port 0 (join output
	// would arrive on port 1; this workload's joins are terminal).
	p.runOperator("agg", p.agg, func(s uint8) (int, bool) { return 0, s == 0 })

	if p.tr != nil {
		for i := range p.script {
			if p.script[i].kind == elTuple {
				p.tuplesIn++
			}
		}
		for i := range p.rec.out {
			if e := &p.rec.out[i]; e.kind == elTuple {
				p.selected++
				p.qsWords += e.t.QuerySet.WordCount()
				// Hops a selected tuple crosses in the engine's topology
				// when stages are not fused: stream 0 feeds the join and
				// the aggregation, stream 1 the join only.
				if p.w.streams == 2 && e.stream == 0 {
					p.hopTuples += 2
				} else {
					p.hopTuples++
				}
			}
		}
	}
	p.script = p.script[:0]
	p.chunk++
}

// rawTuples extracts the chunk's input tuples for the exchange and codec
// stages, which see them before any selection.
func rawTuples(script []elem) []event.Tuple {
	var out []event.Tuple
	for i := range script {
		if script[i].kind == elTuple {
			out = append(out, script[i].t)
		}
	}
	return out
}

// runExchange times one keyed hop of a bare spe topology — source, keyed
// exchange, P sink instances spread over the workload's nodes, so remote
// instances sit behind the batch codec — and returns the CPU nanoseconds per
// tuple (both sides of the hop; wall time would hide the receiving side) and
// the partition skew (largest instance's share over the mean).
func runExchange(w *workload, tr *tracer, tuples []event.Tuple) (cpuPerTuple, skew float64, err error) {
	topo := spe.NewTopology()
	src := topo.AddSource("src", 1)
	counts := make([]atomic.Int64, w.parallelism)
	sink := topo.AddOperator("sink", w.parallelism, func(inst int) spe.Logic {
		return &spe.SinkLogic{Tuple: func(event.Tuple) { counts[inst].Add(1) }}
	}, spe.KeyedInput(src))
	sink.AssignNodes(w.nodes)
	var opts []spe.DeployOption
	if w.nodes > 1 {
		opts = append(opts, spe.WithEdgeCodec(spe.BinaryCodec{}))
	}
	job, err := spe.Deploy(topo, opts...)
	if err != nil {
		return 0, 0, err
	}
	sc, err := job.SourceContext(src, 0)
	if err != nil {
		job.Stop()
		return 0, 0, err
	}
	cpu0 := cpuNs()
	for c := 0; c*stageChunk < len(tuples); c++ {
		hi := (c + 1) * stageChunk
		if hi > len(tuples) {
			hi = len(tuples)
		}
		id := tr.begin("stage.exchange", -1, c)
		for i := c * stageChunk; i < hi; i++ {
			sc.EmitTuple(tuples[i])
		}
		tr.end(id)
	}
	id := tr.begin("stage.exchange.drain", -1, 0)
	job.Stop()
	tr.end(id)
	cpuPerTuple = float64(cpuNs()-cpu0) / float64(len(tuples))
	var max, sum int64
	for i := range counts {
		n := counts[i].Load()
		sum += n
		if n > max {
			max = n
		}
	}
	if sum > 0 {
		skew = float64(max) * float64(len(counts)) / float64(sum)
	}
	return cpuPerTuple, skew, nil
}

// runCodec times the batch codec alone over exchange-sized batches.
func runCodec(tr *tracer, tuples []event.Tuple) (encNs, decNs, bytesPerTuple float64, err error) {
	var codec spe.BinaryCodec
	batch := spe.DefaultExchangeBatch
	frames := make([][]byte, 0, len(tuples)/batch+1)
	id := tr.begin("stage.codec.encode", -1, 0)
	t0 := nowNs()
	for lo := 0; lo < len(tuples); lo += batch {
		hi := lo + batch
		if hi > len(tuples) {
			hi = len(tuples)
		}
		frames = append(frames, codec.EncodeBatch(tuples[lo:hi]))
	}
	t1 := nowNs()
	tr.end(id)
	var bytes int
	for _, f := range frames {
		bytes += len(f)
	}
	id = tr.begin("stage.codec.decode", -1, 0)
	t2 := nowNs()
	decoded := make([][]event.Tuple, len(frames))
	for i, f := range frames {
		if decoded[i], err = codec.DecodeBatch(f); err != nil {
			return 0, 0, 0, err
		}
	}
	t3 := nowNs()
	tr.end(id)
	back := 0
	for _, b := range decoded {
		back += len(b)
	}
	if back != len(tuples) {
		return 0, 0, 0, fmt.Errorf("codec round trip returned %d of %d tuples", back, len(tuples))
	}
	n := float64(len(tuples))
	return float64(t1-t0) / n, float64(t3-t2) / n, float64(bytes) / n, nil
}

// runRouter times Router.Deliver into counting sinks.
func runRouter(w *workload, tr *tracer) float64 {
	const deliveries = 1 << 20
	const queries = 64
	m := core.NewOpMetrics(nil)
	r := core.NewRouter(m)
	ctl := &sinkCtl{sampleEvery: 1 << 62}
	for q := 1; q <= queries; q++ {
		r.Register(q, &querySink{ctl: ctl})
	}
	res := core.Result{Kind: core.KindAggregation}
	if w.streams == 2 {
		res.Kind = core.KindJoin
	}
	id := tr.begin("stage.router", -1, 0)
	t0 := nowNs()
	for i := 0; i < deliveries; i++ {
		res.QueryID = 1 + i&(queries-1)
		r.Deliver(res)
	}
	t1 := nowNs()
	tr.end(id)
	return float64(t1-t0) / deliveries
}

// runStages is part (b) of the traced run. It returns the per-layer metrics
// the stage replay supports and the spans behind them.
func runStages(w *workload, spec childSpec) (*childReport, error) {
	sz := w.size(spec.Seconds, spec.Density)
	p := newStagePipe(w)
	h := newHarnessOn(w, sz, spec.Seed, p, p.Ingest)
	h.deploy()
	replay := func(n int) {
		for left := n; left > 0; {
			c := stageChunk
			if c > left {
				c = left
			}
			h.feed.feed(c)
			p.runChunk()
			left -= c
		}
	}
	replay(sz.warmupTuples)

	tr := newTracer(w.name)
	p.tr = tr
	agg0 := atomic.LoadUint64(&p.metrics.AggOut)
	join0 := atomic.LoadUint64(&p.metrics.JoinedOut)
	var raw []event.Tuple
	for left := sz.closedTuples; left > 0; {
		c := stageChunk
		if c > left {
			c = left
		}
		h.feed.feed(c)
		if len(raw) < 4*stageChunk {
			raw = append(raw, rawTuples(p.script)...)
		}
		p.runChunk()
		left -= c
	}
	// The replay is synchronous, so every result of the input so far has
	// reached its sink: the parent holds this count against the real engine's.
	quiesced := h.results()
	// The per-tuple rows come from the spans so far: the same tuples, with
	// the same control events, as the closed phase.
	measuredSpans := len(tr.spans)
	tot := totalsByName(tr.spans)
	aggOut := float64(atomic.LoadUint64(&p.metrics.AggOut) - agg0)
	joinOut := float64(atomic.LoadUint64(&p.metrics.JoinedOut) - join0)
	tuples, selected := float64(p.tuplesIn), float64(p.selected)
	qsWords, hopTuples := float64(p.qsWords), float64(p.hopTuples)
	liveSlices := p.agg.LiveSlices()

	// Control segment: a few more event periods with the probe swap on, so
	// the changelog path has spans on the workloads whose closed phase has
	// no control events. Only the *.changelog_us and changelog.apply_us
	// means read these spans.
	h.probing = true
	replay(controlSegmentEvents * sz.eventTuples)
	// The generator's own cost: the same loop into a no-op ingest.
	gen := &feeder{
		ingest:      func(int, event.Tuple) error { return nil },
		blocks:      h.feed.blocks,
		keys:        sz.keys,
		tuplesPerMs: sz.tuplesPerMs,
		stamp:       1,
	}
	id := tr.begin("gen.self", -1, 0)
	gen.feed(sz.closedTuples)
	tr.end(id)

	control := totalsByName(tr.spans)

	rep := &childReport{Workload: w.name, Mode: spec.Mode, Quiesced: quiesced, Layer: map[string]float64{}}
	L := rep.Layer

	L["router.deliver_ns_per_result"] = runRouter(w, tr)
	exchanged := w.parallelism > 1 || w.streams > 1
	if exchanged {
		cpu, skew, err := runExchange(w, tr, raw)
		if err != nil {
			return nil, err
		}
		L["spe.exchange_ns_per_tuple"] = cpu
		L["spe.partition_skew"] = skew
	}
	if w.nodes > 1 {
		enc, dec, bytes, err := runCodec(tr, raw)
		if err != nil {
			return nil, err
		}
		L["spe.codec_encode_ns_per_tuple"] = enc
		L["spe.codec_decode_ns_per_tuple"] = dec
		L["spe.codec_bytes_per_tuple"] = bytes
	}

	get := func(name string) *spanTotal {
		if t := tot[name]; t != nil {
			return t
		}
		return &spanTotal{}
	}
	meanUs := func(name string) float64 {
		t := control[name]
		if t == nil || t.count == 0 {
			return 0
		}
		return float64(t.total) / float64(t.count) / 1e3
	}
	perTuple := func(ns int64) float64 { return float64(ns) / tuples }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	selNs := get("stage.selection").self - get("trace.record").total
	L["selection.ns_per_tuple"] = perTuple(selNs)
	L["selection.selected_share"] = ratio(selected, tuples)
	L["selection.changelog_us"] = meanUs("selection.changelog")
	var ix core.SelIndexStats
	for _, s := range p.sel {
		ix.Add(s.IndexStats())
	}
	L["selection.index_nodes"] = float64(ix.Nodes)
	L["selection.index_lattice"] = float64(ix.Lattice)
	L["selection.index_fallback"] = float64(ix.Fallback)
	L["bitset.qs_words_mean"] = ratio(qsWords, selected)

	L["agg.fold_ns_per_tuple"] = perTuple(get("agg.ontuple").total)
	L["agg.fire_ns_per_result"] = ratio(float64(get("agg.fire").total), aggOut)
	L["agg.results_per_ktuple"] = ratio(aggOut, tuples) * 1000
	L["agg.live_slices"] = float64(liveSlices)
	L["agg.changelog_us"] = meanUs("agg.changelog")
	var fires []int64
	for _, s := range tr.spans[:measuredSpans] {
		if s.Name == "agg.fire" {
			fires = append(fires, s.EndNs-s.StartNs)
		}
	}
	slices.Sort(fires)
	L["agg.fire_ms_p99"] = float64(percentile(fires, 99)) / 1e6

	L["join.ontuple_ns_per_tuple"] = perTuple(get("join.ontuple").total)
	L["join.fire_ns_per_result"] = ratio(float64(get("join.fire").total), joinOut)
	L["join.results_per_tuple"] = ratio(joinOut, tuples)
	done := float64(atomic.LoadUint64(&p.metrics.PairsDone))
	reused := float64(atomic.LoadUint64(&p.metrics.PairsReuse))
	L["join.pairs_reused_share"] = ratio(reused, done+reused)

	L["changelog.apply_us"] = meanUs("changelog.apply")
	L["gen.self_ns_per_tuple"] = float64(control["gen.self"].total) / float64(sz.closedTuples*w.streams)

	// Everything the replay can attribute, per input tuple: the operators'
	// stages, the control path, the exchange hops the real topology has
	// between unfused stages, and the generator.
	sum := selNs + get("agg.ontuple").total + get("agg.fire").total +
		get("join.ontuple").total + get("join.fire").total +
		get("selection.changelog").total + get("agg.changelog").total +
		get("join.changelog").total + get("changelog.apply").total
	stageSum := perTuple(sum) + L["gen.self_ns_per_tuple"]
	switch {
	case w.parallelism > 1:
		stageSum += L["spe.exchange_ns_per_tuple"] // source to selection: every tuple
	case w.streams > 1:
		stageSum += L["spe.exchange_ns_per_tuple"] * ratio(hopTuples, tuples)
	}
	L[stageSumKey] = stageSum

	rep.Tuples = sz.closedTuples
	rep.SpanList = tr.spans
	rep.addOps(h)
	return rep, nil
}

// controlSegmentEvents is the length of the stage replay's control segment.
const controlSegmentEvents = 16

// stageSumKey carries the stage replay's attributed ns/tuple to the parent,
// which turns it into trace.unattributed_share; it is not itself a metric.
const stageSumKey = "_stage_sum_ns_per_tuple"
