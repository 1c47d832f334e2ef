package baseline

import (
	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
)

// deployQuery builds and deploys the per-query topology:
//
//	src_0 → filter_0 ─┐
//	src_1 → filter_1 ─┴→ join_0 → … → join_{n-2} → [agg] → sink-side logic
//
// The terminal operator delivers core.Results to the query's sink and
// reports watermark progress for savepoint drains.
func (e *Engine) deployQuery(q *core.Query, sink core.Sink) (*queryJob, error) {
	topo := spe.NewTopology()
	P := e.cfg.Parallelism
	wrap := newSinkWrapper(sink)

	srcs := make([]*spe.Node, q.Arity)
	filters := make([]*spe.Node, q.Arity)
	for i := 0; i < q.Arity; i++ {
		srcs[i] = topo.AddSource("src", 1)
		pred := q.Predicates[i]
		// A per-query predicate is stateless and key-preserving, so it
		// needs no shuffle of its own: declare it forward at the source's
		// parallelism and Deploy fuses it into the source — tuples failing
		// the predicate are dropped before the keyed exchange to the
		// stateful stages, not after.
		filters[i] = topo.AddOperator("filter", 1, spe.NewMapLogic(func(t *event.Tuple) bool {
			return pred.Eval(t)
		}), spe.ForwardInput(srcs[i]))
		filters[i].AssignNodes(e.cfg.Nodes)
	}

	last := filters[0]
	terminalJoinStage := q.Arity - 2 // join results terminal iff KindJoin
	for k := 0; k < q.Arity-1; k++ {
		terminal := q.Kind == core.KindJoin && k == terminalJoinStage
		k := k
		jn := topo.AddOperator("join", P, func(inst int) spe.Logic {
			return newJoinLogic(q, wrap, terminal, k, P, inst)
		}, spe.KeyedInput(last), spe.KeyedInput(filters[k+1]))
		jn.AssignNodes(e.cfg.Nodes)
		last = jn
	}

	switch q.Kind {
	case core.KindAggregation, core.KindComplex:
		agg := topo.AddOperator("agg", P, func(inst int) spe.Logic {
			return newAggLogic(q, wrap, P, inst)
		}, spe.KeyedInput(last))
		agg.AssignNodes(e.cfg.Nodes)
	case core.KindSelection:
		sel := topo.AddOperator("select-sink", P, func(inst int) spe.Logic {
			return newSelectionSink(q, wrap, P, inst)
		}, spe.KeyedInput(last))
		sel.AssignNodes(e.cfg.Nodes)
	case core.KindJoin:
		// Terminal join already delivers; add a sink stage to observe
		// watermark progress after it.
		snk := topo.AddOperator("wm-sink", 1, func(int) spe.Logic {
			wrap.markInstances(1)
			return &wmSink{wrap: wrap, instance: 0}
		}, spe.GlobalInput(last))
		snk.AssignNodes(e.cfg.Nodes)
	}

	snaps := newSnapCounter()
	opts := []spe.DeployOption{spe.WithSnapshotSink(snaps)}
	if e.cfg.Nodes > 1 {
		opts = append(opts, spe.WithEdgeCodec(spe.BinaryCodec{}))
	}
	job, err := spe.Deploy(topo, opts...)
	if err != nil {
		return nil, err
	}
	// Total operator instances = savepoint acknowledgements per barrier.
	instances := q.Arity           // filters (fused into their sources, parallelism 1)
	instances += (q.Arity - 1) * P // join stages
	switch q.Kind {
	case core.KindAggregation, core.KindComplex, core.KindSelection:
		instances += P
	case core.KindJoin:
		instances++ // wm-sink
	}
	jb := &queryJob{
		id:        q.ID,
		q:         q,
		job:       job,
		scs:       make([]*spe.SourceContext, q.Arity),
		sink:      wrap,
		lastTime:  make([]event.Time, q.Arity),
		lastWM:    make([]event.Time, q.Arity),
		instances: instances,
		snaps:     snaps,
	}
	for i := 0; i < q.Arity; i++ {
		sc, err := job.SourceContext(srcs[i], 0)
		if err != nil {
			return nil, err
		}
		jb.scs[i] = sc
		jb.lastTime[i] = event.MinTime
		jb.lastWM[i] = event.MinTime
	}
	return jb, nil
}

// --- watermark progress tracking -------------------------------------------

// initInstances sizes the wrapper's per-instance watermark table (called by
// each terminal logic before use; idempotent because the table is fixed at
// construction through markInstances).
func (w *sinkWrapper) markInstances(n int) {
	w.instMu.Lock()
	if len(w.instWM) < n {
		t := make([]int64, n)
		for i := range t {
			t[i] = int64(event.MinTime)
		}
		copy(t, w.instWM)
		w.instWM = t
	}
	w.instMu.Unlock()
}

func (w *sinkWrapper) observeInstanceWM(inst int, t event.Time) {
	// Everything under instMu: markInstances replaces the slice header, so
	// mixing atomics on elements with plain slice reads is a data race.
	w.instMu.Lock()
	w.instWM[inst] = int64(t)
	min := int64(event.MaxTime)
	for i := range w.instWM {
		if v := w.instWM[i]; v < min {
			min = v
		}
	}
	w.instMu.Unlock()
	w.observeWM(event.Time(min))
}

// wmSink observes watermark progress after a terminal join.
type wmSink struct {
	spe.BaseLogic
	wrap     *sinkWrapper
	instance int
}

func (s *wmSink) OnWatermark(wm event.Time, _ *spe.Emitter) {
	s.wrap.observeInstanceWM(s.instance, wm)
}

// --- selection sink ---------------------------------------------------------

type selectionSink struct {
	spe.BaseLogic
	q        *core.Query
	wrap     *sinkWrapper
	instance int
	row      event.Tuple // the delivered tuple, lent to the sink for the call
}

func newSelectionSink(q *core.Query, wrap *sinkWrapper, instances, instance int) *selectionSink {
	wrap.markInstances(instances)
	return &selectionSink{q: q, wrap: wrap, instance: instance}
}

func (s *selectionSink) OnTuple(_ int, t event.Tuple, _ *spe.Emitter) {
	s.row = t
	s.wrap.deliver(core.Result{QueryID: s.q.ID, Kind: core.KindSelection, Tuple: &s.row})
}

func (s *selectionSink) OnWatermark(wm event.Time, _ *spe.Emitter) {
	s.wrap.observeInstanceWM(s.instance, wm)
}

// --- per-query windowed aggregation ----------------------------------------

// acc is the single-statistic accumulator for the query's aggregate.
type acc struct {
	count       int64
	sum         int64
	min         int64
	max         int64
	ingestNanos int64
}

func (a *acc) fold(v, ingest int64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.count++
	a.sum += v
	if ingest > a.ingestNanos {
		a.ingestNanos = ingest
	}
}

func (a *acc) finalize(fn sqlstream.AggFunc) int64 {
	switch fn {
	case sqlstream.AggCount:
		return a.count
	case sqlstream.AggSum:
		return a.sum
	case sqlstream.AggAvg:
		if a.count == 0 {
			return 0
		}
		return a.sum / a.count
	case sqlstream.AggMin:
		return a.min
	case sqlstream.AggMax:
		return a.max
	}
	return 0
}

// aggLogic folds tuples into per-window per-key accumulators (Flink's
// incremental AggregateFunction model) and emits at watermark.
type aggLogic struct {
	spe.BaseLogic
	q        *core.Query
	spec     window.Spec
	wrap     *sinkWrapper
	instance int
	wins     map[window.Extent]map[int64]*acc
	sessions map[int64]*window.SessionState
	lastWM   event.Time
	floor    event.Time // earliest data time, clamps first trigger sweep
	hasData  bool
	row      event.Tuple // a result's key, window end and freshest ingest time, lent to the sink
}

func newAggLogic(q *core.Query, wrap *sinkWrapper, instances, instance int) *aggLogic {
	wrap.markInstances(instances)
	spec := q.Window
	if q.Kind == core.KindComplex {
		spec = q.AggWindow
	}
	l := &aggLogic{
		q: q, spec: spec, wrap: wrap, instance: instance,
		wins:   map[window.Extent]map[int64]*acc{},
		lastWM: event.MinTime,
	}
	if spec.Kind == window.Session {
		l.sessions = map[int64]*window.SessionState{}
	}
	return l
}

func (l *aggLogic) value(t *event.Tuple) int64 {
	if l.q.Agg == sqlstream.AggCount || l.q.AggField < 0 {
		return 1
	}
	return t.Fields[l.q.AggField]
}

func (l *aggLogic) OnTuple(_ int, t event.Tuple, _ *spe.Emitter) {
	if !l.hasData || t.Time < l.floor {
		l.floor = t.Time
		l.hasData = true
	}
	if l.sessions != nil {
		ss := l.sessions[t.Key]
		if ss == nil {
			ss = window.NewSessionState(l.spec.Gap)
			l.sessions[t.Key] = ss
		}
		ss.Add(t.Time, l.value(&t))
		return
	}
	for _, ext := range l.spec.Assign(t.Time) {
		byKey := l.wins[ext]
		if byKey == nil {
			byKey = map[int64]*acc{}
			l.wins[ext] = byKey
		}
		a := byKey[t.Key]
		if a == nil {
			a = &acc{}
			byKey[t.Key] = a
		}
		a.fold(l.value(&t), t.IngestNanos)
	}
}

// OnBarrier serializes the aggregation's accumulator state (savepoint).
func (l *aggLogic) OnBarrier(_ uint64, _ *spe.Emitter) []byte {
	var buf []byte
	for ext, byKey := range l.wins {
		buf = wire.AppendI64(buf, int64(ext.Start))
		buf = wire.AppendI64(buf, int64(ext.End))
		for key, a := range byKey {
			buf = wire.AppendI64(buf, key)
			buf = wire.AppendI64(buf, a.count)
			buf = wire.AppendI64(buf, a.sum)
			buf = wire.AppendI64(buf, a.min)
			buf = wire.AppendI64(buf, a.max)
		}
	}
	for key, ss := range l.sessions {
		buf = wire.AppendI64(buf, key)
		buf = wire.AppendI64(buf, int64(ss.Open()))
	}
	return buf
}

func (l *aggLogic) OnWatermark(wm event.Time, _ *spe.Emitter) {
	if l.sessions != nil {
		for key, ss := range l.sessions {
			for _, cs := range ss.Harvest(wm) {
				val := cs.Sum
				switch l.q.Agg {
				case sqlstream.AggCount:
					val = cs.Count
				case sqlstream.AggAvg:
					if cs.Count > 0 {
						val = cs.Sum / cs.Count
					}
				}
				l.row.Key, l.row.Time, l.row.IngestNanos = key, cs.Extent.End, 0
				l.wrap.deliver(core.Result{
					QueryID: l.q.ID, Kind: l.q.Kind, Window: cs.Extent,
					Key: key, Value: val, Tuple: &l.row,
				})
			}
			if ss.Open() == 0 {
				delete(l.sessions, key)
			}
		}
		l.wrap.observeInstanceWM(l.instance, wm)
		l.lastWM = wm
		return
	}
	for ext, byKey := range l.wins {
		if ext.End > wm {
			continue
		}
		for key, a := range byKey {
			l.row.Key, l.row.Time, l.row.IngestNanos = key, ext.End, a.ingestNanos
			l.wrap.deliver(core.Result{
				QueryID: l.q.ID, Kind: l.q.Kind, Window: ext,
				Key: key, Value: a.finalize(l.q.Agg), Tuple: &l.row,
			})
		}
		delete(l.wins, ext)
	}
	l.wrap.observeInstanceWM(l.instance, wm)
	l.lastWM = wm
}

// --- per-query windowed join -------------------------------------------------

// joinLogic buffers both sides' raw tuples per window (one copy per
// overlapping window — Flink's window-join state model) and joins at
// trigger time.
type joinLogic struct {
	spe.BaseLogic
	q        *core.Query
	wrap     *sinkWrapper
	terminal bool
	stage    int
	instance int
	wins     map[window.Extent]*joinBuf
	lastWM   event.Time
	row      event.JoinedTuple // the joined row being delivered, lent to the sink
}

type joinBuf struct {
	left, right []event.Tuple
}

func newJoinLogic(q *core.Query, wrap *sinkWrapper, terminal bool, stage, instances, instance int) *joinLogic {
	// Drain progress for terminal joins is observed by the wm-sink stage
	// downstream, which sees the combined minimum watermark.
	return &joinLogic{
		q: q, wrap: wrap, terminal: terminal, stage: stage, instance: instance,
		wins:   map[window.Extent]*joinBuf{},
		lastWM: event.MinTime,
	}
}

func (l *joinLogic) OnTuple(port int, t event.Tuple, _ *spe.Emitter) {
	for _, ext := range l.q.Window.Assign(t.Time) {
		if ext.End <= l.lastWM {
			continue // late for this window
		}
		buf := l.wins[ext]
		if buf == nil {
			buf = &joinBuf{}
			l.wins[ext] = buf
		}
		if port == 0 {
			buf.left = append(buf.left, t)
		} else {
			buf.right = append(buf.right, t)
		}
	}
}

// OnBarrier serializes the join's buffered window state — the savepoint
// work a stop-the-world deployment pays (its size grows with backlog).
func (l *joinLogic) OnBarrier(_ uint64, _ *spe.Emitter) []byte {
	var buf []byte
	for _, wbuf := range l.wins {
		for i := range wbuf.left {
			buf = wire.AppendTuple(buf, &wbuf.left[i])
		}
		for i := range wbuf.right {
			buf = wire.AppendTuple(buf, &wbuf.right[i])
		}
	}
	return buf
}

func (l *joinLogic) OnWatermark(wm event.Time, out *spe.Emitter) {
	for ext, buf := range l.wins {
		if ext.End > wm {
			continue
		}
		l.fire(ext, buf, out)
		delete(l.wins, ext)
	}
	l.lastWM = wm
}

func (l *joinLogic) fire(ext window.Extent, buf *joinBuf, out *spe.Emitter) {
	if len(buf.left) == 0 || len(buf.right) == 0 {
		return
	}
	idx := make(map[int64][]*event.Tuple, len(buf.left))
	for i := range buf.left {
		t := &buf.left[i]
		idx[t.Key] = append(idx[t.Key], t)
	}
	for i := range buf.right {
		r := &buf.right[i]
		for _, lft := range idx[r.Key] {
			jt := &l.row
			*jt = event.JoinedTuple{Key: r.Key, Left: lft.Fields, Right: r.Fields}
			jt.Time = lft.Time
			if r.Time > jt.Time {
				jt.Time = r.Time
			}
			jt.IngestNanos = lft.IngestNanos
			if r.IngestNanos > jt.IngestNanos {
				jt.IngestNanos = r.IngestNanos
			}
			if l.terminal {
				l.wrap.deliver(core.Result{
					QueryID: l.q.ID, Kind: core.KindJoin, Window: ext,
					Join: jt,
				})
			} else {
				t := jt.AsTuple()
				t.Time = ext.End - 1
				out.EmitTuple(t)
			}
		}
	}
}
