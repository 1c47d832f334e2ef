package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"

	"astream/internal/core"
)

// ingestChunk is the boundary-span granularity: one engine.ingest span per
// this many tuples per stream, so no clock is read inside the loop.
const ingestChunk = 4096

// sinkSpanEvery samples the sink callbacks that get a span of their own.
const sinkSpanEvery = 1024

// snapCollector is the benchmark-owned spe.SnapshotSink: it counts the
// snapshots and bytes of each barrier and lets the generator wait for one.
type snapCollector struct {
	mu    sync.Mutex
	cond  *sync.Cond
	seen  map[uint64]int
	bytes map[uint64]int
}

func newSnapCollector() *snapCollector {
	c := &snapCollector{seen: map[uint64]int{}, bytes: map[uint64]int{}}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *snapCollector) OnSnapshot(_ string, _ int, barrier uint64, state []byte) {
	c.mu.Lock()
	c.seen[barrier]++
	c.bytes[barrier] += len(state)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// await blocks until every instance has deposited its snapshot of barrier
// and returns their total size.
func (c *snapCollector) await(barrier uint64, instances int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.seen[barrier] < instances {
		c.cond.Wait()
	}
	return c.bytes[barrier]
}

// inFlight names the boundary span in flight (engine.ingest or engine.drain)
// and its chunk number in one atomic word, so that a sink callback on an
// operator goroutine reads a matching pair.
type inFlight struct{ v atomic.Int64 }

func (f *inFlight) set(span, chunk int) { f.v.Store(int64(chunk)<<32 | int64(uint32(span))) }

func (f *inFlight) get() (span, chunk int) {
	v := f.v.Load()
	return int(int32(uint32(v))), int(v >> 32)
}

// tracedSink gives every sinkSpanEvery-th result callback a span, parented
// to the boundary span in flight.
type tracedSink struct {
	inner core.Sink
	tr    *tracer
	cur   *inFlight
	n     atomic.Uint64
}

func (s *tracedSink) OnResult(r core.Result) {
	if s.n.Add(1)%sinkSpanEvery != 0 {
		s.inner.OnResult(r)
		return
	}
	parent, chunk := s.cur.get()
	id := s.tr.begin("sink.callback", parent, chunk)
	s.inner.OnResult(r)
	s.tr.end(id)
}

func (s *tracedSink) count() uint64 { return s.n.Load() }

func gcCPUSeconds() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		total = samples[1].Value.Float64()
	}
	return gc, total
}

// runBoundary is part (a) of the traced run: the closed phase on the real
// engine with a span around every call into it — Engine.Ingest per chunk,
// every Submit/StopQuery batch (churn512 has them in this phase), two
// checkpoints, Drain — and around sampled sink callbacks. With traced off it
// runs the identical script with a nil tracer; the difference between the two
// is the tracing overhead.
func runBoundary(w *workload, spec childSpec, traced bool) (*childReport, error) {
	sz := w.size(spec.Seconds, spec.Density)
	snaps := newSnapCollector()
	cfg := w.engineConfig()
	cfg.SnapshotSink = snaps
	h, err := newHarness(w, sz, spec.Seed, cfg)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var cur inFlight
	cur.set(-1, 0)
	if traced {
		tr = newTracer(w.name)
		h.newSink = func(int, *core.Query) resultSink {
			return &tracedSink{inner: &querySink{ctl: h.ctl}, tr: tr, cur: &cur}
		}
	}
	h.deploy()
	h.feed.feed(sz.warmupTuples)

	rep := &childReport{Workload: w.name, Mode: spec.Mode, Layer: map[string]float64{}}
	h.onControl = func(batch func()) {
		parent, chunk := cur.get()
		id := tr.begin("session.batch", parent, chunk)
		batch()
		tr.end(id)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpuAll0 := gcCPUSeconds()
	// Wall and CPU time are accumulated over the ingest chunks and the
	// drain only: the two checkpoints between them belong to another layer.
	var wallNs, cpuUsed int64
	cpu0, t0 := cpuNs(), nowNs()
	pause := func() { wallNs, cpuUsed = wallNs+nowNs()-t0, cpuUsed+cpuNs()-cpu0 }
	resume := func() { cpu0, t0 = cpuNs(), nowNs() }

	chunks := (sz.closedTuples + ingestChunk - 1) / ingestChunk
	// Two checkpoints: half-way and after the last chunk. Once the second
	// barrier has passed every instance, every result of the input so far has
	// been delivered, which makes the result count below deterministic.
	checkpointAt := map[int]uint64{chunks / 2: 1}
	checkpointAt[chunks-1] = 2
	var barrierNs, snapBytes []int64
	for c, left := 0, sz.closedTuples; left > 0; c++ {
		n := ingestChunk
		if n > left {
			n = left
		}
		id := tr.begin("engine.ingest", -1, c)
		cur.set(id, c)
		h.feed.feed(n)
		tr.end(id)
		left -= n
		if barrier, ok := checkpointAt[c]; ok {
			pause()
			id := tr.begin("checkpoint", -1, c)
			b0 := nowNs()
			h.eng.Checkpoint(barrier)
			size := snaps.await(barrier, h.eng.InstanceCount())
			barrierNs = append(barrierNs, nowNs()-b0)
			tr.end(id)
			snapBytes = append(snapBytes, int64(size))
			resume()
		}
	}
	rep.Quiesced = h.results()
	d0 := nowNs()
	id := tr.begin("engine.drain", -1, chunks)
	cur.set(id, chunks)
	h.finish()
	tr.end(id)
	d1 := nowNs()
	pause()
	gc1, cpuAll1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)

	tuples := float64(sz.closedTuples * w.streams)
	rep.ElapsedS = float64(wallNs) / 1e9
	rep.Layer["engine.drain_ms"] = float64(d1-d0) / 1e6
	rep.Layer["engine.cpu_ns_per_tuple"] = float64(cpuUsed) / tuples
	rep.Layer["runtime.alloc_b_per_tuple"] = float64(m1.TotalAlloc-m0.TotalAlloc) / tuples
	rep.Layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	if cpuAll1 > cpuAll0 {
		rep.Layer["runtime.gc_cpu_share"] = (gc1 - gc0) / (cpuAll1 - cpuAll0)
	}
	rep.Layer["checkpoint.barrier_ms"] = meanInt64(barrierNs) / 1e6
	rep.Layer["checkpoint.snapshot_kb"] = meanInt64(snapBytes) / 1024

	rep.take(h, sz.closedTuples)
	if tr == nil {
		return rep, nil
	}
	tot := totalsByName(tr.spans)
	if t := tot["engine.ingest"]; t != nil {
		rep.Layer["engine.ingest_ns_per_tuple"] = float64(t.total) / tuples
	}
	rep.SpanList = tr.spans
	return rep, nil
}

func meanInt64(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}
