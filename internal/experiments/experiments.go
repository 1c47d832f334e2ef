// Package experiments reproduces the paper's evaluation (§4): the SC1 and
// SC2 workload scenarios (Figure 6), the metrics of §4.3, and one runner per
// figure of the evaluation section (Figures 9–20). The cmd/astream-bench
// binary and the repository-root benchmarks are thin wrappers around this
// package.
//
// Scale note: the paper ran 4/8-node clusters for a thousand seconds; these
// runners execute laptop-scale, seconds-long steady states with the request
// schedule compressed by Params.Compression (default 10×: "1 q/s" arrives as
// 10 q/s). Absolute numbers are therefore not comparable to the paper's;
// the shapes — who wins, how slopes run, where systems stop sustaining — are
// what the harness reproduces (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"astream/internal/baseline"
	"astream/internal/core"
	"astream/internal/driver"
	"astream/internal/event"
	"astream/internal/gen"
	"astream/internal/metrics"
)

// System selects the system under test.
type System int

const (
	// AStream is the shared ad-hoc engine (the paper's contribution).
	AStream System = iota
	// Baseline is the query-at-a-time engine (vanilla Flink's role).
	Baseline
)

func (s System) String() string {
	if s == Baseline {
		return "baseline"
	}
	return "astream"
}

// QueryKind selects the workload's query type.
type QueryKind int

const (
	// AggK is the windowed-aggregation workload (Figure 8 template).
	AggK QueryKind = iota
	// JoinK is the windowed-join workload (Figure 7 template).
	JoinK
	// ComplexK is the §4.7 selection + n-ary join + aggregation workload.
	ComplexK
	// MixedK draws joins and aggregations uniformly.
	MixedK
)

func (k QueryKind) String() string {
	switch k {
	case AggK:
		return "agg"
	case JoinK:
		return "join"
	case ComplexK:
		return "complex"
	default:
		return "mixed"
	}
}

func (k QueryKind) streams() int {
	switch k {
	case AggK:
		return 1
	case ComplexK:
		return 3
	default:
		return 2
	}
}

// Params configures one experiment run.
type Params struct {
	System System
	Kind   QueryKind
	// Nodes simulates the cluster size; Parallelism defaults to two
	// instances per simulated node (cores-per-node × nodes is out of reach
	// on one machine, so parallelism scales linearly with nodes).
	Nodes       int
	Parallelism int
	// Scenario: "SC1" (ramp to MaxParallelQ at QueriesPerSec) or "SC2"
	// (create and delete BatchN queries every BatchEvery).
	Scenario      string
	QueriesPerSec float64
	MaxParallelQ  int
	BatchN        int
	BatchEvery    time.Duration
	// Compression divides all request-schedule delays (the paper's
	// thousand-second runs compressed to seconds).
	Compression float64
	// Warmup and Measure bound the steady-state windows.
	Warmup  time.Duration
	Measure time.Duration
	Seed    int64
	// Keys is the distinct-key count (paper: 1000).
	Keys int64
	// OfferedRate, when > 0, switches the generator to open loop at this
	// tuples/sec/stream; 0 picks a per-kind default (joins and complex
	// queries run open-loop: their per-window cost is quadratic in window
	// volume, so a closed loop would race arbitrarily far ahead of the
	// triggers — the paper's driver likewise offers a fixed rate);
	// ClosedLoop forces maximum-rate closed-loop generation.
	OfferedRate float64
	ClosedLoop  bool
	// WindowLen/WindowSlide, when > 0, pin every generated time window to
	// exactly this length/slide (event-time ms) instead of the random draw —
	// the slide-ratio sweep (FigSlideSweep) controls the window/slide ratio
	// with these.
	WindowLen   int64
	WindowSlide int64
}

func (p *Params) setDefaults() {
	if p.Nodes <= 0 {
		p.Nodes = 1
	}
	if p.Parallelism <= 0 {
		p.Parallelism = 2 * p.Nodes
	}
	if p.Scenario == "" {
		p.Scenario = "SC1"
	}
	if p.Compression <= 0 {
		p.Compression = 10
	}
	if p.Warmup <= 0 {
		p.Warmup = 300 * time.Millisecond
	}
	if p.Measure <= 0 {
		p.Measure = 700 * time.Millisecond
	}
	if p.Keys <= 0 {
		p.Keys = 1000
	}
	if p.QueriesPerSec <= 0 {
		p.QueriesPerSec = 1
	}
	if p.MaxParallelQ <= 0 {
		p.MaxParallelQ = 1
	}
	if p.BatchN <= 0 {
		p.BatchN = 10
	}
	if p.BatchEvery <= 0 {
		p.BatchEvery = 10 * time.Second
	}
	if p.OfferedRate <= 0 && !p.ClosedLoop {
		switch p.Kind {
		case JoinK, MixedK:
			p.OfferedRate = 25000
		case ComplexK:
			p.OfferedRate = 10000
		}
	}
}

// Label renders the workload in the paper's notation ("n q/s m qp" for SC1,
// "n q/m s" for SC2).
func (p Params) Label() string {
	if p.Scenario == "SC2" {
		return fmt.Sprintf("%dq/%.0fs", p.BatchN, p.BatchEvery.Seconds())
	}
	if p.MaxParallelQ == 1 {
		return "single query"
	}
	return fmt.Sprintf("%.0fq/s %dqp", p.QueriesPerSec, p.MaxParallelQ)
}

// Measurement is one run's results in the paper's metrics (§4.3).
type Measurement struct {
	Params        Params
	SlowestTupS   float64 // slowest (per-query input) data throughput
	OverallTupS   float64 // slowest × mean active queries
	ActiveQueries float64 // mean active queries during measurement
	EventTimeLat  time.Duration
	EventTimeP95  time.Duration
	DeployMean    time.Duration
	DeployMax     time.Duration
	Sustainable   bool
	// Component nanos (Fig 18, AStream only): sampled estimates.
	QuerySetGenNanos uint64
	BitsetNanos      uint64
	RouterCopyNanos  uint64
	// Results delivered per second (sanity signal).
	ResultsPerSec float64
}

// Row renders a one-line report.
func (m Measurement) Row() string {
	sus := "sustainable"
	if !m.Sustainable {
		sus = "UNSUSTAINABLE"
	}
	return fmt.Sprintf("%-8s %-7s %d-node %-14s slowest=%9.0f tup/s overall=%11.0f tup/s q=%6.1f lat=%8s deploy(mean=%s max=%s) %s",
		m.Params.System, m.Params.Kind, m.Params.Nodes, m.Params.Label(),
		m.SlowestTupS, m.OverallTupS, m.ActiveQueries,
		m.EventTimeLat.Round(time.Millisecond),
		m.DeployMean.Round(time.Millisecond), m.DeployMax.Round(time.Millisecond), sus)
}

// sut unifies the engines.
type sut = driver.SUT

func buildSUT(p Params) (sut, *core.Engine, error) {
	streams := p.Kind.streams()
	switch p.System {
	case Baseline:
		e, err := baseline.NewEngine(baseline.Config{
			Streams:        streams,
			Parallelism:    p.Parallelism,
			Nodes:          p.Nodes,
			WatermarkEvery: 10,
		})
		return e, nil, err
	default:
		e, err := core.NewEngine(core.Config{
			Streams:        streams,
			Parallelism:    p.Parallelism,
			Nodes:          p.Nodes,
			BatchSize:      100,
			BatchTimeout:   time.Duration(float64(time.Second) / p.Compression),
			WatermarkEvery: 10,
		})
		return e, e, err
	}
}

func queryGen(p Params) *gen.Queries {
	cfg := gen.DefaultQueryConfig(p.Kind.streams())
	// Event-times are wall milliseconds: windows of 200–2000 ms keep
	// triggers frequent at seconds-long runs.
	cfg.WindowMin = 200
	cfg.WindowMax = 2000
	if p.Kind != AggK {
		// Join windows are quadratic in window volume; keep them shorter.
		cfg.WindowMax = 800
	}
	cfg.FixedLength = p.WindowLen
	cfg.FixedSlide = p.WindowSlide
	return gen.NewQueries(cfg, p.Seed)
}

func nextQuery(g *gen.Queries, k QueryKind) *core.Query {
	switch k {
	case AggK:
		return g.Aggregation()
	case JoinK:
		return g.Join()
	case ComplexK:
		return g.Complex()
	default:
		return g.Mixed()
	}
}

// Run executes one scenario and reports the paper's metrics.
func Run(p Params) Measurement {
	p.setDefaults()
	s, eng, err := buildSUT(p)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	streams := p.Kind.streams()
	d := driver.New(driver.Config{Streams: streams, RequestBatch: 100}, s)
	d.StartPumps()

	qg := queryGen(p)
	var stopFlag atomic.Bool
	var wg sync.WaitGroup

	// Request scheduler.
	wg.Add(1)
	go func() {
		defer wg.Done()
		scheduleRequests(p, d, qg, &stopFlag)
	}()
	// Request pump.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopFlag.Load() {
			n, err := d.PumpRequests()
			if err != nil || n == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Data generation: event-time = wall ms since start.
	gens := make([]*gen.Data, streams)
	for i := range gens {
		gens[i] = gen.NewData(gen.DataConfig{Keys: p.Keys, FieldMax: 1000}, p.Seed+int64(i))
	}
	start := time.Now()
	deadline := start.Add(p.Warmup + p.Measure)
	var measStartIngest, measStartResults uint64
	var comps0 [3]uint64
	var activeSamples []float64
	var sustain metrics.Sustainability
	measuring := false
	var measStart time.Time
	nextSample := start.Add(50 * time.Millisecond)

	const batch = 64
	interval := time.Duration(0)
	if p.OfferedRate > 0 {
		interval = time.Duration(float64(time.Second) / p.OfferedRate * batch)
	}
	lastBatch := start
	var offered, dropped uint64
	for {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		if !measuring && now.Sub(start) >= p.Warmup {
			measuring = true
			measStart = now
			measStartIngest = d.Ingested.Total()
			measStartResults = d.Results.Total()
			if eng != nil {
				om := eng.Metrics()
				comps0[0] = om.QuerySetGen.NanosEstimate()
				comps0[1] = om.BitsetOps.NanosEstimate()
				comps0[2] = om.RouterCopy.NanosEstimate()
			}
		}
		if now.After(nextSample) {
			nextSample = now.Add(50 * time.Millisecond)
			activeSamples = append(activeSamples, float64(s.ActiveQueries()))
			// Feed the sustainability detector only during the measured
			// steady state and only once latency samples exist: the ramp
			// phase legitimately grows latency.
			if measuring {
				if v := float64(d.EventTimeLat.Mean()); v > 0 {
					sustain.Observe(v)
				}
			}
		}
		at := event.Time(now.Sub(start).Milliseconds())
		if p.OfferedRate > 0 {
			// Open loop: 16-tuple batches on a fixed cadence; drops count
			// against sustainability.
			if now.Sub(lastBatch) < interval {
				time.Sleep(interval / 4)
				continue
			}
			lastBatch = now
			for i := 0; i < batch; i++ {
				for st := 0; st < streams; st++ {
					t := gens[st].Next(at)
					t.IngestNanos = now.UnixNano()
					offered++
					if !d.TryOfferTuple(st, t) {
						dropped++
					}
				}
			}
		} else {
			// Closed loop: blocking offers; backpressure sets the pace.
			for i := 0; i < 16; i++ {
				for st := 0; st < streams; st++ {
					t := gens[st].Next(at)
					t.IngestNanos = now.UnixNano()
					d.OfferTuple(st, t)
				}
			}
		}
	}
	stopFlag.Store(true)
	measured := time.Since(measStart)
	ingested := d.Ingested.Total() - measStartIngest
	results := d.Results.Total() - measStartResults
	// Component counters are captured at the measurement boundary, before
	// the drain adds post-measurement work.
	var comps [3]uint64
	if eng != nil {
		om := eng.Metrics()
		comps[0] = om.QuerySetGen.NanosEstimate() - comps0[0]
		comps[1] = om.BitsetOps.NanosEstimate() - comps0[1]
		comps[2] = om.RouterCopy.NanosEstimate() - comps0[2]
	}
	wg.Wait()
	d.Finish()

	perStream := float64(ingested) / float64(streams) / measured.Seconds()
	meanActive := 0.0
	for _, a := range activeSamples {
		meanActive += a
	}
	if len(activeSamples) > 0 {
		meanActive /= float64(len(activeSamples))
	}
	// Sustainable = latency did not keep growing at steady state, the
	// request queue drained, and (open loop) the SUT absorbed the offered
	// rate with at most 5 % drops.
	dropOK := offered == 0 || float64(dropped)/float64(offered) <= 0.05
	m := Measurement{
		Params:        p,
		SlowestTupS:   perStream,
		OverallTupS:   perStream * maxf(meanActive, 1),
		ActiveQueries: meanActive,
		EventTimeLat:  d.EventTimeLat.Mean(),
		EventTimeP95:  d.EventTimeLat.Quantile(0.95),
		DeployMean:    d.DeployLat.Mean(),
		DeployMax:     d.DeployLat.Max(),
		Sustainable:   sustain.Sustainable() && d.PendingRequests() == 0 && dropOK,
		ResultsPerSec: float64(results) / measured.Seconds(),
	}
	if eng != nil {
		m.QuerySetGenNanos = comps[0]
		m.BitsetNanos = comps[1]
		m.RouterCopyNanos = comps[2]
	}
	return m
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// scheduleRequests enqueues query churn per the scenario until stopped.
func scheduleRequests(p Params, d *driver.Driver, qg *gen.Queries, stop *atomic.Bool) {
	switch p.Scenario {
	case "SC2":
		// Create and delete BatchN queries every BatchEvery/Compression.
		period := time.Duration(float64(p.BatchEvery) / p.Compression)
		ord := 0
		liveFrom := 1
		for !stop.Load() {
			for i := 0; i < p.BatchN; i++ {
				d.EnqueueRequest(driver.Request{Query: nextQuery(qg, p.Kind)})
				ord++
			}
			// Delete the previous batch (after the first round).
			if ord > p.BatchN {
				for i := 0; i < p.BatchN; i++ {
					d.EnqueueRequest(driver.Request{StopOrdinal: liveFrom})
					liveFrom++
				}
			}
			sleepUnless(period, stop)
		}
	default: // SC1: ramp to MaxParallelQ, then hold.
		interval := time.Duration(float64(time.Second) / (p.QueriesPerSec * p.Compression))
		created := 0
		for !stop.Load() && created < p.MaxParallelQ {
			d.EnqueueRequest(driver.Request{Query: nextQuery(qg, p.Kind)})
			created++
			if interval > 0 {
				sleepUnless(interval, stop)
			}
		}
	}
}

func sleepUnless(d time.Duration, stop *atomic.Bool) {
	const step = time.Millisecond
	for waited := time.Duration(0); waited < d; waited += step {
		if stop.Load() {
			return
		}
		time.Sleep(step)
	}
}
