package experiments

import (
	"time"

	"astream/internal/driver"
	"astream/internal/event"
	"astream/internal/gen"
	"astream/internal/metrics"
)

// Scale multiplies every experiment's measurement window; 1 is the quick
// bench default, larger values approach the paper's long steady states.
type Scale struct {
	Warmup  time.Duration
	Measure time.Duration
}

// QuickScale is the default seconds-long scale.
func QuickScale() Scale {
	return Scale{Warmup: 300 * time.Millisecond, Measure: 700 * time.Millisecond}
}

// sc1Grid is the paper's SC1 workload grid (Figures 9, 11, 12).
func sc1Grid() []Params {
	return []Params{
		{Scenario: "SC1", QueriesPerSec: 1, MaxParallelQ: 1},
		{Scenario: "SC1", QueriesPerSec: 1, MaxParallelQ: 20},
		{Scenario: "SC1", QueriesPerSec: 10, MaxParallelQ: 60},
		{Scenario: "SC1", QueriesPerSec: 100, MaxParallelQ: 1000},
	}
}

// sc2Grid is the paper's SC2 grid (Figures 13, 14, 15): n queries created
// and deleted every 10 s.
func sc2Grid() []Params {
	return []Params{
		{Scenario: "SC2", BatchN: 10, BatchEvery: 10 * time.Second},
		{Scenario: "SC2", BatchN: 30, BatchEvery: 10 * time.Second},
		{Scenario: "SC2", BatchN: 50, BatchEvery: 10 * time.Second},
	}
}

func apply(p Params, kind QueryKind, sys System, nodes int, sc Scale, seed int64) Params {
	p.Kind = kind
	p.System = sys
	p.Nodes = nodes
	p.Warmup = sc.Warmup
	p.Measure = sc.Measure
	p.Seed = seed
	return p
}

// Fig9SC1Throughput reproduces Figure 9 (slowest and overall data
// throughput, SC1): the SC1 grid for AStream plus the single-query baseline,
// for join and aggregation workloads on the given node counts.
func Fig9SC1Throughput(sc Scale, nodes []int) []Measurement {
	var out []Measurement
	for _, kind := range []QueryKind{JoinK, AggK} {
		for _, n := range nodes {
			out = append(out, Run(apply(Params{Scenario: "SC1", MaxParallelQ: 1, QueriesPerSec: 1}, kind, Baseline, n, sc, 1)))
			for _, p := range sc1Grid() {
				out = append(out, Run(apply(p, kind, AStream, n, sc, 1)))
			}
		}
	}
	return out
}

// Fig9QuerySweep runs Figure 9's query-count axis directly: SC1 at exactly
// the given MaxParallelQ counts (the paper's 1 → 100+ sweep) for both
// workload kinds on one node count, so the whole throughput-vs-queries
// curve comes out of a single invocation instead of the four fixed grid
// points. Query arrival rate scales with the target count the way the SC1
// grid does (~q/10, min 1).
func Fig9QuerySweep(sc Scale, nodes int, counts []int) []Measurement {
	var out []Measurement
	for _, kind := range []QueryKind{JoinK, AggK} {
		for _, q := range counts {
			p := Params{Scenario: "SC1", QueriesPerSec: float64(maxi(1, q/10)), MaxParallelQ: q}
			out = append(out, Run(apply(p, kind, AStream, nodes, sc, 1)))
		}
	}
	return out
}

// FigSlideSweep measures aggregation throughput against the window/slide
// ratio (how many slices one window extent spans) at a fixed SC1 churn point.
// Every query gets the same pinned window — length = ratio × 25 ms, slide =
// 25 ms — so the ratio axis isolates the window-fire path (DESIGN.md §15),
// whose per-fire merge work is linear in the ratio and, all queries sharing
// one pinned window, paid once per equivalence block instead of per query.
func FigSlideSweep(sc Scale, nodes int, ratios []int) []Measurement {
	const slide = 25 // event-time ms
	var out []Measurement
	for _, ratio := range ratios {
		p := Params{
			Scenario: "SC1", QueriesPerSec: 10, MaxParallelQ: 60,
			WindowLen: int64(ratio) * slide, WindowSlide: slide,
		}
		out = append(out, Run(apply(p, AggK, AStream, nodes, sc, 9)))
	}
	return out
}

// DeployPoint is one query's deployment latency in arrival order (Figure 10).
type DeployPoint struct {
	Ordinal int
	Latency time.Duration
}

// Fig10DeployTimeline reproduces Figure 10: one query per (compressed)
// second up to `upTo` queries, per system; returns each query's deployment
// latency (queue wait included). The baseline's latencies grow with the
// number of deployed queries; AStream's stay flat.
func Fig10DeployTimeline(sys System, upTo int, sc Scale) []DeployPoint {
	p := Params{
		System: sys, Kind: JoinK, Scenario: "SC1",
		QueriesPerSec: 1, MaxParallelQ: upTo,
	}
	p.setDefaults()
	p.Warmup = sc.Warmup
	p.Measure = sc.Measure + time.Duration(upTo)*100*time.Millisecond
	s, _, err := buildSUT(p)
	if err != nil {
		panic(err)
	}
	streams := p.Kind.streams()
	d := driver.New(driver.Config{Streams: streams, RequestBatch: 1}, s)
	d.StartPumps()
	qg := queryGen(p)

	gens := make([]*gen.Data, streams)
	for i := range gens {
		gens[i] = gen.NewData(gen.DataConfig{Keys: p.Keys, FieldMax: 1000}, 1)
	}
	start := time.Now()
	var points []DeployPoint
	nextSubmit := start
	submitted := 0
	for submitted < upTo {
		now := time.Now()
		if now.After(nextSubmit) {
			d.EnqueueRequest(driver.Request{Query: nextQuery(qg, p.Kind)})
			enq := time.Now()
			if _, err := d.PumpRequests(); err != nil {
				panic(err)
			}
			points = append(points, DeployPoint{Ordinal: submitted + 1, Latency: time.Since(enq)})
			submitted++
			nextSubmit = nextSubmit.Add(time.Duration(float64(time.Second) / p.Compression))
		}
		// Keep data flowing so topologies have real in-flight backlog.
		at := now.Sub(start).Milliseconds()
		for i := 0; i < 8; i++ {
			for st := 0; st < streams; st++ {
				t := gens[st].Next(event.Time(at))
				t.IngestNanos = now.UnixNano()
				d.OfferTuple(st, t)
			}
		}
	}
	d.Finish()
	return points
}

// Fig11And12SC1Latencies reproduces Figures 11 and 12: deployment latency
// and event-time latency across the SC1 grid.
func Fig11And12SC1Latencies(sc Scale, nodes []int) []Measurement {
	return Fig9SC1Throughput(sc, nodes) // same runs carry both metrics
}

// Fig13To15SC2 reproduces Figures 13, 14, and 15: event-time latency,
// slowest/overall throughput, and deployment latency on the SC2 grid.
func Fig13To15SC2(sc Scale, nodes []int) []Measurement {
	var out []Measurement
	for _, kind := range []QueryKind{JoinK, AggK} {
		for _, n := range nodes {
			for _, p := range sc2Grid() {
				out = append(out, Run(apply(p, kind, AStream, n, sc, 2)))
			}
		}
	}
	return out
}

// Fig16Timeline reproduces Figure 16: complex queries under three churn
// regimes — sharp increases, gradual decrease/increase, and fluctuation —
// sampling slowest throughput, latency, and query count over time.
func Fig16Timeline(sc Scale) []metrics.TimePoint {
	p := Params{System: AStream, Kind: ComplexK, Scenario: "SC1", MaxParallelQ: 1, QueriesPerSec: 1}
	p.setDefaults()
	s, _, err := buildSUT(p)
	if err != nil {
		panic(err)
	}
	streams := p.Kind.streams()
	d := driver.New(driver.Config{Streams: streams, RequestBatch: 100}, s)
	d.StartPumps()
	qg := queryGen(p)
	tl := metrics.NewTimeline(time.Now())

	phaseDur := sc.Measure // one phase per measure window
	// Phases: sharp +10, sharp +20, gradual -15, gradual +10, fluctuate.
	type phase struct{ create, del int }
	phases := []phase{{10, 0}, {20, 0}, {0, 15}, {10, 0}, {10, 10}, {10, 10}}
	gens := make([]*gen.Data, streams)
	for i := range gens {
		gens[i] = gen.NewData(gen.DataConfig{Keys: p.Keys, FieldMax: 1000}, 3)
	}
	start := time.Now()
	created, deleted := 0, 0
	for _, ph := range phases {
		for i := 0; i < ph.create; i++ {
			d.EnqueueRequest(driver.Request{Query: nextQuery(qg, p.Kind)})
			created++
		}
		for i := 0; i < ph.del && deleted < created-1; i++ {
			deleted++
			d.EnqueueRequest(driver.Request{StopOrdinal: deleted})
		}
		if _, err := d.PumpRequests(); err != nil {
			panic(err)
		}
		phaseEnd := time.Now().Add(phaseDur)
		for time.Now().Before(phaseEnd) {
			now := time.Now()
			at := event.Time(now.Sub(start).Milliseconds())
			for i := 0; i < 16; i++ {
				for st := 0; st < streams; st++ {
					t := gens[st].Next(at)
					t.IngestNanos = now.UnixNano()
					d.OfferTuple(st, t)
				}
			}
			// Paced (~16K tuples/s/stream): the complex workload's n-ary
			// join windows grow quadratically with window volume, so the
			// timeline runs at a fixed moderate rate like the paper's
			// cluster does.
			time.Sleep(time.Millisecond)
		}
		tl.Sample(time.Now(), d.Ingested.WindowRate()/float64(streams),
			float64(d.EventTimeLat.Mean().Milliseconds()), s.ActiveQueries())
	}
	d.Finish()
	return tl.Points()
}

// Fig17ParallelismSweep reproduces Figure 17: slowest throughput as query
// parallelism grows 1 → maxQ (log steps).
func Fig17ParallelismSweep(sc Scale, kind QueryKind, nodes int, maxQ int) []Measurement {
	var out []Measurement
	for q := 1; q <= maxQ; q *= 4 {
		p := Params{Scenario: "SC1", QueriesPerSec: 100, MaxParallelQ: q}
		out = append(out, Run(apply(p, kind, AStream, nodes, sc, 4)))
	}
	return out
}

// OverheadShare is Figure 18a's datum: the share of AStream's added work
// attributable to each component.
type OverheadShare struct {
	Queries                      int
	QuerySetGen, Bitset, RouterC float64 // fractions of component total
	TotalShare                   float64 // component total / (measure × parallelism)
}

// Fig18ComponentOverhead reproduces Figure 18: the proportion of AStream's
// sharing machinery (query-set generation, bitset operations, router copy)
// at growing query parallelism, plus its share of total processing time.
func Fig18ComponentOverhead(sc Scale, counts []int) []OverheadShare {
	var out []OverheadShare
	for _, q := range counts {
		p := Params{Scenario: "SC1", QueriesPerSec: 100, MaxParallelQ: q}
		m := Run(apply(p, AggK, AStream, 1, sc, 5))
		total := float64(m.QuerySetGenNanos + m.BitsetNanos + m.RouterCopyNanos)
		sh := OverheadShare{Queries: q}
		if total > 0 {
			sh.QuerySetGen = float64(m.QuerySetGenNanos) / total
			sh.Bitset = float64(m.BitsetNanos) / total
			sh.RouterC = float64(m.RouterCopyNanos) / total
		}
		// Budget: measured wall time × operator instances (2 streams? the agg
		// workload has S selections + agg = 2 stages × parallelism).
		budget := float64(m.Params.Measure.Nanoseconds()) * float64(2*m.Params.Parallelism)
		sh.TotalShare = total / budget
		out = append(out, sh)
	}
	return out
}

// Fig18bSingleQueryOverhead measures the sharing overhead the paper bounds
// at ~10 %: single-query AStream throughput vs single-query baseline.
func Fig18bSingleQueryOverhead(sc Scale, kind QueryKind) (astream, baseline Measurement, overhead float64) {
	pa := Run(apply(Params{Scenario: "SC1", MaxParallelQ: 1, QueriesPerSec: 1}, kind, AStream, 1, sc, 6))
	pb := Run(apply(Params{Scenario: "SC1", MaxParallelQ: 1, QueriesPerSec: 1}, kind, Baseline, 1, sc, 6))
	ov := 0.0
	if pb.SlowestTupS > 0 {
		ov = 1 - pa.SlowestTupS/pb.SlowestTupS
	}
	return pa, pb, ov
}

// Fig19Impact reproduces Figure 19: the effect of adding ad-hoc join
// queries on existing long-running ones — slowest throughput before and
// after the ad-hoc wave.
type ImpactPoint struct {
	LongRunning int
	AdHoc       int
	Scenario    string
	BeforeTupS  float64
	AfterTupS   float64
}

// Fig19Impact measures before/after throughput for each (long-running,
// ad-hoc) combination on the given scenario.
func Fig19Impact(sc Scale, scenario string, longCounts, adhocCounts []int) []ImpactPoint {
	var out []ImpactPoint
	for _, L := range longCounts {
		for _, A := range adhocCounts {
			out = append(out, runImpact(sc, scenario, L, A))
		}
	}
	return out
}

func runImpact(sc Scale, scenario string, L, A int) ImpactPoint {
	p := Params{System: AStream, Kind: JoinK, Scenario: scenario,
		QueriesPerSec: 100, MaxParallelQ: L, BatchN: maxi(A, 1), BatchEvery: 10 * time.Second}
	p.setDefaults()
	p.Warmup = sc.Warmup
	p.Measure = sc.Measure
	s, _, err := buildSUT(p)
	if err != nil {
		panic(err)
	}
	streams := p.Kind.streams()
	d := driver.New(driver.Config{Streams: streams, RequestBatch: 200}, s)
	d.StartPumps()
	qg := queryGen(p)
	for i := 0; i < L; i++ {
		d.EnqueueRequest(driver.Request{Query: nextQuery(qg, p.Kind)})
	}
	if _, err := d.PumpRequests(); err != nil {
		panic(err)
	}
	gens := make([]*gen.Data, streams)
	for i := range gens {
		gens[i] = gen.NewData(gen.DataConfig{Keys: p.Keys, FieldMax: 1000}, 7)
	}
	start := time.Now()
	pump := func(until time.Time) uint64 {
		from := d.Ingested.Total()
		for time.Now().Before(until) {
			now := time.Now()
			at := event.Time(now.Sub(start).Milliseconds())
			for i := 0; i < 16; i++ {
				for st := 0; st < streams; st++ {
					t := gens[st].Next(at)
					t.IngestNanos = now.UnixNano()
					d.OfferTuple(st, t)
				}
			}
			// Paced (~16K tup/s/stream): join windows are quadratic in
			// window volume (see Params.OfferedRate).
			time.Sleep(time.Millisecond)
		}
		return d.Ingested.Total() - from
	}
	pump(time.Now().Add(p.Warmup))
	before := float64(pump(time.Now().Add(p.Measure))) / float64(streams) / p.Measure.Seconds()
	// The ad-hoc wave.
	for i := 0; i < A; i++ {
		d.EnqueueRequest(driver.Request{Query: nextQuery(qg, p.Kind)})
	}
	if _, err := d.PumpRequests(); err != nil {
		panic(err)
	}
	after := float64(pump(time.Now().Add(p.Measure))) / float64(streams) / p.Measure.Seconds()
	d.Finish()
	return ImpactPoint{LongRunning: L, AdHoc: A, Scenario: scenario, BeforeTupS: before, AfterTupS: after}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ScalabilityPoint is Figure 20's datum: how many ad-hoc queries a node
// count sustains at a fixed offered data rate.
type ScalabilityPoint struct {
	Nodes     int
	Scenario  string
	Sustained int
}

// Fig20Scalability reproduces Figure 20: for each node count, the largest
// tested query count that stays sustainable at the fixed offered rate.
// Sustainability here is the paper's: the offered load is absorbed (≥ 70 %
// delivered) within a bounded event-time latency (QoS bound: 300 ms at this
// scale — throughput alone flattens under sharing and would not
// discriminate, which is itself the paper's headline effect).
func Fig20Scalability(sc Scale, scenario string, nodes []int, queryCounts []int, offered float64) []ScalabilityPoint {
	const latencyBound = 300 * time.Millisecond
	var out []ScalabilityPoint
	for _, n := range nodes {
		sustained := 0
		for _, q := range queryCounts {
			p := Params{Scenario: scenario, QueriesPerSec: 100, MaxParallelQ: q,
				BatchN: maxi(q/5, 1), BatchEvery: 10 * time.Second, OfferedRate: offered}
			m := Run(apply(p, JoinK, AStream, n, sc, 8))
			if m.SlowestTupS >= offered*0.7 && m.EventTimeLat <= latencyBound {
				sustained = q
			} else {
				break
			}
		}
		out = append(out, ScalabilityPoint{Nodes: n, Scenario: scenario, Sustained: sustained})
	}
	return out
}
